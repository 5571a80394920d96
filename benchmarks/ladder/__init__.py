"""The serving ladder benchmark: end-to-end and per-layer metrics.

See ``benchmarks/ladder/README.md``.  Run it with
``python3 benchmarks/ladder/run.py --workload <name> --seed <n>`` or
``python -m benchmarks.ladder run|compare``.
"""

THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
"""BLAS/OpenMP pool sizes, set before numpy is imported.

Uncapped, the gateway's idle BLAS workers spin on the load generator's
core and throughput drifts from run to run."""

"""Benchmark entry point: ``python3 benchmarks/ladder/run.py --workload <name> ...``.

Same as ``python -m benchmarks.ladder run ...``; needs no ``PYTHONPATH``.
"""

import os
import runpy
import sys

if __name__ == "__main__":
    sys.argv[1:1] = ["run"]
    here = os.path.dirname(os.path.abspath(__file__))
    runpy.run_path(os.path.join(here, "__main__.py"), run_name="__main__")

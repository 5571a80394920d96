"""Decision-path raw speed: float64 reference vs float32 fast path.

The orientation gate's hot path (preprocess -> GCC/SRP features ->
SVM) runs here in both precisions over the same rendered captures:

- the default ``float64`` path, measured per capture (this is the
  deployment shape: one wake word, one decision) — its fingerprints
  must stay bit-stable;
- the opt-in ``float32`` path through ``evaluate_batch`` (single-
  precision FFTs + one batched transform per utterance group), which
  must beat the float64 per-capture reference outright.

The gate and captures are the soak's (``repro.serving.soak``'s
``build_pipeline(0)`` and ``build_captures(1)``).

Every number lands in ``benchmarks/results/BENCH_decision.json``
(schema ``repro.obs.bench/1``); CI gates it against the committed
``benchmarks/baselines/BENCH_decision.json`` with
``python -m repro.obs.bench --compare``.  The report accumulates across
this module's tests in definition order — run the whole file.
"""

import json
import pathlib
import time

import numpy as np

from repro.dsp import precision
from repro.obs import bench as obs_bench
from repro.obs.bench import BenchReport
from repro.reporting import ExperimentResult
from repro.serving.soak import build_captures, build_pipeline

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_decision.json"

_REPORT = BenchReport("decision")

_ROUNDS = 3


def test_bench_decision_throughput(benchmark, record_result):
    pipeline, captures = build_pipeline(0), build_captures(1)

    def measure():
        # Warmup: scipy FFT-plan/filter caches and BLAS spin-up —
        # one-time costs, not decision latency.
        for capture in captures:
            pipeline.evaluate(capture, check_liveness=False)
        with precision("float32"):
            pipeline.evaluate_batch(captures, check_liveness=False)

        # float64, per capture (the deployment shape).
        latencies_ms = []
        reference = []
        for _ in range(_ROUNDS):
            for capture in captures:
                start = time.perf_counter()
                decision = pipeline.evaluate(capture, check_liveness=False)
                latencies_ms.append(1000.0 * (time.perf_counter() - start))
                reference.append(decision)

        # float32, batched (the offline/replay shape).
        fast_s = []
        fast_decisions = None
        with precision("float32"):
            for _ in range(_ROUNDS):
                start = time.perf_counter()
                fast_decisions = pipeline.evaluate_batch(captures, check_liveness=False)
                fast_s.append(time.perf_counter() - start)
        return latencies_ms, reference, min(fast_s), fast_decisions

    latencies_ms, reference, fast_s, fast_decisions = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    n = len(captures)

    float64_ms = float(np.mean(latencies_ms))
    p95_ms = float(np.percentile(latencies_ms, 95))
    float64_dps = 1000.0 / float64_ms
    float32_dps = n / fast_s
    speedup = float32_dps / float64_dps

    # The float64 path is bit-stable: every repeat of a capture made the
    # same fingerprint.
    stable = all(
        reference[k].fingerprint() == reference[k % n].fingerprint()
        for k in range(len(reference))
    )
    assert stable
    # The float32 path reaches the same verdicts on these well-separated
    # captures (numeric parity is asserted in tests/core).
    verdicts_match = all(
        fast.accepted == ref.accepted and fast.reason == ref.reason
        for fast, ref in zip(fast_decisions, reference[:n])
    )
    assert verdicts_match
    # The point of the fast path: measurably faster than the float64
    # per-capture reference on the same machine, same captures.
    assert speedup > 1.0

    record_result(
        ExperimentResult(
            experiment_id="R02",
            title="Decision path: float32 + batched transforms vs float64 reference",
            headers=["path", "decisions_per_s", "speedup"],
            rows=[
                {"path": "float64 per-capture", "decisions_per_s": round(float64_dps, 1), "speedup": 1.0},
                {
                    "path": "float32 batched",
                    "decisions_per_s": round(float32_dps, 1),
                    "speedup": round(speedup, 2),
                },
            ],
            paper="(infrastructure benchmark; no paper counterpart)",
            summary={
                "n_captures": n,
                "float64_ms_per_decision": round(float64_ms, 2),
                "p95_ms": round(p95_ms, 2),
                "float32_speedup": round(speedup, 2),
                "verdicts_match": verdicts_match,
            },
        )
    )

    _REPORT.add_metric("decision.n_captures", n, kind="equivalence")
    _REPORT.add_metric("decision.float64_ms_per_decision", float64_ms, unit="ms")
    _REPORT.add_metric("decision.p95_ms", p95_ms, unit="ms")
    # Throughputs restate the wall-clock metrics in decisions/sec for
    # the report reader; the ms metrics above carry the gate.
    _REPORT.add_metric(
        "decision.float64_dps", float64_dps, kind="ratio", direction="higher", gate=False
    )
    _REPORT.add_metric(
        "decision.float32_batch_dps",
        float32_dps,
        kind="ratio",
        direction="higher",
        gate=False,
    )
    _REPORT.add_metric(
        "decision.speedup", speedup, kind="ratio", direction="higher", gate=False
    )
    _REPORT.add_metric("decision.float64_fingerprints_stable", stable, kind="equivalence")
    _REPORT.add_metric("decision.float32_verdicts_match", verdicts_match, kind="equivalence")


def test_bench_report_written(tmp_path):
    """Serialize the accumulated report and prove the gate bites."""
    assert "decision.p95_ms" in _REPORT.metrics, "run the whole file in order"

    RESULTS_DIR.mkdir(exist_ok=True)
    current_path = RESULTS_DIR / "BENCH_decision.json"
    _REPORT.write(current_path)
    assert obs_bench.validate(json.loads(current_path.read_text())) == []

    # A report is always within tolerance of itself.
    assert obs_bench.main(["--compare", str(current_path), str(current_path)]) == 0

    # Synthetic wall-clock regression: 10x on a gated metric must fail
    # even at the CI job's generous 200% threshold.
    regressed = json.loads(current_path.read_text())
    regressed["metrics"]["decision.p95_ms"]["value"] *= 10.0
    regressed_path = tmp_path / "regressed.json"
    regressed_path.write_text(json.dumps(regressed))
    assert (
        obs_bench.main(
            ["--compare", str(current_path), str(regressed_path), "--max-regress", "200"]
        )
        == 1
    )

    # Equivalence bits are strict at any threshold.
    flipped = json.loads(current_path.read_text())
    flipped["metrics"]["decision.float64_fingerprints_stable"]["value"] = False
    flipped_path = tmp_path / "flipped.json"
    flipped_path.write_text(json.dumps(flipped))
    assert (
        obs_bench.main(
            ["--compare", str(current_path), str(flipped_path), "--max-regress", "10000"]
        )
        == 1
    )

    if BASELINE_PATH.exists():
        assert (
            obs_bench.main(
                ["--compare", str(BASELINE_PATH), str(current_path), "--max-regress", "200"]
            )
            == 0
        )

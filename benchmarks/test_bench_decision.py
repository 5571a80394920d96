"""Decision-path raw speed: float64 reference vs float32 fast path.

The orientation gate's hot path (preprocess -> GCC/SRP features ->
SVM) runs here in both precisions over the same rendered captures:

- the default ``float64`` path, measured per capture (this is the
  deployment shape: one wake word, one decision) — its fingerprints
  must stay bit-stable;
- the opt-in ``float32`` path through ``evaluate_batch`` (single-
  precision FFTs + one batched transform per utterance group), which
  must beat the float64 per-capture reference outright;
- the frame-granular ``pairwise_gcc_frames`` API against an equivalent
  per-frame loop — the batched transform must win.

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

from repro.arrays.devices import default_channel_subset, get_device
from repro.core.config import DEFAULT_DEFINITION
from repro.core.liveness import LIVE_HUMAN, MECHANICAL, LivenessDetector
from repro.core.pipeline import HeadTalkPipeline
from repro.core.preprocessing import preprocess
from repro.datasets import TINY
from repro.datasets.collection import CollectionSpec, collect
from repro.dsp import pairwise_gcc, pairwise_gcc_frames, precision, srp_max_lag_for
from repro.experiments.common import default_dataset, fit_detector
from repro.obs import bench as obs_bench
from repro.obs.bench import BenchReport
from repro.reporting import ExperimentResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_decision.json"

_REPORT = BenchReport("decision")

_ROUNDS = 3
_SETUP: dict = {}


def _setup():
    """Pipeline + evaluation captures, built once per session."""
    if _SETUP:
        return _SETUP["pipeline"], _SETUP["captures"]
    seed = 0
    detector = fit_detector(default_dataset(TINY, seed), DEFAULT_DEFINITION)
    device = get_device("D2")
    array = device.subset(default_channel_subset(device))

    spec = CollectionSpec(
        room="lab",
        device="D2",
        wake_word="computer",
        locations=((1.0, 0.0), (2.0, 45.0)),
        angles=(0.0, 90.0, 180.0),
        repetitions=1,
    )
    captures = [capture for _, capture in collect(spec, seed + 1)]

    liveness = LivenessDetector(epochs=1, random_state=seed)
    waveforms = [preprocess(c).reference for c in captures[:4]]
    labels = np.asarray([LIVE_HUMAN, MECHANICAL, LIVE_HUMAN, MECHANICAL])
    liveness.fit(waveforms, labels, array.sample_rate)

    pipeline = HeadTalkPipeline(array=array, liveness=liveness, orientation=detector)
    _SETUP["pipeline"] = pipeline
    _SETUP["captures"] = captures
    return pipeline, captures


def test_bench_decision_throughput(benchmark, record_result):
    pipeline, captures = _setup()

    def measure():
        # Warmup: scipy FFT-plan/filter caches, BLAS spin-up, and the
        # per-geometry ArrayPlan — one-time costs, not decision latency.
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
    n = len(_SETUP["captures"])

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


def test_bench_frame_batched_gcc(benchmark, record_result):
    """One batched transform over all frames beats a per-frame loop."""
    _, captures = _setup()
    array = get_device("D2").subset(default_channel_subset(get_device("D2")))
    pairs = array.pairs()
    max_lag = srp_max_lag_for(array)
    channels = preprocess(captures[0]).channels
    frame_length, hop_length = 1024, 512

    def measure():
        # Warmup both paths.
        batched = pairwise_gcc_frames(channels, pairs, max_lag, frame_length, hop_length)
        n_frames = batched.shape[0]

        def frame(k):
            start = k * hop_length
            chunk = channels[:, start : start + frame_length]
            if chunk.shape[1] < frame_length:
                chunk = np.pad(chunk, ((0, 0), (0, frame_length - chunk.shape[1])))
            return chunk

        def run_looped():
            return np.stack([pairwise_gcc(frame(k), pairs, max_lag) for k in range(n_frames)])

        def run_batched():
            return pairwise_gcc_frames(channels, pairs, max_lag, frame_length, hop_length)

        def timed(run, seconds):
            start = time.perf_counter()
            out = run()
            seconds.append(time.perf_counter() - start)
            return out

        looped_s, batched_s = [], []
        for round_index in range(_ROUNDS):
            # Interleave the paths and alternate which goes first, so host
            # drift during the measurement lands on both alike.
            if round_index % 2:
                batched = timed(run_batched, batched_s)
                looped = timed(run_looped, looped_s)
            else:
                looped = timed(run_looped, looped_s)
                batched = timed(run_batched, batched_s)
        return looped, batched, min(looped_s), min(batched_s)

    looped, batched, looped_s, batched_s = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Frame batching re-groups the same transforms: equal to within a
    # ulp (numpy's elementwise kernels round the whitening differently
    # across batch shapes, so this is allclose, not array_equal).
    identical = bool(np.allclose(looped, batched, rtol=1e-9, atol=1e-12))
    assert identical
    speedup = looped_s / batched_s
    assert speedup > 1.0

    record_result(
        ExperimentResult(
            experiment_id="R03",
            title="Frame-granular GCC: batched transform vs per-frame loop",
            headers=["path", "seconds", "speedup"],
            rows=[
                {"path": "per-frame loop", "seconds": round(looped_s, 4), "speedup": 1.0},
                {
                    "path": "batched frames",
                    "seconds": round(batched_s, 4),
                    "speedup": round(speedup, 2),
                },
            ],
            paper="(infrastructure benchmark; no paper counterpart)",
            summary={
                "n_frames": int(batched.shape[0]),
                "batched_gcc_speedup": round(speedup, 2),
                "matches_loop": identical,
            },
        )
    )

    _REPORT.add_metric("frames.n_frames", int(batched.shape[0]), kind="equivalence")
    _REPORT.add_metric("frames.per_frame_seconds", looped_s, unit="s")
    _REPORT.add_metric("frames.batched_seconds", batched_s, unit="s")
    _REPORT.add_metric(
        "frames.batched_gcc_speedup",
        speedup,
        kind="ratio",
        direction="higher",
        gate=False,
    )
    _REPORT.add_metric("frames.batched_equals_loop", identical, kind="equivalence")


def test_bench_report_written(tmp_path):
    """Serialize the accumulated report and prove the gate bites."""
    assert "decision.p95_ms" in _REPORT.metrics, "run the whole file in order"
    assert "frames.batched_gcc_speedup" in _REPORT.metrics, "run the whole file in order"

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

"""E18 — run-time performance (Section IV-B15) + rendering engine.

Shape to hold: both inference stages complete within a VA's wake-word
response window (the paper's PC numbers are 42 ms liveness + 136 ms
orientation; absolute values are hardware-bound), and the runtime
layer's warm render cache beats cold serial rendering by >= 1.5x on the
E01 scene set (one-time FFT-plan/BLAS warmup is excluded from the cold
pass, so the ratio is pure cache effect).  The serial-vs-parallel ratio
is *recorded*, not asserted: the parallel pass renders on at most two
threads, one per CPU the process may run on, so on a one-CPU box it
runs inline and can only match the serial cold pass.

Every number also lands in ``benchmarks/results/BENCH_runtime.json``
(schema ``repro.obs.bench/1``); CI gates it against the committed
``benchmarks/baselines/BENCH_runtime.json`` with
``python -m repro.obs.bench --compare``.  The report accumulates across
the tests of this module in definition order — run the whole file to
produce a complete report.
"""

import json
import pathlib
import time

import numpy as np

from repro.datasets import BENCH, TINY
from repro.datasets.catalog import dataset1_specs, dataset2_specs
from repro.datasets.collection import render_tasks
from repro.experiments import exp_runtime
from repro.experiments.common import write_run_manifest
from repro.obs import REGISTRY, export_trace, observed, profile_snapshot
from repro.obs import bench as obs_bench
from repro.obs import runlog as obs_runlog
from repro.obs.bench import BenchReport
from repro.obs.monitor import monitor_snapshot, reset_monitor
from repro.reporting import ExperimentResult
from repro.runtime import cache_stats, clear_caches, render_captures

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
MANIFEST_DIR = pathlib.Path(__file__).parent / "manifests"
BASELINE_PATH = pathlib.Path(__file__).parent / "baselines" / "BENCH_runtime.json"

_REPORT = BenchReport("runtime")


def test_bench_runtime(benchmark, record_result):
    REGISTRY.reset()
    reset_monitor()
    with observed():
        result = benchmark.pedantic(
            exp_runtime.run, kwargs={"scale": BENCH, "n_trials": 20}, rounds=1, iterations=1
        )
    record_result(result)
    latency = {row["stage"]: row["mean_ms"] for row in result.rows}
    assert latency["liveness"] > 0
    assert latency["orientation"] > 0
    assert result.summary["total_ms"] < 2000.0  # well inside the response window
    assert result.summary["batch_matches_serial"] is True

    for stage in ("preprocess", "liveness", "orientation"):
        _REPORT.add_metric(f"e18.{stage}_mean_ms", latency[stage], unit="ms")
    _REPORT.add_metric("e18.total_ms", result.summary["total_ms"], unit="ms")
    _REPORT.add_metric(
        "e18.batch_per_capture_ms", result.summary["batch_per_capture_ms"], unit="ms"
    )
    _REPORT.add_metric(
        "e18.batch_matches_serial",
        result.summary["batch_matches_serial"],
        kind="equivalence",
    )
    for name, summary in REGISTRY.histograms("pipeline.").items():
        _REPORT.add_histogram(name, summary)

    # The observed run above doubles as the trace + run-manifest
    # artifact source: CI uploads both next to the bench report.
    RESULTS_DIR.mkdir(exist_ok=True)
    export_trace(RESULTS_DIR / "trace_runtime.json")
    manifest_path = write_run_manifest(
        result,
        seed=0,
        config={"scale": "BENCH", "n_trials": 20},
        stages={row["stage"]: row["mean_ms"] for row in result.rows},
        manifest_dir=MANIFEST_DIR,
    )
    loaded = obs_runlog.RunManifest.load(manifest_path)
    assert loaded.to_dict() == json.loads(manifest_path.read_text())


def _e01_tasks():
    """The E01 (liveness) scene set: Dataset-1 lab/D2 slice + Dataset-2."""
    specs = dataset1_specs(
        TINY, rooms=("lab",), devices=("D2",), wake_words=("computer", "hey assistant")
    ) + dataset2_specs(TINY)
    return [task for spec in specs for _, task in render_tasks(spec)]


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_bench_render_engine(benchmark, record_result):
    tasks = _e01_tasks()
    clear_caches()
    REGISTRY.reset()

    def measure():
        cold, cold_s = _timed(lambda: render_captures(tasks, workers=1))
        # Two warm passes, keeping the faster: the cache state is
        # identical for both, so the min strips scheduler noise (this
        # runs on heavily shared CI cores).
        warm, warm_s = _timed(lambda: render_captures(tasks, workers=1))
        _, warm_again_s = _timed(lambda: render_captures(tasks, workers=1))
        warm_s = min(warm_s, warm_again_s)
        stats = cache_stats()
        clear_caches()
        par, par_s = _timed(lambda: render_captures(tasks, workers=2))
        return cold, warm, par, cold_s, warm_s, par_s, stats

    cold, warm, par, cold_s, warm_s, par_s, stats = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    warm_equal = all(np.array_equal(a.channels, b.channels) for a, b in zip(cold, warm))
    parallel_equal = all(np.array_equal(a.channels, b.channels) for a, b in zip(cold, par))
    assert warm_equal
    assert parallel_equal

    warm_speedup = cold_s / warm_s
    parallel_speedup = cold_s / par_s
    per_capture = 1000.0 * cold_s / len(tasks)
    rows = [
        {"path": "serial cold", "seconds": round(cold_s, 3), "speedup_vs_cold": 1.0},
        {
            "path": "serial warm cache",
            "seconds": round(warm_s, 3),
            "speedup_vs_cold": round(warm_speedup, 2),
        },
        {
            "path": "parallel x2 cold (threads)",
            "seconds": round(par_s, 3),
            "speedup_vs_cold": round(parallel_speedup, 2),
        },
    ]
    record_result(
        ExperimentResult(
            experiment_id="R01",
            title="Rendering engine: cached + parallel batch renderer",
            headers=["path", "seconds", "speedup_vs_cold"],
            rows=rows,
            paper="(infrastructure benchmark; no paper counterpart)",
            summary={
                "n_captures": len(tasks),
                "cold_ms_per_capture": round(per_capture, 1),
                "warm_speedup": round(warm_speedup, 2),
                "parallel_speedup": round(parallel_speedup, 2),
                "dry_cache_hit_rate": round(stats["dry"].hit_rate, 3),
            },
        )
    )
    fully_memoized = stats["dry"].hits == 2 * len(tasks)  # warm passes fully memoized
    assert fully_memoized
    # The cold pass no longer pays one-time process warmup (exp_runtime's
    # warmup trials already populated the FFT-plan and BLAS caches), so
    # the warm/cold ratio is lower than when cold included those costs;
    # 1.5x is the noise-proof floor on a shared single core and the
    # recorded ratio in BENCH_runtime.json tracks the trend.
    assert warm_speedup >= 1.5

    _REPORT.add_metric("render.n_captures", len(tasks), kind="equivalence")
    _REPORT.add_metric("render.cold_seconds", cold_s, unit="s")
    _REPORT.add_metric("render.warm_seconds", warm_s, unit="s")
    # Like render.parallel_speedup, the parallel wall-clock is recorded
    # but not gated: it depends on how many CPUs the runner grants the
    # process (one CPU renders inline) and swings with machine load,
    # not with code changes.
    _REPORT.add_metric("render.parallel_seconds", par_s, unit="s", gate=False)
    _REPORT.add_metric("render.cold_ms_per_capture", per_capture, unit="ms")
    _REPORT.add_metric(
        "render.warm_speedup", warm_speedup, kind="ratio", direction="higher", gate=False
    )
    _REPORT.add_metric(
        "render.parallel_speedup",
        parallel_speedup,
        kind="ratio",
        direction="higher",
        gate=False,
    )
    _REPORT.add_metric("render.warm_equals_cold", warm_equal, kind="equivalence")
    _REPORT.add_metric("render.parallel_equals_cold", parallel_equal, kind="equivalence")
    _REPORT.add_metric("render.dry_cache_fully_memoized", fully_memoized, kind="equivalence")


def test_bench_report_written(tmp_path):
    """Serialize the accumulated report and prove the gate bites.

    Runs last in this module: it needs the metrics the two benchmarks
    above recorded.  Writes ``results/BENCH_runtime.json``, validates it
    against the schema, and checks the comparator's exit codes — 0
    against the committed baseline (generous CI threshold), nonzero on a
    synthetically regressed copy and on a flipped equivalence bit.
    """
    assert "e18.total_ms" in _REPORT.metrics, "run the whole file in order"
    assert "render.cold_seconds" in _REPORT.metrics, "run the whole file in order"

    RESULTS_DIR.mkdir(exist_ok=True)
    current_path = RESULTS_DIR / "BENCH_runtime.json"
    _REPORT.add_profiles(profile_snapshot())
    # The observed E18 run fed the quality monitor (labelled decisions on
    # the facing capture); its snapshot rides along informationally —
    # QUALITY_*.json owns the enforcement.
    _REPORT.add_quality(monitor_snapshot())
    _REPORT.write(current_path)
    assert obs_bench.validate(json.loads(current_path.read_text())) == []

    # A report is always within tolerance of itself.
    assert obs_bench.main(["--compare", str(current_path), str(current_path)]) == 0

    # Synthetic wall-clock regression: 10x on a gated metric must fail
    # even at the CI job's generous 200% threshold.
    regressed = json.loads(current_path.read_text())
    regressed["metrics"]["render.cold_seconds"]["value"] *= 10.0
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
    flipped["metrics"]["render.parallel_equals_cold"]["value"] = False
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

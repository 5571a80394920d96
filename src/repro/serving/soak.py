"""Serving soak: N concurrent simulated devices for S seconds.

``python -m repro.serving.soak --sessions 200 --seconds 60 --out
BENCH_serving.json`` trains the TINY-scale gate, renders a bank of
captures across facing/side/back poses, precomputes the batch
(`evaluate`) fingerprint of each, then drives a live gateway with
``--sessions`` concurrent client connections that stream utterances
round-robin until the deadline.

Every decision that comes back over the wire is checked against its
precomputed batch fingerprint — the soak is the verdict-equivalence
gate at scale, not just a load generator.  The resulting report
(schema ``repro.obs.bench/1``) carries:

- ``serving.p95_decision_ms`` (gated, lower-is-better) plus p50/p99;
- ``serving.median_frames_to_decision`` (gated: early exit must keep
  shortening streams);
- equivalence bits ``serving.streaming_equals_batch``,
  ``serving.early_never_flips`` and ``serving.early_exit_shortens``
  (strict at any ``--max-regress`` threshold);
- ungated throughput context (utterances, utterances/sec).

The CLI exits nonzero on any correctness failure — a fingerprint
mismatch, an early verdict flip, or ring overflow (tail-dropped
samples) — and ``--json PATH`` writes the printed summary plus the
failure list as machine-readable JSON for CI.

CI runs this with ``REPRO_OBS=1`` and an audit log configured, then
gates the report against ``benchmarks/baselines/BENCH_serving.json``
via ``python -m repro.obs.bench --compare``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import numpy as np

from ..arrays.devices import default_channel_subset, get_device
from ..core.config import DEFAULT_DEFINITION
from ..core.liveness import LIVE_HUMAN, MECHANICAL, LivenessDetector
from ..core.pipeline import HeadTalkPipeline
from ..core.preprocessing import preprocess
from ..datasets import TINY
from ..datasets.collection import CollectionSpec, collect
from ..experiments.common import default_dataset, fit_detector
from ..obs.bench import BenchReport
from .config import ServingConfig
from .gateway import ServingGateway
from .replay import close_session, open_session, stream_utterance


def build_pipeline(seed: int = 0) -> HeadTalkPipeline:
    """TINY-scale trained gate (the benchmark suite's setup recipe)."""
    detector = fit_detector(default_dataset(TINY, seed), DEFAULT_DEFINITION)
    device = get_device("D2")
    array = device.subset(default_channel_subset(device))
    liveness = LivenessDetector(epochs=1, random_state=seed)
    captures = build_captures(seed + 1)
    waveforms = [preprocess(c).reference for c in captures[:4]]
    labels = np.asarray([LIVE_HUMAN, MECHANICAL, LIVE_HUMAN, MECHANICAL])
    liveness.fit(waveforms, labels, array.sample_rate)
    return HeadTalkPipeline(array=array, liveness=liveness, orientation=detector)


def build_captures(seed: int = 1) -> list:
    """Facing/side/back captures at two positions (the soak's traffic)."""
    spec = CollectionSpec(
        room="lab",
        device="D2",
        wake_word="computer",
        locations=((1.0, 0.0), (2.0, 45.0)),
        angles=(0.0, 90.0, 180.0),
        repetitions=1,
    )
    return [capture for _, capture in collect(spec, seed)]


def _json_fingerprint(decision) -> list:
    """A fingerprint as it looks after a JSON round trip over the wire."""
    return json.loads(json.dumps(list(decision.fingerprint())))


class StepClock:
    """Simulated session time: each event lands past the session window.

    Advancing more than ``session_seconds`` per tick means an accepted
    wake's facing-verified session has always expired by the next wake,
    so *every* soak utterance exercises the gate — the soak measures
    decisions, not session reuse (tests cover that).
    """

    def __init__(self, step: float):
        self.step = float(step)
        self.t = 0.0

    def __call__(self) -> float:
        self.t += self.step
        return self.t


async def run_soak(
    pipeline: HeadTalkPipeline,
    captures: list,
    *,
    sessions: int,
    seconds: float,
    chunk_samples: int = 2048,
    config: ServingConfig | None = None,
) -> dict:
    """Drive a gateway with concurrent clients; returns raw soak stats."""
    config = config or ServingConfig()
    expected = [
        _json_fingerprint(pipeline.evaluate(capture, config.check_liveness))
        for capture in captures
    ]
    clock = StepClock(pipeline.config.session_seconds + 1.0)
    gateway = ServingGateway(pipeline, config, clock=clock)
    await gateway.start()
    host, port = gateway.address

    stats = {
        "utterances": 0,
        "early_exits": 0,
        "fingerprint_matches": 0,
        "fingerprint_mismatches": 0,
        "early_flips": 0,
        "dropped_samples": 0,
        "errors": 0,
        "latencies_ms": [],
        "frames_to_decision": [],
        "frames_to_decision_rejected": [],
        "frames_seen": [],
    }
    deadline = time.monotonic() + seconds

    async def device(k: int) -> None:
        reader, writer, hello = await open_session(host, port)
        if "error" in hello:
            stats["errors"] += 1
            writer.close()
            return
        index = k
        try:
            while time.monotonic() < deadline:
                which = index % len(captures)
                index += 1
                try:
                    out = await stream_utterance(
                        reader, writer, captures[which], chunk_samples=chunk_samples
                    )
                except (ConnectionError, OSError):
                    stats["errors"] += 1
                    break
                decision = out["decision"]
                if decision is None:
                    stats["errors"] += 1
                    break
                stats["utterances"] += 1
                stats["latencies_ms"].append(decision["wall_ms"])
                if decision["frames_to_decision"] is not None:
                    stats["frames_to_decision"].append(decision["frames_to_decision"])
                    stats["frames_seen"].append(decision["frames_seen"])
                    if not decision["accepted"]:
                        stats["frames_to_decision_rejected"].append(
                            decision["frames_to_decision"]
                        )
                if decision["early"]:
                    stats["early_exits"] += 1
                    if decision["accepted"]:
                        stats["early_flips"] += 1
                # Per-utterance tail-drop count (the ring resets it at
                # each wake), so summing gives the soak-wide total.
                stats["dropped_samples"] += int(decision.get("dropped_samples") or 0)
                if decision["fingerprint"] == expected[which]:
                    stats["fingerprint_matches"] += 1
                else:
                    stats["fingerprint_mismatches"] += 1
        finally:
            await close_session(writer)

    started = time.perf_counter()
    await asyncio.gather(*(device(k) for k in range(sessions)))
    stats["elapsed_s"] = time.perf_counter() - started
    stats["sessions"] = sessions
    await gateway.stop()
    return stats


def report_from_stats(stats: dict) -> BenchReport:
    """Fold raw soak stats into the gateable benchmark report."""
    report = BenchReport("serving")
    latencies = np.asarray(stats["latencies_ms"], dtype=float)
    ftd = np.asarray(stats["frames_to_decision"], dtype=float)
    rejected = np.asarray(stats["frames_to_decision_rejected"], dtype=float)
    seen = np.asarray(stats["frames_seen"], dtype=float)
    if latencies.size == 0:
        raise RuntimeError("soak produced no decisions; nothing to report")

    report.add_metric("serving.sessions", int(stats["sessions"]), kind="info")
    report.add_metric(
        "serving.utterances",
        int(stats["utterances"]),
        kind="count",
        direction="higher",
        gate=False,
    )
    report.add_metric(
        "serving.utterances_per_sec",
        stats["utterances"] / max(stats["elapsed_s"], 1e-9),
        kind="ratio",
        direction="higher",
        gate=False,
    )
    report.add_metric(
        "serving.p50_decision_ms", float(np.percentile(latencies, 50)), unit="ms", gate=False
    )
    report.add_metric("serving.p95_decision_ms", float(np.percentile(latencies, 95)), unit="ms")
    report.add_metric(
        "serving.p99_decision_ms", float(np.percentile(latencies, 99)), unit="ms", gate=False
    )
    report.add_metric(
        "serving.median_frames_to_decision",
        float(np.median(ftd)) if ftd.size else 0.0,
        kind="count",
        direction="lower",
        gate=False,
    )
    # Accepted utterances cannot early-exit (reject-only early verdicts),
    # so the gated shortening metric is over rejections — the traffic
    # early exit exists for.
    report.add_metric(
        "serving.median_frames_to_rejection",
        float(np.median(rejected)) if rejected.size else 0.0,
        kind="count",
        direction="lower",
    )
    report.add_metric(
        "serving.early_exit_fraction",
        stats["early_exits"] / max(stats["utterances"], 1),
        kind="ratio",
        direction="higher",
        gate=False,
    )
    report.add_metric(
        "serving.streaming_equals_batch",
        stats["fingerprint_mismatches"] == 0 and stats["fingerprint_matches"] > 0,
        kind="equivalence",
    )
    report.add_metric("serving.early_never_flips", stats["early_flips"] == 0, kind="equivalence")
    report.add_metric(
        "serving.early_exit_shortens",
        bool(rejected.size) and float(np.median(rejected)) < float(np.median(seen)),
        kind="equivalence",
    )
    report.add_metric(
        "serving.dropped_samples",
        int(stats.get("dropped_samples", 0)),
        kind="count",
        direction="lower",
        gate=False,
    )
    report.add_metric(
        "serving.errors", int(stats["errors"]), kind="count", direction="lower", gate=False
    )
    return report


def soak_problems(stats: dict) -> list[str]:
    """Hard-failure conditions a CI soak must exit nonzero on.

    Equivalence breaks (fingerprint mismatch, an early verdict flipping)
    and ring overflow (any sample tail-dropped means a decision was made
    on truncated audio) are correctness failures, not regressions — no
    tolerance applies.
    """
    problems = []
    if stats.get("fingerprint_mismatches", 0):
        problems.append(f"{stats['fingerprint_mismatches']} fingerprint mismatch(es)")
    if not stats.get("fingerprint_matches", 0):
        problems.append("no fingerprint matches (nothing verified)")
    if stats.get("early_flips", 0):
        problems.append(f"{stats['early_flips']} early verdict flip(s)")
    if stats.get("dropped_samples", 0):
        problems.append(f"{stats['dropped_samples']} tail-dropped sample(s) (ring overflow)")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--chunk", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_serving.json")
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also write the printed summary (plus problems/ok) as JSON for CI",
    )
    parser.add_argument(
        "--check-liveness",
        action="store_true",
        help="run the liveness stage too (off by default: the soak's "
        "1-epoch TINY liveness model is a smoke model, not a gate)",
    )
    args = parser.parse_args(argv)

    pipeline = build_pipeline(args.seed)
    captures = build_captures(args.seed + 1)
    config = ServingConfig(
        check_liveness=args.check_liveness,
        max_sessions=max(args.sessions, ServingConfig().max_sessions),
    )
    stats = run_soak_sync(
        pipeline,
        captures,
        sessions=args.sessions,
        seconds=args.seconds,
        chunk_samples=args.chunk,
        config=config,
    )
    report = report_from_stats(stats)
    report.write(args.out)
    summary = {
        name: report.metrics[name]["value"]
        for name in (
            "serving.utterances",
            "serving.utterances_per_sec",
            "serving.p50_decision_ms",
            "serving.p95_decision_ms",
            "serving.p99_decision_ms",
            "serving.median_frames_to_decision",
            "serving.median_frames_to_rejection",
            "serving.early_exit_fraction",
            "serving.dropped_samples",
            "serving.streaming_equals_batch",
            "serving.early_never_flips",
        )
    }
    problems = soak_problems(stats)
    summary["problems"] = problems
    summary["ok"] = not problems
    print(json.dumps(summary, indent=2))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if problems:
        for problem in problems:
            print(f"SOAK FAILURE: {problem}", file=sys.stderr)
        return 1
    return 0


def run_soak_sync(pipeline, captures, **kwargs) -> dict:
    """`run_soak` for synchronous callers (the CLI, pytest helpers)."""
    return asyncio.run(run_soak(pipeline, captures, **kwargs))


if __name__ == "__main__":
    sys.exit(main())

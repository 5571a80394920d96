"""Run one ladder workload, or compare two directories of runs.

A run trains the workload's gate once, then sets up :data:`SETUP_REPS`
times from cold render caches (render the bank, compute each capture's
batch ``evaluate`` fingerprint, fork the gateway and warm it up) and
measures on the last set-up, in whole decks.  ``setup_s`` is the time
from process start to the end of training plus the median of those
set-ups.  End-to-end times and rates are reported in reference seconds
(:mod:`.reference`), the ones as measured go to the report as ``raw.*``.

A plain run prints every end-to-end metric of ``BENCHMARK.json``.  A
``--trace 1`` run measures the same inputs twice, untraced then traced,
for half the time each, and prints every per-layer metric instead.
Both write a ``repro.obs.bench/1`` report; the last line of standard
output is the JSON summary ``{"correct", "attempted", "failed",
"metrics"}``.  Any failed utterance makes the run exit 1.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import beta

from repro.obs.audit import configure_audit
from repro.obs.bench import BenchReport, env_fingerprint, validate
from repro.obs.control import observed, set_obs_enabled
from repro.runtime.cache import cache_counts, clear_caches
from repro.serving import ServingConfig

from . import THREAD_CAPS
from .reference import SETUP_UNITS, Reference, slowdown
from .serve import Client, GatewayChild, Outcome, cpu_sample
from .trace import FIELDS, Tracer, layer_metrics, layer_table
from .workloads import WORKLOADS, Workload

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LADDER_DIR))
SETUP_REPS = 3
CONNECTIONS = 2
"""Load-generator connections: one per core of the 2-core box, so load
never needs more threads or sockets than there are cores."""
WARMUP_PER_CONNECTION = 2
PHASE_TIMEOUT_S = 60.0

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


@dataclass
class Phase:
    """One measured stretch of traffic, a whole number of decks long.

    ``cpu_samples`` are ``(wall clock, CPU seconds)`` pairs and
    ``reference`` the reference units (:mod:`.reference`) of the deciding
    process (the gateway child, or the offline process itself) that
    cover the phase; a traced phase also carries its spans and the
    gateway's loop-lag samples (ms).
    """

    outcomes: list[Outcome]
    start: float
    end: float
    cpu_samples: list = field(default_factory=list)
    reference: list = field(default_factory=list)
    spans: list | None = None
    loop_lag_ms: list | None = None

    def cpu_at(self, t):
        times, cpu = zip(*self.cpu_samples)
        return np.interp(t, times, cpu)

    @property
    def cpu_s(self) -> float:
        return float(self.cpu_at(self.end) - self.cpu_at(self.start))

    def slowdown(self, fallback: list) -> tuple[float, float]:
        """:func:`.reference.slowdown` over the units taken during this
        phase (over ``fallback`` if none were)."""
        inside = [unit for unit in self.reference if self.start <= unit[0] <= self.end]
        return slowdown(inside or fallback)

    def window_rates(self, window: int) -> tuple[list[float], list[float]]:
        """Verdicts per second and per CPU-second over sliding windows.

        Each window runs from one completion instant (or the phase start)
        to the first instant at least ``window`` verdicts later; a
        window's rate is verdicts over its wall (CPU) time.  Medians over
        windows shrug off the host's short stalls, which a whole-phase
        ratio charges in full.
        """
        done = [o.done for o in self.outcomes if o.failure is None]
        if not done:
            return [0.0], [0.0]
        instants, counts = np.unique(done, return_counts=True)
        times = np.concatenate([[self.start], instants])
        verdicts = np.concatenate([[0], np.cumsum(counts)])
        cpu = self.cpu_at(times)
        size = min(window, int(verdicts[-1]))
        stops = np.searchsorted(verdicts, verdicts + size)
        starts = np.nonzero(stops < len(times))[0]
        stops = stops[starts]
        count = verdicts[stops] - verdicts[starts]
        per_s = count / (times[stops] - times[starts])
        per_core_s = count / (cpu[stops] - cpu[starts])
        return list(per_s), list(per_core_s)

    def end_to_end(self, window: int) -> dict:
        """Throughputs (window medians) and wake-to-verdict percentiles."""
        latencies = [
            math.inf if o.failure else (o.done - o.due) * 1000.0 for o in self.outcomes
        ]
        per_s, per_core_s = self.window_rates(window)
        return {
            "utt_per_s": statistics.median(per_s),
            "utt_per_core_s": statistics.median(per_core_s),
            "wake_to_verdict_ms_p50": percentile(latencies, 50),
            "wake_to_verdict_ms_p90": percentile(latencies, 90),
        }


def in_reference_time(values: dict, slow: float) -> dict:
    """End-to-end ``values`` with times divided and rates multiplied by ``slow``."""
    units = {entry["name"]: entry["unit"] for entry in BENCHMARK["end_to_end"]}
    return {
        name: value * slow if units[name].endswith("/s") else value / slow
        for name, value in values.items()
    }


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile; +inf if any sample is.

    A Beta-weighted average of all order statistics.  A single order
    statistic jumps whenever the percentile sits between two clusters
    of per-capture costs (the soak's early-exit and full-length
    utterances), and small changes in which utterances overlapped decide
    which side it lands on; the weighted average moves smoothly.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    if not ordered.size or np.isinf(ordered[-1]):
        return math.inf
    n, p = ordered.size, q / 100.0
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1 - p) * (n + 1)))
    return float(weights @ ordered)


def fingerprint(decision) -> list:
    """A decision fingerprint as it looks after a JSON round trip."""
    return json.loads(json.dumps(list(decision.fingerprint())))


def expected_fingerprints(pipeline, bank: dict, check_liveness: bool) -> dict:
    """Each bank capture's batch ``evaluate`` fingerprint: the reference verdicts."""
    return {key: fingerprint(pipeline.evaluate(c, check_liveness)) for key, c in bank.items()}


def git_sha() -> str | None:
    """HEAD of the checkout this runs from, when it is a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class SetupClock:
    """Per-set-up stage times; reports each stage's median over set-ups.

    ``reference`` holds the reference units taken before each set-up,
    outside its timed stages.
    """

    def __init__(self) -> None:
        self.stages: dict[str, list[float]] = {}
        self.cache_hit_frac = 0.0
        self.reference = Reference()

    def add(self, stage: str, seconds: float) -> None:
        self.stages.setdefault(stage, []).append(seconds)

    def timed(self, stage: str, started: float) -> float:
        """Record ``stage`` as ending now; returns now."""
        now = time.perf_counter()
        self.add(stage, now - started)
        return now

    def median(self, stage: str) -> float:
        return statistics.median(self.stages[stage])

    def note_render_cache(self) -> None:
        counts = cache_counts()
        hits = sum(counts[name]["hits"] for name in ("rir", "dry"))
        misses = sum(counts[name]["misses"] for name in ("rir", "dry"))
        self.cache_hit_frac = hits / (hits + misses) if hits + misses else 0.0


def _prepare(workload: Workload, pipeline, seed: int, clock: SetupClock):
    """One cold render of the seed's bank plus its reference verdicts."""
    clock.reference.sample(SETUP_UNITS)
    clear_caches()
    started = time.perf_counter()
    bank = workload.bank(seed)
    clock.note_render_cache()
    started = clock.timed("render", started)
    expected = expected_fingerprints(pipeline, bank, workload.check_liveness)
    clock.timed("expected", started)
    return bank, expected


async def _drive(child, workload, bank, expected, seed, phase_seconds, traced_phases):
    """Warm the gateway up, then run the measured phases (if any)."""
    client = Client(bank, expected, workload.chunk_samples)
    await client.connect(child.port, CONNECTIONS)
    try:
        await client.warm_up(workload.utterances(seed, bank), WARMUP_PER_CONNECTION)
        ready = time.perf_counter()
        phases = []
        for traced in traced_phases:
            if traced:
                child.start_trace()
            items = workload.utterances(seed, bank)
            deck = workload.deck(bank)
            phases.append(Phase(*await client.closed_loop(items, phase_seconds, deck)))
        return ready, phases
    finally:
        await client.close()


def _serving(workload, pipeline, seed, phase_seconds, traced_phases, clock):
    config = ServingConfig(check_liveness=workload.check_liveness)
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        bank, expected = _prepare(workload, pipeline, seed, clock)
        started = time.perf_counter()
        child = GatewayChild(pipeline, config)
        try:
            ready, phases = asyncio.run(
                asyncio.wait_for(
                    _drive(
                        child,
                        workload,
                        bank,
                        expected,
                        seed,
                        phase_seconds,
                        traced_phases if last else (),
                    ),
                    len(traced_phases) * phase_seconds + PHASE_TIMEOUT_S,
                )
            )
            payload = child.stop()
        finally:
            child.close()
        clock.add("warmup", ready - started)
    for phase in phases:
        phase.cpu_samples = payload["cpu_samples"]
        phase.reference = payload["reference"]
    if traced_phases[-1]:
        phases[-1].spans = payload["spans"]
        phases[-1].loop_lag_ms = payload["lags"]
    return bank, expected, phases


def _batch_phase(workload, pipeline, bank, expected, seed, seconds) -> Phase:
    """``evaluate_batch`` calls of ``workload.batch`` captures, in whole decks.

    Each capture's verdict is due when its call starts and done when
    the call returns.  Reference units run between calls.
    """
    items = workload.utterances(seed, bank)
    deck = workload.deck(bank)
    reference = Reference()
    outcomes = []
    samples = [cpu_sample()]
    start = samples[0][0]
    sent = 0
    while sent % deck or samples[-1][0] - start < seconds:
        reference.tick()
        keys = [next(items)[0] for _ in range(workload.batch)]
        samples.append(cpu_sample())
        due = samples[-1][0]
        decisions = pipeline.evaluate_batch([bank[key] for key in keys], workload.check_liveness)
        samples.append(cpu_sample())
        done = samples[-1][0]
        for key, decision in zip(keys, decisions.decisions):
            failure = None if fingerprint(decision) == expected[key] else "fingerprint"
            outcomes.append(Outcome(due, done, failure))
        sent += workload.batch
    return Phase(outcomes, start, samples[-1][0], samples, reference.samples)


def _offline(workload, pipeline, seed, phase_seconds, traced_phases, clock):
    for _ in range(SETUP_REPS):
        bank, expected = _prepare(workload, pipeline, seed, clock)
        started = time.perf_counter()
        keys = sorted(bank)
        for k in range(0, len(keys), workload.batch):
            batch = [bank[key] for key in keys[k : k + workload.batch]]
            pipeline.evaluate_batch(batch, workload.check_liveness)
        clock.timed("warmup", started)
    phases = []
    for traced in traced_phases:
        tracer = Tracer().install() if traced else None
        try:
            phase = _batch_phase(workload, pipeline, bank, expected, seed, phase_seconds)
        finally:
            spans = tracer.uninstall() if tracer is not None else None
        phase.spans = spans
        phases.append(phase)
    return bank, expected, phases


def obs_overhead_pct(pipeline, bank: dict, check_liveness: bool) -> float:
    """``evaluate`` over the bank with telemetry on vs off, in percent."""
    captures = list(bank.values())

    def one_pass(enabled: bool) -> float:
        with observed(enabled):
            start = time.perf_counter()
            for capture in captures:
                pipeline.evaluate(capture, check_liveness)
            return time.perf_counter() - start

    passes = max(3, math.ceil(0.5 / one_pass(False)))
    off, on = [], []
    for _ in range(passes):
        off.append(one_pass(False))
        on.append(one_pass(True))
    return (statistics.median(on) / statistics.median(off) - 1.0) * 100.0


def city_quality(workload: Workload, bank: dict, expected: dict) -> dict:
    """FAR/FRR (%) of the city stream's mix, from the reference verdicts."""
    counts = {"fp": 0.0, "neg": 0.0, "fn": 0.0, "pos": 0.0}
    for keys, per_deck in workload.sources(bank):
        for key in keys:
            share = per_deck / len(keys)
            accepted = expected[key][0]
            if workload.item(key)[1]:
                counts["pos"] += share
                counts["fn"] += share * (not accepted)
            else:
                counts["neg"] += share
                counts["fp"] += share * accepted
    return {
        "quality.far_pct": 100.0 * counts["fp"] / max(counts["neg"], 1e-9),
        "quality.frr_pct": 100.0 * counts["fn"] / max(counts["pos"], 1e-9),
    }


def _kind(unit: str) -> str:
    if unit in ("s", "ms", "us", "ms/utt"):
        return "wall_clock"
    if unit == "calls/utt":
        return "count"
    return "ratio"


def run(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    out: str,
    started: float | None = None,
) -> tuple[dict, int]:
    """Run one workload; returns the printed summary and the exit code."""
    started = time.perf_counter() if started is None else started
    set_obs_enabled(False)
    configure_audit(path=None)
    pipeline = workload.train()
    train_s = time.perf_counter() - started

    clock = SetupClock()
    traced_phases = (False, True) if trace else (False,)
    phase_seconds = seconds / len(traced_phases)
    measure = _offline if workload.loop == "offline" else _serving
    bank, expected, phases = measure(workload, pipeline, seed, phase_seconds, traced_phases, clock)
    setup = {stage: clock.median(stage) for stage in ("render", "expected", "warmup")}

    window = workload.deck(bank)
    raw = {"setup_s": train_s + sum(setup.values()), **phases[0].end_to_end(window)}
    calib_setup_ms, setup_slow = slowdown(clock.reference.samples)
    calib_ms, slow = phases[0].slowdown(clock.reference.samples)
    values = {**in_reference_time(raw, slow), "setup_s": raw["setup_s"] / setup_slow}
    outcomes = [o for phase in phases for o in phase.outcomes]
    failures = [o.failure for o in outcomes if o.failure]
    info = {
        "attempted": len(outcomes),
        "succeeded": len(outcomes) - len(failures),
        "failed": len(failures),
        "failed_frac": len(failures) / len(outcomes) if outcomes else 1.0,
        "early_exit_frac": sum(o.early for o in outcomes) / max(len(outcomes), 1),
        "calib_ms": calib_ms,
        "calib_setup_ms": calib_setup_ms,
        **{f"raw.{name}": value for name, value in raw.items()},
    }
    if workload.mix is not None:
        info.update(city_quality(workload, bank, expected))

    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    if trace:
        traced = phases[-1]
        values.update(
            layer_metrics(
                traced.spans,
                len(traced.outcomes),
                gateway_cpu_s=None if workload.loop == "offline" else traced.cpu_s,
                early_exits=sum(o.early for o in traced.outcomes),
            )
        )
        values.update(
            {
                "setup.train_s": train_s,
                "setup.render_s": setup["render"],
                "setup.expected_s": setup["expected"],
                "setup.warmup_s": setup["warmup"],
                "setup.render_cache_hit_frac": clock.cache_hit_frac,
                "obs.overhead_pct": obs_overhead_pct(pipeline, bank, workload.check_liveness),
                "trace.overhead_pct": (
                    values["utt_per_core_s"]
                    / traced.end_to_end(window)["utt_per_core_s"]
                    / traced.slowdown(clock.reference.samples)[1]
                    - 1.0
                )
                * 100.0,
            }
        )
        if traced.loop_lag_ms:
            info["serving.loop_lag_ms_p95"] = percentile(traced.loop_lag_ms, 95)
        _write_trace(out, workload.name, seed, traced)

    _write_report(out, workload, seed, seconds, trace, values, info, failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return summary, 0 if summary["correct"] else 1


def _write_trace(out: str, workload: str, seed: int, phase: Phase) -> None:
    os.makedirs(out, exist_ok=True)
    document = {
        "workload": workload,
        "seed": seed,
        "utterances": len(phase.outcomes),
        "layers": layer_table(phase.spans),
        "fields": list(FIELDS),
        "spans": phase.spans,
    }
    with open(os.path.join(out, f"trace_{workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _write_report(out, workload, seed, seconds, trace, values, info, failures) -> str:
    env = env_fingerprint()
    env.update(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        setup_reps=SETUP_REPS,
        connections=0 if workload.loop == "offline" else CONNECTIONS,
        thread_caps={name: os.environ.get(name) for name in THREAD_CAPS},
        nproc=len(os.sched_getaffinity(0)),
        git_sha=git_sha(),
        failures=sorted(set(failures)),
    )
    report = BenchReport(f"ladder-{workload.name}", env=env)
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        if entry["name"] in values:
            report.add_metric(
                entry["name"],
                values[entry["name"]],
                kind=_kind(entry["unit"]),
                unit=entry["unit"],
                direction=entry["better"],
                gate="bound" in entry,
            )
    for name, value in info.items():
        report.add_metric(name, value, kind="info")
    report.add_metric("ladder.correct", not failures, kind="equivalence")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{workload.name}-seed{seed}{'-trace' if trace else ''}.json")
    report.write(path)
    return path


def _finite(value: float):
    return value if math.isfinite(value) else None


def _print_summary(summary: dict) -> None:
    for name, metric in summary["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    for metric in summary["metrics"].values():
        metric["value"] = _finite(metric["value"])
    print(json.dumps(summary, allow_nan=False), flush=True)


# --- compare -------------------------------------------------------------


def _load_runs(directory: str) -> dict:
    """Untraced reports in ``directory``, grouped by workload."""
    runs: dict[str, list] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("schema") is None:
            continue  # a trace file
        problems = validate(document)
        if problems:
            raise ValueError(f"{path}: " + "; ".join(problems))
        if not document["env"].get("trace"):
            runs.setdefault(document["env"]["workload"], []).append(document)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``ok``, ``regressed``, or ``unresolved`` when the IQR is wider than the bound.

    A spread wider than the bound still resolves when every run of
    ``b`` reads better than every run of ``a``.
    """
    qa, qb = _quartiles(a), _quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(dir_a: str, dir_b: str) -> int:
    """Print medians, quartiles and verdicts per workload x metric."""
    runs_a, runs_b = _load_runs(dir_a), _load_runs(dir_b)
    bad = 0
    row = "{:14s} {:24s} {:>30s} {:>30s} {:>8s}  {}"
    headers = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
    print(row.format(*headers))
    for workload in sorted(set(runs_a) & set(runs_b)):
        for entry in BENCHMARK["end_to_end"]:
            name = entry["name"]
            a = [r["metrics"][name]["value"] for r in runs_a[workload]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]]
            result = verdict(a, b, entry["better"], entry["bound"])
            bad += result != "ok"
            qa, qb = _quartiles(a), _quartiles(b)
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
            change = f"{(qb[1] - qa[1]) / qa[1] * 100.0:+.1f}%"
            print(row.format(workload, name, *cells, change, result))
        # Quality numbers are deterministic: both sides must read the same.
        names = {n for r in runs_a[workload] for n in r["metrics"] if n.startswith("quality.")}
        for name in sorted(names):
            a = {r["metrics"][name]["value"] for r in runs_a[workload]}
            b = {r["metrics"][name]["value"] for r in runs_b[workload]}
            bad += a != b
            outcome = "identical" if a == b else f"DIFFERS: {sorted(a)} vs {sorted(b)}"
            print(f"{workload:14s} {name:24s} {outcome}")
    missing = sorted(set(runs_a) ^ set(runs_b))
    if missing:
        print("workloads on one side only: " + ", ".join(missing))
    return 1 if bad else 0


def main(argv: list[str] | None = None, started: float | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ladder")
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser("run", help="run one workload for one seed")
    run_cmd.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    run_cmd.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run_cmd.add_argument("--out", default=os.path.join(LADDER_DIR, "out"))
    compare_cmd = commands.add_parser("compare", help="compare two directories of runs")
    compare_cmd.add_argument("dir_a")
    compare_cmd.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args.dir_a, args.dir_b)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    summary, code = run(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        out=args.out,
        started=started,
    )
    _print_summary(summary)
    return code

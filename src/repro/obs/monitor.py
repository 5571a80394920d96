"""Online decision-quality monitoring: sliced FAR/FRR, drift, replay.

The runtime observability built so far watches *speed*; this module
watches *correctness*.  A process-global :class:`DecisionMonitor`
consumes every gate verdict the pipeline emits (the same record dict
that lands in the audit log) and maintains three views:

- **Sliced quality counters** — a :class:`StreamingConfusion` per slice
  label (angle/distance/SNR bucket, device, pipeline stage) updated
  whenever a ground-truth label rides along with the decision
  (experiments, dataset replays, scripted controller sessions).  FAR /
  FRR semantics match :mod:`repro.ml.metrics` exactly: an empty class
  yields 0.0, never NaN.
- **Score-stream drift detectors** — per score stream
  (``facing_probability``, the Platt-scaled orientation-SVM margin, and
  ``liveness_score``) a reference sample frozen at calibration time is
  compared against a rolling window via PSI over the reference
  histogram and a two-sample KS statistic, while a two-sided
  Page–Hinkley detector watches for mean shifts.  Threshold crossings
  raise typed :class:`DriftAlarm` records into the metrics registry and
  the audit log.
- **Calibration monitoring** — a rolling window of
  ``(facing_probability, truth)`` pairs scored with
  :func:`repro.ml.calibration.expected_calibration_error`.

The serving plane's operational SLOs live in :mod:`repro.obs.slo`.

Everything is gated behind ``obs_enabled()``: with observability off
the hot path pays one function call and a global read, nothing more.

Because the monitor consumes the *audit record itself*, the offline
replay CLI reconstructs bit-identical monitor state from a JSONL audit
log::

    python -m repro.obs.monitor replay benchmarks/results/audit_tests.jsonl \
        --name gate --out benchmarks/results
    python -m repro.obs.monitor compare benchmarks/baselines/QUALITY_gate.json \
        benchmarks/results/QUALITY_gate.json --max-regress 10

``replay`` writes a schema-versioned ``QUALITY_<name>.json`` report
(``repro.obs.monitor/1``) next to the ``BENCH_*.json`` family;
``compare`` gates FAR/FRR/ECE against a committed baseline with a
tolerance in percentage points (exit 1 on regression, 2 on a bad
report or negative tolerance) through the bench gate's comparator.

Window sizes, detector tuning and slice-bucket edges are module
constants; the PSI alert level is the one :class:`MonitorConfig` field,
and :func:`reset_monitor` installs a config on the process-global
monitor.

Module imports stay stdlib-only like the rest of :mod:`repro.obs`;
numpy enters only lazily through :mod:`repro.ml.calibration` when an
ECE is actually computed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import threading
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .audit import audit_record
from .bench import (
    Comparison,
    compare_rows,
    env_fingerprint,
    format_comparison,
    header_problems,
    load_document,
    tolerance,
    write_document,
)
from .control import obs_enabled
from .control import warn_once as _warn_once
from .metrics import counter_inc, gauge_set

SCHEMA = "repro.obs.monitor/1"

DEFAULT_QUALITY_DIR = "benchmarks/results"

# Audit-record reason strings (mirrors repro.core.pipeline constants;
# duplicated here because obs must not import core — core imports obs).
_REASON_ACCEPT = "accepted"
_REASON_NO_SPEECH = "no-speech"
_REASON_MECHANICAL = "mechanical-source"
_REASON_NON_FACING = "non-facing"
_REASON_DEGRADED = "degraded-input"

_STAGE_OF_REASON = {
    _REASON_NO_SPEECH: "preprocess",
    _REASON_MECHANICAL: "liveness",
    _REASON_NON_FACING: "orientation",
    _REASON_ACCEPT: "orientation",
    _REASON_DEGRADED: "screening",
}


REFERENCE_SIZE = 200
"""Scores frozen as a stream's calibration-time reference sample."""

WINDOW = 256
"""Rolling window compared against the reference.  PSI and KS run only
once it is full: small windows bias PSI high (E[PSI] ≈ (bins-1)·(1/n +
1/m) under no drift) and the detectors re-test every overlapping
window, so early small-sample statistics false-alarm on perfectly
stationary streams."""

HISTOGRAM_BINS = 10
"""Quantile bins of the reference histogram PSI compares."""

KS_COEFFICIENT = 1.95
"""Scale ``c`` of the two-sample KS critical value ``c * sqrt((n + m) /
(n * m))``: ~α = 0.001 for a single test.  The stream re-tests every
observation on overlapping windows, so the looser textbook 1.36
(α = 0.05) fires spuriously on stationary streams."""

PH_DELTA_SIGMA = 0.25
"""Page–Hinkley tolerance, in reference standard deviations.  The
anchor is the reference-sample mean, which itself carries a standard
error of σ/sqrt(REFERENCE_SIZE) ≈ 0.07σ; the tolerance must dominate
that estimation error or an unlucky reference drifts the detector into
a false alarm on a perfectly stationary stream."""

PH_LAMBDA_SIGMA = 50.0
"""Page–Hinkley alarm threshold, in reference standard deviations."""

CALIBRATION_WINDOW = 512
"""``(facing_probability, truth)`` pairs in the rolling ECE window."""

CALIBRATION_BINS = 10
"""Reliability bins of the rolling ECE."""

ANGLE_EDGES = (45.0, 90.0, 135.0)
"""Slice-bucket edges of ``|angle|``, in degrees."""

DISTANCE_EDGES = (2.0, 4.0)
"""Slice-bucket edges of the speaker distance, in metres."""

SNR_EDGES = (5.0, 15.0)
"""Slice-bucket edges of source loudness over ambient level, in dB."""


@dataclass(frozen=True)
class MonitorConfig:
    """The decision-quality monitor's alert level.

    ``psi_threshold`` is the one drift tunable callers set: the traffic
    drive alerts at 0.40 on its six-mode score mixture
    (:mod:`repro.traffic.drive`).  Everything else is a module constant.
    """

    # A full stationary window already carries E[PSI] ≈ 0.08 of pure
    # sampling noise at these sizes, and the monitor re-tests every
    # overlapping window, so the alert level sits at the industry
    # "major shift" 0.25 rather than the single-test 0.2.
    psi_threshold: float = 0.25


def _fmt_edge(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)


def bucket_label(value: float, edges) -> str:
    """Half-open bucket label for ``value`` against sorted ``edges``.

    ``edges=(45, 90)`` yields ``"<45"``, ``"45-90"`` and ``">=90"``.
    """
    edges = tuple(edges)
    index = bisect_right(edges, value)
    if index == 0:
        return f"<{_fmt_edge(edges[0])}"
    if index == len(edges):
        return f">={_fmt_edge(edges[-1])}"
    return f"{_fmt_edge(edges[index - 1])}-{_fmt_edge(edges[index])}"


def slices_from_meta(meta, ambient_db_spl=None) -> dict:
    """Slice labels for one capture's scene metadata.

    Accepts an :class:`~repro.datasets.store.UtteranceMeta` (or any
    object/dict with ``angle_deg``/``distance_m``/``device``/
    ``loudness_db`` fields).  The SNR bucket needs the ambient level —
    ``UtteranceMeta`` carries source loudness only — so it appears only
    when ``ambient_db_spl`` is supplied.
    """
    if isinstance(meta, dict):
        get = meta.get
    else:

        def get(name, default=None):
            return getattr(meta, name, default)

    slices: dict[str, str] = {}
    angle = get("angle_deg")
    if angle is not None:
        slices["angle"] = bucket_label(abs(float(angle)), ANGLE_EDGES)
    distance = get("distance_m")
    if distance is not None:
        slices["distance"] = bucket_label(float(distance), DISTANCE_EDGES)
    device = get("device")
    if device is not None:
        slices["device"] = str(device)
    loudness = get("loudness_db")
    if ambient_db_spl is not None and loudness is not None:
        slices["snr"] = bucket_label(float(loudness) - float(ambient_db_spl), SNR_EDGES)
    return slices


class StreamingConfusion:
    """Streaming binary confusion with :mod:`repro.ml.metrics` semantics.

    FAR = fp / (fp + tn) and FRR = fn / (fn + tp); an empty class
    contributes 0.0 (matching ``false_acceptance_rate`` /
    ``false_rejection_rate`` exactly so replayed reports agree with
    offline recomputation bit-for-bit).
    """

    __slots__ = ("tp", "fp", "tn", "fn")

    def __init__(self) -> None:
        self.tp = self.fp = self.tn = self.fn = 0

    def update(self, truth: bool, accepted: bool) -> None:
        if truth:
            if accepted:
                self.tp += 1
            else:
                self.fn += 1
        else:
            if accepted:
                self.fp += 1
            else:
                self.tn += 1

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def far(self) -> float:
        negatives = self.fp + self.tn
        return self.fp / negatives if negatives else 0.0

    @property
    def frr(self) -> float:
        positives = self.fn + self.tp
        return self.fn / positives if positives else 0.0

    def snapshot(self) -> dict:
        n = self.n
        accepted = self.tp + self.fp
        return {
            "n": n,
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "far": self.far,
            "frr": self.frr,
            "accuracy": (self.tp + self.tn) / n if n else 0.0,
            "acceptance_rate": accepted / n if n else 0.0,
        }


def population_stability_index(reference_fractions, current_fractions, floor: float = 1e-4):
    """PSI between two binned fraction vectors (zero bins floored)."""
    psi = 0.0
    for ref, cur in zip(reference_fractions, current_fractions):
        ref = max(ref, floor)
        cur = max(cur, floor)
        psi += (cur - ref) * math.log(cur / ref)
    return psi


def ks_statistic(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov–Smirnov statistic (max ECDF gap)."""
    a = sorted(sample_a)
    b = sorted(sample_b)
    if not a or not b:
        return 0.0
    i = j = 0
    gap = 0.0
    # Consume every occurrence of the smaller value from both samples
    # before measuring the ECDF gap: ties must move both curves at once
    # (identical samples have KS 0, not 1/n).
    while i < len(a) and j < len(b):
        value = a[i] if a[i] <= b[j] else b[j]
        while i < len(a) and a[i] == value:
            i += 1
        while j < len(b) and b[j] == value:
            j += 1
        gap = max(gap, abs(i / len(a) - j / len(b)))
    return gap


class PageHinkley:
    """Two-sided Page–Hinkley mean-shift detector.

    Accumulates deviations of each observation from the fixed anchor
    ``mean`` (here: the frozen calibration-time reference mean — the
    level the stream is *supposed* to hold) with a tolerance ``delta``;
    an excursion of the cumulative sum more than ``lamb`` beyond its
    historical extremum signals a sustained mean shift.  Anchoring at
    the reference (instead of the classic running mean) keeps a slow
    persistent shift from being absorbed into the detector's own
    baseline.  State resets after an alarm so a persisting shift
    re-arms instead of alarming on every subsequent observation.
    """

    __slots__ = ("delta", "lamb", "mean", "count", "_up", "_up_min", "_down", "_down_max")

    def __init__(self, delta: float, lamb: float, mean: float = 0.0) -> None:
        self.delta = delta
        self.lamb = lamb
        self.mean = mean
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self._up = 0.0
        self._up_min = 0.0
        self._down = 0.0
        self._down_max = 0.0

    @property
    def statistic(self) -> float:
        """Current worst-side excursion (compare against ``lamb``)."""
        return max(self._up - self._up_min, self._down_max - self._down)

    def update(self, value: float) -> str | None:
        """Feed one observation; returns the shift direction on alarm."""
        self.count += 1
        self._up += value - self.mean - self.delta
        self._up_min = min(self._up_min, self._up)
        self._down += value - self.mean + self.delta
        self._down_max = max(self._down_max, self._down)
        if self._up - self._up_min > self.lamb:
            self.reset()
            return "up"
        if self._down_max - self._down > self.lamb:
            self.reset()
            return "down"
        return None


@dataclass(frozen=True)
class DriftAlarm:
    """One drift-detector threshold crossing on one score stream."""

    stream: str
    detector: str  # "psi" | "ks" | "page-hinkley"
    statistic: float
    threshold: float
    count: int  # stream observations consumed when the alarm fired
    direction: str = "distribution"  # or "up" / "down" for mean shifts

    def as_dict(self) -> dict:
        return {
            "stream": self.stream,
            "detector": self.detector,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "count": self.count,
            "direction": self.direction,
        }


class ScoreStream:
    """Drift detection for one score stream (reference vs rolling window)."""

    def __init__(self, name: str, config: MonitorConfig) -> None:
        self.name = name
        self.config = config
        self.count = 0
        self.reference: list[float] = []
        self.frozen = False
        self.window: deque = deque(maxlen=WINDOW)
        self.alarms: list[DriftAlarm] = []
        self._ref_sorted: list[float] = []
        self._ref_fractions: list[float] = []
        self._bin_edges: list[float] = []
        self._ref_mean = 0.0
        self._ref_std = 0.0
        self._ph: PageHinkley | None = None
        self._over = {"psi": False, "ks": False}

    def set_reference(self, scores) -> None:
        """Freeze an explicit calibration-time reference sample."""
        self.reference = [float(s) for s in scores]
        self._freeze()

    def _freeze(self) -> None:
        ref = self.reference
        self._ref_sorted = sorted(ref)
        # Quantile (equal-frequency) bins over the reference, the
        # standard PSI construction: equal-width bins leave near-empty
        # tail bins whose sampling fluctuations alone spike the PSI on
        # stationary streams.  Duplicate quantiles (discrete scores)
        # collapse into wider bins.
        bins = HISTOGRAM_BINS
        edges: list[float] = []
        for k in range(1, bins):
            edge = self._ref_sorted[min(round(k * len(ref) / bins), len(ref) - 1)]
            if not edges or edge > edges[-1]:
                edges.append(edge)
        self._bin_edges = edges
        n_bins = len(edges) + 1
        counts = [0] * n_bins
        for score in ref:
            counts[bisect_right(self._bin_edges, score)] += 1
        self._ref_fractions = [c / len(ref) for c in counts]
        self._ref_mean = sum(ref) / len(ref)
        variance = sum((s - self._ref_mean) ** 2 for s in ref) / len(ref)
        self._ref_std = max(math.sqrt(variance), 1e-9)
        self._ph = PageHinkley(
            delta=PH_DELTA_SIGMA * self._ref_std,
            lamb=PH_LAMBDA_SIGMA * self._ref_std,
            mean=self._ref_mean,
        )
        self.frozen = True

    def _window_fractions(self) -> list[float]:
        counts = [0] * (len(self._bin_edges) + 1)
        for score in self.window:
            counts[bisect_right(self._bin_edges, score)] += 1
        return [c / len(self.window) for c in counts]

    def psi(self) -> float | None:
        """PSI of the current window against the reference histogram."""
        if not self.frozen or len(self.window) < WINDOW:
            return None
        return population_stability_index(self._ref_fractions, self._window_fractions())

    def ks(self) -> float | None:
        """Two-sample KS statistic of window vs reference."""
        if not self.frozen or len(self.window) < WINDOW:
            return None
        return ks_statistic(self._ref_sorted, self.window)

    def ks_critical(self) -> float | None:
        """Critical KS value ``c * sqrt((n + m) / (n * m))`` for the window."""
        if not self.frozen or not self.window:
            return None
        n, m = len(self._ref_sorted), len(self.window)
        return KS_COEFFICIENT * math.sqrt((n + m) / (n * m))

    def observe(self, score: float) -> list[DriftAlarm]:
        """Feed one score; returns the alarms this observation raised."""
        self.count += 1
        if not self.frozen:
            self.reference.append(float(score))
            if len(self.reference) >= REFERENCE_SIZE:
                self._freeze()
            return []
        self.window.append(float(score))
        raised: list[DriftAlarm] = []
        direction = self._ph.update(float(score))
        if direction is not None:
            raised.append(
                DriftAlarm(
                    stream=self.name,
                    detector="page-hinkley",
                    statistic=self._ph.lamb,  # excursion at reset == threshold crossing
                    threshold=self._ph.lamb,
                    count=self.count,
                    direction=direction,
                )
            )
        if len(self.window) >= WINDOW:
            psi = self.psi()
            raised.extend(self._edge("psi", psi, self.config.psi_threshold))
            raised.extend(self._edge("ks", self.ks(), self.ks_critical()))
        self.alarms.extend(raised)
        return raised

    def _edge(self, detector: str, statistic, threshold) -> list[DriftAlarm]:
        """Rising-edge alarm: fire on below→above transitions only."""
        over = statistic is not None and threshold is not None and statistic > threshold
        if over and not self._over[detector]:
            self._over[detector] = True
            return [
                DriftAlarm(
                    stream=self.name,
                    detector=detector,
                    statistic=float(statistic),
                    threshold=float(threshold),
                    count=self.count,
                )
            ]
        if not over:
            self._over[detector] = False
        return []

    def snapshot(self) -> dict:
        return {
            "n": self.count,
            "reference_n": len(self.reference) if self.frozen else 0,
            "reference_mean": self._ref_mean if self.frozen else None,
            "reference_std": self._ref_std if self.frozen else None,
            "window_n": len(self.window),
            "psi": self.psi(),
            "ks": self.ks(),
            "ks_critical": self.ks_critical(),
            "page_hinkley": self._ph.statistic if self._ph is not None else None,
            "alarm_count": len(self.alarms),
        }


class RollingCalibration:
    """Rolling reliability window scored via :mod:`repro.ml.calibration`."""

    def __init__(self) -> None:
        self.pairs: deque = deque(maxlen=CALIBRATION_WINDOW)

    def update(self, probability: float, truth: bool) -> None:
        self.pairs.append((float(probability), 1 if truth else 0))

    def snapshot(self) -> dict | None:
        if not self.pairs:
            return None
        # Lazy numpy import: keeps plain monitor consumption stdlib-only.
        from ..ml.calibration import brier_score, expected_calibration_error

        probabilities = [p for p, _ in self.pairs]
        truths = [t for _, t in self.pairs]
        return {
            "n": len(self.pairs),
            "ece": float(
                expected_calibration_error(truths, probabilities, n_bins=CALIBRATION_BINS)
            ),
            "brier": float(brier_score(truths, probabilities)),
        }


def _liveness_ran(record: dict) -> bool:
    return record.get("reason") == _REASON_MECHANICAL or record.get("liveness_ms", 0) > 0


def _orientation_ran(record: dict) -> bool:
    return record.get("reason") in (_REASON_ACCEPT, _REASON_NON_FACING)


class DecisionMonitor:
    """Streaming decision-quality state fed by audit ``decision`` records.

    :meth:`consume` takes the exact dict the pipeline hands to
    :func:`repro.obs.audit.audit_record`, so feeding a persisted JSONL
    log back through :func:`replay` reconstructs identical state.
    """

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = config or MonitorConfig()
        self._lock = threading.Lock()
        self.reset()

    def reset(self, config: MonitorConfig | None = None) -> None:
        """Drop all monitor state (optionally swapping the config)."""
        with self._lock:
            if config is not None:
                self.config = config
            self.decisions = 0
            self.accepted = 0
            self.by_reason: dict[str, int] = {}
            self.overall = StreamingConfusion()
            self.slices: dict[str, StreamingConfusion] = {}
            self.streams = {
                "facing_probability": ScoreStream("facing_probability", self.config),
                "liveness_score": ScoreStream("liveness_score", self.config),
            }
            self.calibration = RollingCalibration()
            self.alarms: list[DriftAlarm] = []

    def set_reference(self, stream: str, scores) -> None:
        """Freeze a calibration-time reference sample for one stream."""
        with self._lock:
            self.streams[stream].set_reference(scores)

    def consume(self, record: dict) -> list[DriftAlarm]:
        """Digest one ``decision`` audit record; returns raised alarms."""
        accepted = bool(record.get("accepted"))
        reason = record.get("reason")
        truth = record.get("truth")
        with self._lock:
            self.decisions += 1
            if accepted:
                self.accepted += 1
            self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
            raised: list[DriftAlarm] = []
            if _liveness_ran(record) and "liveness_score" in record:
                raised += self.streams["liveness_score"].observe(record["liveness_score"])
            if _orientation_ran(record) and "facing_probability" in record:
                raised += self.streams["facing_probability"].observe(record["facing_probability"])
            if truth is not None:
                truth = bool(truth)
                self.overall.update(truth, accepted)
                slices = dict(record.get("slices") or {})
                slices["stage"] = _STAGE_OF_REASON.get(reason, "unknown")
                for axis, label in sorted(slices.items()):
                    key = f"{axis}={label}"
                    confusion = self.slices.get(key)
                    if confusion is None:
                        confusion = self.slices[key] = StreamingConfusion()
                    confusion.update(truth, accepted)
                if _orientation_ran(record) and "facing_probability" in record:
                    self.calibration.update(record["facing_probability"], truth)
            self.alarms.extend(raised)
        # Registry/audit emission outside the lock; both no-op when obs
        # is off (replay works with observability disabled).
        counter_inc("monitor.decisions", reason=str(reason))
        if truth is not None:
            gauge_set("monitor.far", self.overall.far)
            gauge_set("monitor.frr", self.overall.frr)
        for alarm in raised:
            counter_inc("monitor.drift_alarms", stream=alarm.stream, detector=alarm.detector)
            audit_record("drift-alarm", **alarm.as_dict())
        return raised

    def snapshot(self) -> dict:
        """JSON-able state: counts, slices, calibration, drift, alarms."""
        with self._lock:
            return {
                "decisions": self.decisions,
                "accepted": self.accepted,
                "acceptance_rate": self.accepted / self.decisions if self.decisions else 0.0,
                "labelled": self.overall.n,
                "by_reason": dict(sorted(self.by_reason.items(), key=lambda kv: str(kv[0]))),
                "overall": self.overall.snapshot() if self.overall.n else None,
                "slices": {key: c.snapshot() for key, c in sorted(self.slices.items())},
                # The source axis (misactivation-source labels from the
                # traffic generator) is the per-source scoreboard, so it
                # also gets a first-class, label-keyed section.
                "sources": {
                    key.split("=", 1)[1]: confusion.snapshot()
                    for key, confusion in sorted(self.slices.items())
                    if key.startswith("source=")
                },
                "calibration": self.calibration.snapshot(),
                "drift": {name: s.snapshot() for name, s in sorted(self.streams.items())},
                "alarms": [alarm.as_dict() for alarm in self.alarms],
            }


# --------------------------------------------------------------------------
# Process-global monitor (the live pipeline feed)

_MONITOR = DecisionMonitor()


def decision_monitor() -> DecisionMonitor:
    """The process-global monitor instance."""
    return _MONITOR


def monitor_record(record: dict) -> None:
    """Feed one decision audit record to the global monitor (obs on)."""
    if not obs_enabled():
        return
    _MONITOR.consume(record)


def monitor_snapshot() -> dict:
    """Global monitor state, or ``{}`` when nothing was consumed."""
    if _MONITOR.decisions == 0:
        return {}
    return _MONITOR.snapshot()


def reset_monitor(config: MonitorConfig | None = None) -> None:
    """Drop global monitor state (tests / between experiment runs)."""
    _MONITOR.reset(config=config)


# --------------------------------------------------------------------------
# Quality reports


def quality_report(name: str, snapshot: dict | None = None) -> dict:
    """The schema-versioned quality document for a monitor snapshot."""
    if snapshot is None:
        snapshot = _MONITOR.snapshot()
    return {
        "schema": SCHEMA,
        "name": name,
        "created": time.time(),
        "env": env_fingerprint(),
        **snapshot,
    }


def quality_path(name: str, directory=None) -> Path:
    """``QUALITY_<name>.json`` under ``directory`` (default results dir)."""
    base = Path(directory) if directory is not None else Path(DEFAULT_QUALITY_DIR)
    return base / f"QUALITY_{name}.json"


def write_quality_report(name: str, directory=None, snapshot: dict | None = None):
    """Validate and write ``QUALITY_<name>.json``; returns the path."""
    return write_document(
        quality_path(name, directory), quality_report(name, snapshot), validate, "quality report"
    )


def validate(document) -> list[str]:
    """Problems that make ``document`` not a valid v1 quality report."""
    problems = header_problems(document, SCHEMA)
    if not isinstance(document, dict):
        return problems
    if not isinstance(document.get("decisions"), int) or document.get("decisions", -1) < 0:
        problems.append("decisions must be a non-negative integer")
    for section in ("env", "by_reason", "slices", "drift"):
        if not isinstance(document.get(section, {}), dict):
            problems.append(f"{section} must be an object")
    if not isinstance(document.get("alarms", []), list):
        problems.append("alarms must be a list")
    for section in ("overall", "calibration"):
        value = document.get(section)
        if value is not None and not isinstance(value, dict):
            problems.append(f"{section} must be an object or null")
    overall = document.get("overall")
    if isinstance(overall, dict):
        for metric in ("far", "frr"):
            if not isinstance(overall.get(metric), (int, float)):
                problems.append(f"overall.{metric} must be numeric")
    slices = document.get("slices")
    if isinstance(slices, dict):
        for key, entry in slices.items():
            if not isinstance(entry, dict):
                problems.append(f"slices[{key!r}] must be an object")
    sources = document.get("sources", {})
    if not isinstance(sources, dict):
        problems.append("sources must be an object")
    else:
        for label, entry in sources.items():
            if not isinstance(entry, dict):
                problems.append(f"sources[{label!r}] must be an object")
                continue
            for metric in ("far", "frr"):
                if not isinstance(entry.get(metric), (int, float)):
                    problems.append(f"sources.{label}.{metric} must be numeric")
    return problems


# --------------------------------------------------------------------------
# Replay + comparison gate


def replay(path, config: MonitorConfig | None = None) -> DecisionMonitor:
    """Reconstruct monitor state by re-consuming a JSONL audit log.

    Streams the file line by line (city-scale audit logs do not fit in
    memory); only ``decision`` events feed the monitor, everything else
    — gate events, drift alarms from the recording run — is skipped.
    Blank or corrupt lines (a truncated tail from a killed writer, an
    interleaved partial write) are skipped with one ``RuntimeWarning``
    per file rather than aborting the replay: a single bad line must
    not make a day of traffic unreadable.
    """
    monitor = DecisionMonitor(config=config)
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if not isinstance(record, dict):
                skipped += 1
                continue
            if record.get("event") == "decision":
                monitor.consume(record)
    if skipped:
        _warn_once(
            f"replay:{path}",
            f"skipped {skipped} corrupt audit line(s) while replaying {path}",
        )
    return monitor


_GATED_METRICS = ("overall.far", "overall.frr", "calibration.ece")
_INFO_METRICS = ("acceptance_rate", "calibration.brier")


def quality_rows(document: dict) -> dict:
    """A quality report as the gate's ``{name: metric}`` rows.

    Overall and per-source FAR/FRR and ``calibration.ece`` are gated,
    lower is better, where the report holds a number; ``acceptance_rate``
    and ``calibration.brier`` are info rows, present even without one.
    """
    sources = [
        f"sources.{label}.{rate}"
        for label in sorted(document.get("sources") or {})
        for rate in ("far", "frr")
    ]
    rows = {}
    for name in [*_GATED_METRICS, *sources, *_INFO_METRICS]:
        value = document
        for part in name.split("."):
            value = value.get(part) if isinstance(value, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            value = None
        gated = name not in _INFO_METRICS
        if value is not None or not gated:
            kind = "ratio" if gated else "info"
            rows[name] = {"value": value, "kind": kind, "direction": "lower", "gate": gated}
    return rows


def compare(baseline: dict, current: dict, max_regress_points: float = 0.0) -> Comparison:
    """Gate FAR/FRR/ECE of quality report ``current`` against ``baseline``.

    The bound is absolute, in percentage points (10 allows current ≤
    baseline + 0.10, every row being lower-is-better), and holds for a
    zero baseline too.  Per-source rates are gated for each source the
    baseline recorded, so a new traffic label is gated once a baseline
    containing it is committed.
    """
    slack = tolerance(max_regress_points) / 100.0
    return compare_rows(quality_rows(baseline), quality_rows(current), lambda base, _: base + slack)


# --------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.monitor",
        description="Decision-quality monitor: audit-log replay, reports, gates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    replay_cmd = commands.add_parser("replay", help="rebuild monitor state from a JSONL audit log")
    replay_cmd.add_argument("audit", help="path to the audit JSONL file")
    replay_cmd.add_argument("--name", default=None, help="report name (default: audit file stem)")
    replay_cmd.add_argument("--out", default=DEFAULT_QUALITY_DIR, help="report output directory")
    replay_cmd.add_argument(
        "--fail-on-alarms", action="store_true", help="exit 1 if any drift alarm was raised"
    )

    compare_cmd = commands.add_parser("compare", help="gate a quality report against a baseline")
    compare_cmd.add_argument("baseline")
    compare_cmd.add_argument("current")
    compare_cmd.add_argument(
        "--max-regress",
        type=tolerance,
        default=0.0,
        help="allowed FAR/FRR/ECE regression in percentage points, >= 0",
    )

    validate_cmd = commands.add_parser("validate", help="schema-check a quality report")
    validate_cmd.add_argument("report")

    args = parser.parse_args(argv)

    if args.command == "replay":
        try:
            monitor = replay(args.audit)
        except OSError as error:
            print(f"cannot read audit log: {error}")
            return 2
        name = args.name or os.path.splitext(os.path.basename(args.audit))[0]
        snapshot = monitor.snapshot()
        path = write_quality_report(name, directory=args.out, snapshot=snapshot)
        print(
            f"replayed {snapshot['decisions']} decisions "
            f"({snapshot['labelled']} labelled, {len(snapshot['alarms'])} alarms) -> {path}"
        )
        if args.fail_on_alarms and snapshot["alarms"]:
            print("drift alarms present; failing as requested")
            return 1
        return 0

    if args.command == "compare":
        (baseline, problems), (current, more) = (
            load_document(path, validate) for path in (args.baseline, args.current)
        )
        problems += more
        if problems:
            print("cannot gate: " + "; ".join(problems))
            return 2
        comparison = compare(baseline, current, max_regress_points=args.max_regress)
        print(format_comparison(comparison, f"{args.max_regress:g} points"))
        return 0 if comparison.passed else 1

    if args.command == "validate":
        document, problems = load_document(args.report, validate)
        if problems:
            print("\n".join(problems))
            return 2 if document is None else 1
        print("ok")
        return 0

    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":
    raise SystemExit(main())

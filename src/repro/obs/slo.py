"""SLO burn-rate alarms for the serving plane.

A process-global :class:`SloMonitor`, fed one serving decision at a
time (:func:`slo_observe_decision`, a no-op with observability off),
watches p95 decision latency and the fail-closed rate with
multi-window burn-rate alarms; the live sidecar (:mod:`repro.obs.live`)
serves its active alarms on ``/alarms`` and folds them into ``/readyz``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .audit import audit_record
from .control import env_float, obs_enabled
from .metrics import WindowedCounter, counter_inc

# The fail-closed reason string (mirrors repro.core.pipeline's
# REJECT_DEGRADED_INPUT; obs must not import core — core imports obs).
_REASON_DEGRADED = "degraded-input"

DEFAULT_SLO_LATENCY_MS = 1000.0
"""Default p95 decision-latency SLO threshold (``REPRO_LIVE_SLO_P95_MS``)."""

DEFAULT_SLO_BUDGET = 0.05
"""Default error budget: at most this fraction of decisions may be bad."""


@dataclass(frozen=True)
class SloRule:
    """One SLO: what makes a decision *bad* and when to alarm on it.

    ``threshold_ms`` set makes the rule a latency SLO (bad = slower than
    the threshold); left ``None`` the rule watches fail-closed decisions
    (bad = ``degraded-input``).  With ``budget`` 0.05 a latency rule has
    p95 semantics: sustained burn ≥ 1 means more than 5 % of decisions
    exceed the threshold, i.e. the p95 is above it.

    Alarms use the standard multi-window burn rate: burn =
    bad_fraction / budget, and the alarm fires only while *both* the
    fast and slow windows burn at ``burn_threshold`` or more with at
    least ``min_events`` decisions in the fast window — fast-only
    spikes and slow-only stale burns don't page.
    """

    name: str
    budget: float = DEFAULT_SLO_BUDGET
    threshold_ms: float | None = None
    fast_window_s: float = 60.0
    slow_window_s: float = 300.0
    burn_threshold: float = 1.0
    min_events: int = 20


@dataclass(frozen=True)
class BurnAlarm:
    """One rising-edge SLO alarm (the moment a rule started firing)."""

    slo: str
    burn_fast: float
    burn_slow: float
    burn_threshold: float
    budget: float
    events_fast: float
    raised_ts: float = field(default_factory=time.time)

    def as_dict(self) -> dict:
        """JSON-able form (what the audit record and ``/alarms`` carry)."""
        return {
            "slo": self.slo,
            "burn_fast": self.burn_fast,
            "burn_slow": self.burn_slow,
            "burn_threshold": self.burn_threshold,
            "budget": self.budget,
            "events_fast": self.events_fast,
            "raised_ts": self.raised_ts,
        }


class SloTracker:
    """Burn-rate state for one :class:`SloRule` (caller serializes access)."""

    def __init__(self, rule: SloRule, clock=time.monotonic) -> None:
        windows = tuple(sorted({rule.fast_window_s, rule.slow_window_s}))
        self.rule = rule
        self.total = WindowedCounter(windows, clock=clock)
        self.bad = WindowedCounter(windows, clock=clock)
        self.active = False

    def burn_rate(self, window_s: float) -> float:
        """bad_fraction / budget over the trailing ``window_s`` seconds."""
        total = self.total.count(window_s)
        if total <= 0:
            return 0.0
        return (self.bad.count(window_s) / total) / self.rule.budget

    def firing(self) -> bool:
        """Whether the multi-window alarm condition currently holds."""
        rule = self.rule
        return (
            self.total.count(rule.fast_window_s) >= rule.min_events
            and self.burn_rate(rule.fast_window_s) >= rule.burn_threshold
            and self.burn_rate(rule.slow_window_s) >= rule.burn_threshold
        )

    def observe(self, bad: bool) -> BurnAlarm | None:
        """Fold one decision in; returns an alarm on the rising edge."""
        self.total.inc()
        if bad:
            self.bad.inc()
        firing = self.firing()
        if firing and not self.active:
            self.active = True
            rule = self.rule
            return BurnAlarm(
                slo=rule.name,
                burn_fast=self.burn_rate(rule.fast_window_s),
                burn_slow=self.burn_rate(rule.slow_window_s),
                burn_threshold=rule.burn_threshold,
                budget=rule.budget,
                events_fast=self.total.count(rule.fast_window_s),
            )
        if not firing:
            self.active = False
        return None

    def snapshot(self) -> dict:
        """JSON-able state: the rule, current burns, and firing flag."""
        rule = self.rule
        return {
            "slo": rule.name,
            "threshold_ms": rule.threshold_ms,
            "budget": rule.budget,
            "burn_threshold": rule.burn_threshold,
            "min_events": rule.min_events,
            "windows_s": [rule.fast_window_s, rule.slow_window_s],
            "burn_fast": self.burn_rate(rule.fast_window_s),
            "burn_slow": self.burn_rate(rule.slow_window_s),
            "events_fast": self.total.count(rule.fast_window_s),
            "firing": self.firing(),
        }


def default_slo_rules() -> tuple[SloRule, ...]:
    """The serving SLOs at :class:`SloRule`'s default budget and windows.

    The p95 latency threshold is the one deployment setting:
    ``REPRO_LIVE_SLO_P95_MS`` (a malformed value warns once and keeps
    :data:`DEFAULT_SLO_LATENCY_MS`).
    """
    return (
        SloRule(
            "serving.latency_p95",
            threshold_ms=env_float("REPRO_LIVE_SLO_P95_MS", DEFAULT_SLO_LATENCY_MS),
        ),
        SloRule("serving.fail_closed"),
    )


class SloMonitor:
    """Multi-rule SLO watcher fed by serving decisions.

    Each decision's wall time and reason are judged against every rule;
    rising-edge alarms increment ``monitor.slo_alarms`` and land in the
    audit log as ``slo-alarm`` records.  ``/alarms`` and ``/readyz``
    read :meth:`active_alarms`, which re-evaluates the window state at
    read time, so alarms clear on their own as the burn decays.
    """

    def __init__(self, rules=None, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self.trackers = {
            rule.name: SloTracker(rule, clock=clock)
            for rule in (tuple(rules) if rules is not None else default_slo_rules())
        }
        self.alarms: list[BurnAlarm] = []

    def observe_decision(self, wall_ms: float, reason: str | None = None) -> list[BurnAlarm]:
        """Judge one decision against every rule; returns raised alarms."""
        raised: list[BurnAlarm] = []
        with self._lock:
            for tracker in self.trackers.values():
                threshold = tracker.rule.threshold_ms
                bad = wall_ms > threshold if threshold is not None else reason == _REASON_DEGRADED
                alarm = tracker.observe(bad)
                if alarm is not None:
                    raised.append(alarm)
                    self.alarms.append(alarm)
        # Registry/audit emission outside the lock, mirroring
        # DecisionMonitor.consume.
        for alarm in raised:
            counter_inc("monitor.slo_alarms", slo=alarm.slo)
            audit_record("slo-alarm", **alarm.as_dict())
        return raised

    def active_alarms(self) -> list[dict]:
        """Currently-firing rules, freshly evaluated against the windows."""
        with self._lock:
            return [
                tracker.snapshot()
                for tracker in self.trackers.values()
                if tracker.firing()
            ]

    def snapshot(self) -> dict:
        """JSON-able state: every rule's burn view plus the alarm history."""
        with self._lock:
            return {
                "rules": {name: t.snapshot() for name, t in sorted(self.trackers.items())},
                "active": [t.rule.name for t in self.trackers.values() if t.firing()],
                "alarms": [alarm.as_dict() for alarm in self.alarms],
            }


_SLO: SloMonitor | None = None


def slo_monitor() -> SloMonitor:
    """The process-global SLO monitor (created on first use)."""
    global _SLO
    if _SLO is None:
        _SLO = SloMonitor()
    return _SLO


def slo_observe_decision(wall_ms: float, reason: str | None = None) -> None:
    """Feed one serving decision to the global SLO monitor (obs on)."""
    if not obs_enabled():
        return
    slo_monitor().observe_decision(wall_ms, reason=reason)


def reset_slo_monitor(rules=None, clock=time.monotonic) -> SloMonitor:
    """Replace the global SLO monitor (tests / between runs)."""
    global _SLO
    _SLO = SloMonitor(rules=rules, clock=clock)
    return _SLO

"""SLO burn-rate alarms: multi-window firing, rising edges, env knobs."""

import pytest

from repro.obs import REGISTRY, audit_log, set_obs_enabled
from repro.obs import control as obs_control
from repro.obs.slo import (
    DEFAULT_SLO_LATENCY_MS,
    SloMonitor,
    SloRule,
    SloTracker,
    default_slo_rules,
    reset_slo_monitor,
    slo_monitor,
    slo_observe_decision,
)


class FakeClock:
    def __init__(self, t: float = 1000.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


RULE = SloRule(
    "serving.latency_p95",
    budget=0.05,
    threshold_ms=100.0,
    fast_window_s=10.0,
    slow_window_s=60.0,
    burn_threshold=1.0,
    min_events=5,
)


class TestSloTracker:
    def test_no_fire_below_min_events(self):
        tracker = SloTracker(RULE, clock=FakeClock())
        for _ in range(4):
            assert tracker.observe(bad=True) is None
        assert not tracker.firing()

    def test_fires_once_on_the_rising_edge(self):
        clock = FakeClock()
        tracker = SloTracker(RULE, clock=clock)
        alarms = [tracker.observe(bad=True) for _ in range(8)]
        raised = [a for a in alarms if a is not None]
        assert len(raised) == 1
        assert raised[0].slo == "serving.latency_p95"
        assert raised[0].burn_fast >= 1.0
        assert tracker.firing()

    def test_alarm_clears_when_burn_decays(self):
        clock = FakeClock()
        tracker = SloTracker(RULE, clock=clock)
        for _ in range(8):
            tracker.observe(bad=True)
        assert tracker.firing()
        clock.advance(120.0)  # both windows empty now
        assert not tracker.firing()
        # Good traffic then a fresh burn raises a second edge alarm.
        for _ in range(8):
            assert tracker.observe(bad=False) is None
        second = [tracker.observe(bad=True) for _ in range(30)]
        assert sum(a is not None for a in second) == 1

    def test_fast_only_spike_does_not_fire(self):
        """Both windows must burn: a burst after a long good history stays quiet."""
        clock = FakeClock()
        rule = SloRule(
            "x", budget=0.5, threshold_ms=100.0, fast_window_s=5.0,
            slow_window_s=60.0, burn_threshold=1.0, min_events=2,
        )
        tracker = SloTracker(rule, clock=clock)
        for _ in range(200):  # 200 good decisions spread over the slow window
            tracker.observe(bad=False)
            clock.advance(0.25)
        for _ in range(25):  # burst: fast window burns past 1.0, slow does not
            alarm = tracker.observe(bad=True)
            assert alarm is None
        assert tracker.burn_rate(rule.fast_window_s) >= 1.0
        assert tracker.burn_rate(rule.slow_window_s) < 1.0

    def test_burn_semantics_budget_is_p95(self):
        clock = FakeClock()
        tracker = SloTracker(RULE, clock=clock)
        # 5% bad at budget 0.05 is exactly burn 1.0.
        for k in range(100):
            tracker.observe(bad=(k % 20 == 0))
        assert tracker.burn_rate(RULE.fast_window_s) == pytest.approx(1.0)


class TestSloMonitor:
    def test_latency_and_fail_closed_rules(self):
        clock = FakeClock()
        monitor = SloMonitor(rules=(RULE,), clock=clock)
        for _ in range(8):
            monitor.observe_decision(500.0, reason="non-facing")
        assert [a["slo"] for a in monitor.active_alarms()] == ["serving.latency_p95"]

        fail_rule = SloRule(
            "serving.fail_closed", budget=0.05, threshold_ms=None,
            fast_window_s=10.0, slow_window_s=60.0, min_events=5,
        )
        monitor = SloMonitor(rules=(fail_rule,), clock=FakeClock())
        for _ in range(8):
            monitor.observe_decision(1.0, reason="degraded-input")
        assert [a["slo"] for a in monitor.active_alarms()] == ["serving.fail_closed"]
        monitor = SloMonitor(rules=(fail_rule,), clock=FakeClock())
        for _ in range(8):
            monitor.observe_decision(1.0, reason="accepted")
        assert monitor.active_alarms() == []

    def test_alarms_land_in_registry_and_audit(self):
        set_obs_enabled(True)
        monitor = SloMonitor(rules=(RULE,), clock=FakeClock())
        for _ in range(8):
            monitor.observe_decision(500.0, reason=None)
        assert REGISTRY.counter("monitor.slo_alarms", slo="serving.latency_p95").value == 1
        events = [r for r in audit_log().records() if r["event"] == "slo-alarm"]
        assert len(events) == 1 and events[0]["slo"] == "serving.latency_p95"

    def test_snapshot_is_json_shaped(self):
        import json

        monitor = SloMonitor(rules=(RULE,), clock=FakeClock())
        monitor.observe_decision(500.0)
        snapshot = monitor.snapshot()
        json.dumps(snapshot)
        assert "serving.latency_p95" in snapshot["rules"]
        assert snapshot["rules"]["serving.latency_p95"]["events_fast"] == 1


class TestGlobalFeed:
    def test_gated_on_monitor_enabled(self):
        reset_slo_monitor(rules=(RULE,), clock=FakeClock())
        slo_observe_decision(500.0)  # obs off: dropped
        assert slo_monitor().snapshot()["rules"]["serving.latency_p95"]["events_fast"] == 0
        set_obs_enabled(True)
        slo_observe_decision(500.0)
        assert slo_monitor().snapshot()["rules"]["serving.latency_p95"]["events_fast"] == 1


class TestDefaultRules:
    def test_defaults(self):
        rules = {rule.name: rule for rule in default_slo_rules()}
        assert rules["serving.latency_p95"].threshold_ms == DEFAULT_SLO_LATENCY_MS
        assert rules["serving.fail_closed"].threshold_ms is None
        assert rules["serving.latency_p95"].budget == 0.05

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_SLO_P95_MS", "2500")
        rules = {rule.name: rule for rule in default_slo_rules()}
        assert rules["serving.latency_p95"].threshold_ms == 2500.0

    def test_malformed_override_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(obs_control, "_WARNED", set())
        monkeypatch.setenv("REPRO_LIVE_SLO_P95_MS", "-5")
        with pytest.warns(RuntimeWarning, match="REPRO_LIVE_SLO_P95_MS"):
            rules = {rule.name: rule for rule in default_slo_rules()}
        assert rules["serving.latency_p95"].threshold_ms == DEFAULT_SLO_LATENCY_MS

"""Determinism properties of fault injection and its env plumbing.

The layer's contract: corruption is a pure function of (scenario,
capture content) — identical on any thread, in any order, on the
serial and the threaded path alike.
"""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.datasets.collection import render_tasks
from repro.faults import (
    FaultScenario,
    PRESET_NAMES,
    capture_fault_key,
    injected,
    preset_scenario,
    scenario_from_env,
    set_fault_scenario,
    set_faults_enabled,
)
from repro.faults.control import active_scenario
from repro.runtime import render_captures
from tests.runtime.test_runtime import SPEC

FS = 48_000


def _capture(seed=0):
    rng = np.random.default_rng(seed)
    return Capture(channels=0.2 * rng.standard_normal((4, FS // 3)), sample_rate=FS)


class TestScenarioDeterminism:
    @pytest.mark.parametrize("name", sorted(PRESET_NAMES))
    def test_same_scenario_same_bytes(self, name):
        scenario = preset_scenario(name, seed=7)
        capture = _capture()
        first = scenario.apply(capture)
        second = scenario.apply(capture)
        assert np.array_equal(first.channels, second.channels)

    def test_order_independent(self):
        scenario = preset_scenario("kitchen-sink", seed=3)
        captures = [_capture(s) for s in range(4)]
        forward = [scenario.apply(c).channels for c in captures]
        backward = [scenario.apply(c).channels for c in reversed(captures)]
        for a, b in zip(forward, reversed(backward)):
            assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        capture = _capture()
        a = preset_scenario("burst-noise", seed=0).apply(capture)
        b = preset_scenario("burst-noise", seed=1).apply(capture)
        assert not np.array_equal(a.channels, b.channels)

    def test_content_keyed_not_identity_keyed(self):
        scenario = preset_scenario("burst-noise", seed=0)
        capture = _capture()
        clone = Capture(channels=capture.channels.copy(), sample_rate=FS)
        assert capture_fault_key(capture) == capture_fault_key(clone)
        assert np.array_equal(
            scenario.apply(capture).channels, scenario.apply(clone).channels
        )

    def test_sample_rate_in_key(self):
        capture = _capture()
        other = Capture(channels=capture.channels, sample_rate=FS // 2)
        assert capture_fault_key(capture) != capture_fault_key(other)

    def test_preserves_shape_and_rate(self):
        capture = _capture()
        for name in sorted(PRESET_NAMES):
            out = preset_scenario(name).apply(capture)
            assert out.channels.shape == capture.channels.shape
            assert out.sample_rate == capture.sample_rate


class TestSerialPoolIdentity:
    def test_faulted_render_identical_serial_vs_pool(self, two_workers):
        tasks = [task for _, task in render_tasks(SPEC)]
        with injected(preset_scenario("kitchen-sink", seed=5)):
            serial = render_captures(tasks, workers=1)
            pooled = render_captures(tasks, workers=2)
        clean = render_captures(tasks, workers=1)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)
        assert not np.array_equal(serial[0].channels, clean[0].channels)

    def test_task_scenario_wins_over_ambient(self):
        from dataclasses import replace

        task = next(task for _, task in render_tasks(SPEC))
        own = preset_scenario("dead-channel", seed=1)
        pinned = replace(task, faults=own)
        with injected(preset_scenario("clipping", seed=2)):
            ambient = render_captures([task], workers=1)[0]
            kept = render_captures([pinned], workers=1)[0]
        direct = own.apply(render_captures([task], workers=1)[0])
        assert not np.array_equal(kept.channels, ambient.channels)
        assert np.array_equal(kept.channels[0], np.zeros_like(kept.channels[0]))
        assert kept.channels.shape == direct.channels.shape


class TestControlPlumbing:
    @pytest.fixture(autouse=True)
    def _restore(self):
        yield
        set_faults_enabled(False)
        set_fault_scenario(None)

    def test_disabled_by_default(self):
        assert active_scenario() is None

    def test_injected_restores_state(self):
        scenario = preset_scenario("dead-channel")
        with injected(scenario):
            assert active_scenario() is scenario
        assert active_scenario() is None

    def test_injected_none_arms_without_scenario(self):
        from repro.faults import faults_enabled

        with injected(None):
            assert faults_enabled()
            assert active_scenario() is None

    def test_env_scenario(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS_SCENARIO", "gain-drift")
        monkeypatch.setenv("REPRO_FAULTS_SEVERITY", "2.0")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "9")
        scenario = scenario_from_env()
        assert isinstance(scenario, FaultScenario)
        assert scenario.name == "gain-drift@2"
        assert scenario.seed == 9
        set_faults_enabled(True)
        assert active_scenario() == scenario

    def test_unknown_env_scenario_warns_and_injects_nothing(self, monkeypatch):
        from repro.obs import control

        monkeypatch.setenv("REPRO_FAULTS_SCENARIO", "frobnicate")
        monkeypatch.setattr(control, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="frobnicate"):
            assert scenario_from_env() is None
        # Second call is silent (warn-once).
        assert scenario_from_env() is None

    def test_malformed_severity_warns_and_defaults(self, monkeypatch):
        from repro.obs import control

        monkeypatch.setenv("REPRO_FAULTS_SCENARIO", "clipping")
        monkeypatch.setenv("REPRO_FAULTS_SEVERITY", "lots")
        monkeypatch.setattr(control, "_WARNED", set())
        with pytest.warns(RuntimeWarning, match="REPRO_FAULTS_SEVERITY"):
            scenario = scenario_from_env()
        assert scenario.name == "clipping@1"

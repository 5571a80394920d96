"""Determinism properties of fault injection.

The layer's contract: corruption is a pure function of (scenario,
capture content) — identical on any thread and in any order.
"""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.faults import PRESET_NAMES, capture_fault_key, preset_scenario

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

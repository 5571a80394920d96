"""Determinism properties of fault injection.

The layer's contract: corruption is a pure function of (scenario,
capture content) — identical on any thread and in any order.
"""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.faults import PRESET_NAMES, content_key, keyed_rng, preset_scenario

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
        assert content_key(capture.channels, FS) == content_key(clone.channels, FS)
        assert np.array_equal(
            scenario.apply(capture).channels, scenario.apply(clone).channels
        )

    def test_sample_rate_in_key(self):
        channels = _capture().channels
        assert content_key(channels, FS) != content_key(channels, FS // 2)

    def test_preserves_shape_and_rate(self):
        capture = _capture()
        for name in sorted(PRESET_NAMES):
            out = preset_scenario(name).apply(capture)
            assert out.channels.shape == capture.channels.shape
            assert out.sample_rate == capture.sample_rate


class TestPinnedStream:
    """Literal values: the key and stream every fault and attack render draws from.

    A change to either function silently re-randomizes every corrupted
    capture and every attack emission; these values were recorded before
    the fault and attack layers shared one definition of each.
    """

    def test_content_key_value(self):
        x = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        assert content_key(x, 48_000) == "184dea488dbbe655d923b61a965624a0"
        y = np.linspace(-1.0, 1.0, 9)
        assert content_key(y, 16_000) == "7bdda1044f9b4d4cff4a8aebc6b3a6ce"

    def test_keyed_rng_first_draws(self):
        key = "184dea488dbbe655d923b61a965624a0"
        draws = keyed_rng(7, "attack-eq", key).integers(1 << 30, size=3)
        assert draws.tolist() == [228743006, 695631382, 592126084]
        normals = keyed_rng(3, "dropouts@1.5", "utt-0001").standard_normal(2)
        assert normals.tolist() == [-0.08534453978975838, 0.33691590529305476]

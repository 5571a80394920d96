"""Determinism of attack rendering: pure function of (seed, scenario, content).

The layer's contract mirrors repro.faults: an attack render is
byte-identical serially, on any render thread, in any order, and at
either decision dtype.
"""

import numpy as np
import pytest

from repro.acoustics import HumanSpeaker
from repro.attacks import (
    PRESET_NAMES,
    attack_render_tasks,
    preset_attack,
    render_attack_captures,
)
from repro.dsp.precision import precision
from repro.faults import content_key, keyed_rng
from repro.runtime import render_captures

FS = 48_000


def _scenario(kind="eq-replay", tier=2.0, seed=7):
    return preset_attack(kind, sophistication=tier, seed=seed)


class TestStreamKeys:
    def test_content_keyed_not_identity_keyed(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(FS // 4) / FS)
        assert content_key(x, FS) == content_key(x.copy(), FS)

    def test_sample_rate_in_key(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(FS // 4) / FS)
        assert content_key(x, FS) != content_key(x, FS // 2)

    def test_content_changes_key(self):
        x = np.sin(2 * np.pi * 440.0 * np.arange(FS // 4) / FS)
        assert content_key(x, FS) != content_key(x * 0.5, FS)

    def test_rng_depends_on_all_parts(self):
        key = content_key(np.ones(64), FS)
        base = keyed_rng(0, "attack-eq", key).integers(1 << 30)
        assert keyed_rng(1, "attack-eq", key).integers(1 << 30) != base
        assert keyed_rng(0, "attack-horn", key).integers(1 << 30) != base


class TestEmissionDeterminism:
    @pytest.mark.parametrize("kind", sorted(PRESET_NAMES))
    def test_same_emission_same_bytes(self, kind):
        voice = HumanSpeaker.random(np.random.default_rng(0), name="victim")
        source = _scenario(kind).source_for(voice)
        a = source.emit("computer", FS, np.random.default_rng(1)).waveform
        b = source.emit("computer", FS, np.random.default_rng(1)).waveform
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        voice = HumanSpeaker.random(np.random.default_rng(0), name="victim")
        a = _scenario(seed=0).source_for(voice).emit("computer", FS, np.random.default_rng(1))
        b = _scenario(seed=1).source_for(voice).emit("computer", FS, np.random.default_rng(1))
        assert not np.array_equal(a.waveform, b.waveform)


class TestRenderDeterminism:
    def test_tasks_are_reproducible(self):
        first = render_attack_captures(_scenario(), n_utterances=2)
        second = render_attack_captures(_scenario(), n_utterances=2)
        for a, b in zip(first, second):
            assert np.array_equal(a.channels, b.channels)

    def test_serial_vs_pool_identical(self, two_workers):
        tasks = attack_render_tasks(_scenario("tdoa-replay", 3.0), n_utterances=3)
        serial = render_captures(tasks, workers=1)
        pooled = render_captures(tasks, workers=2)
        for s, p in zip(serial, pooled):
            assert np.array_equal(s.channels, p.channels)

    def test_render_bytes_independent_of_decision_dtype(self):
        """REPRO_DTYPE flips the decision path, never the rendered audio."""
        tasks32 = attack_render_tasks(_scenario("speakear"), n_utterances=2)
        with precision("float32"):
            rendered32 = render_captures(tasks32, workers=1)
        with precision("float64"):
            rendered64 = render_captures(
                attack_render_tasks(_scenario("speakear"), n_utterances=2), workers=1
            )
        for a, b in zip(rendered32, rendered64):
            assert np.array_equal(a.channels, b.channels)

    def test_scenario_seed_changes_render(self):
        a = render_attack_captures(_scenario(seed=0), n_utterances=1)[0]
        b = render_attack_captures(_scenario(seed=1), n_utterances=1)[0]
        assert not np.array_equal(a.channels, b.channels)

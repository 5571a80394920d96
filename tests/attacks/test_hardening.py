"""The hardened liveness path: physics cues, fusion weights, delegation.

These pin the *shape* of the hardening — cue ranges, window behavior,
the convex blend — not the calibration numbers, which E30 and the
benchmark baseline gate end to end.
"""

import numpy as np
import pytest

from repro.core.features import (
    OrientationFeatureExtractor,
    directivity_consistency,
    tdoa_coherence,
)
from repro.core.liveness import (
    FusedLivenessDetector,
    LivenessDetector,
    band_confidences,
    liveness_cues,
)
from repro.dsp.stats import window_score

FS = 48_000


def _speech_like(seconds=0.6, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * FS)) / FS
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * 3.0 * t) ** 2
    x = envelope * rng.standard_normal(t.size)
    return x / np.abs(x).max()


class TestWindowScore:
    def test_trapezoid_shape(self):
        bounds = (0.0, 1.0, 2.0, 3.0)
        assert window_score(-1.0, bounds) == 0.0
        assert window_score(0.5, bounds) == pytest.approx(0.5)
        assert window_score(1.5, bounds) == 1.0
        assert window_score(2.5, bounds) == pytest.approx(0.5)
        assert window_score(4.0, bounds) == 0.0

    def test_degenerate_edges(self):
        # Zero-width ramps behave as hard edges, not divide-by-zero.
        bounds = (1.0, 1.0, 2.0, 2.0)
        assert window_score(1.0, bounds) == 1.0
        assert window_score(0.999, bounds) == 0.0
        assert window_score(2.001, bounds) == 0.0


class TestBandConfidences:
    def test_too_short_input_yields_nothing(self):
        assert band_confidences(np.zeros(512), FS) == ()

    def test_bands_beyond_nyquist_are_skipped(self):
        bands = band_confidences(_speech_like(), 8_000)
        assert all(b.low_hz < 4_000 for b in bands)

    def test_confidence_in_unit_range(self):
        for band in band_confidences(_speech_like(), FS):
            assert 0.0 <= band.confidence <= 1.0
            assert band.high_hz > band.low_hz

    def test_static_noise_floor_scores_low(self):
        """A stationary flat floor has no modulation — confidence ~ 0."""
        rng = np.random.default_rng(3)
        static = 1e-3 * rng.standard_normal(FS)
        bands = band_confidences(static, FS)
        top = bands[-2:]
        assert all(b.confidence < 0.3 for b in top)


class TestLivenessCues:
    def test_scores_bounded(self):
        cues = liveness_cues(_speech_like(), FS)
        for value in (cues.decay_score, cues.residual_floor_score, cues.score):
            assert 0.0 <= value <= 1.0

    def test_score_is_decay_heavy_blend(self):
        cues = liveness_cues(_speech_like(), FS)
        expected = 0.7 * cues.decay_score + 0.3 * cues.residual_floor_score
        assert cues.score == pytest.approx(np.clip(expected, 0.0, 1.0))


class TestArrayCues:
    def test_tdoa_coherence_validates_shape(self):
        with pytest.raises(ValueError):
            tdoa_coherence(np.zeros((3, 4, 5)), [(0, 1)], max_lag=2)

    def test_tdoa_coherence_bounded(self):
        rng = np.random.default_rng(0)
        max_lag = 8
        pairs = [(0, 1), (0, 2), (1, 2)]
        gcc = np.abs(rng.standard_normal((len(pairs), 2 * max_lag + 1)))
        score = tdoa_coherence(gcc, pairs, max_lag)
        assert 0.0 <= score <= 1.0

    def test_tdoa_too_perfect_point_source_scores_low(self):
        """Exact zero cycle residual = the EQ'd cabinet signature."""
        max_lag = 8
        pairs = [(0, 1), (0, 2), (1, 2)]
        gcc = np.full((len(pairs), 2 * max_lag + 1), 1e-3)
        gcc[:, max_lag] = 1.0  # every pair: razor peak at lag exactly 0
        assert tdoa_coherence(gcc, pairs, max_lag) < 0.3

    def test_directivity_consistency_needs_matrix(self):
        from repro.core.preprocessing import DenoisedAudio

        bad = DenoisedAudio(channels=np.zeros(FS), sample_rate=FS, had_speech=True)
        with pytest.raises(ValueError):
            directivity_consistency(bad)

    def test_array_cues_keys(self):
        from repro.arrays.devices import default_channel_subset, get_device
        from repro.attacks import preset_attack, render_attack_captures
        from repro.core.preprocessing import preprocess

        device = get_device("D2")
        array = device.subset(default_channel_subset(device))
        extractor = OrientationFeatureExtractor(array=array)
        capture = render_attack_captures(
            preset_attack("eq-replay", seed=1), n_utterances=1
        )[0]
        cues = extractor.array_cues(preprocess(capture))
        assert set(cues) == {"tdoa_coherence", "directivity_consistency"}
        assert all(0.0 <= v <= 1.0 for v in cues.values())


class _StubNet:
    def __init__(self, value):
        self.value = value

    def scores(self, features, positive_label=None):
        return np.full(len(features), self.value)


class _StubBase(LivenessDetector):
    def __init__(self, value):
        super().__init__()
        self._value = value

    def scores(self, waveforms, sample_rate):
        return np.full(len(waveforms), self._value)


class TestFusedLivenessDetector:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FusedLivenessDetector(cue_weight=0.8, array_weight=0.3)
        with pytest.raises(ValueError):
            FusedLivenessDetector(cue_weight=-0.1)
        FusedLivenessDetector(cue_weight=0.0, array_weight=0.0)  # degenerate ok

    def test_single_channel_blend_formula(self):
        fused = FusedLivenessDetector(
            base=_StubBase(1.0), cue_weight=0.4, array_weight=0.1
        )
        x = _speech_like(seed=2)
        expected = 0.5 * 1.0 + 0.5 * liveness_cues(x, FS).score
        assert fused.scores([x], FS)[0] == pytest.approx(expected)

    def test_fused_scores_without_extractor_is_single_channel(self):
        from repro.core.preprocessing import DenoisedAudio

        x = _speech_like(seed=3)
        audio = DenoisedAudio(channels=np.stack([x, x]), sample_rate=FS, had_speech=True)
        fused = FusedLivenessDetector(base=_StubBase(0.0))
        assert fused.fused_scores([audio]) == pytest.approx(fused.scores([x], FS))

    def test_fused_scores_empty(self):
        assert FusedLivenessDetector(base=_StubBase(0.0)).fused_scores([]).size == 0

    def test_network_delegates_to_base(self):
        base = _StubBase(0.5)
        assert FusedLivenessDetector(base=base).network is base.network

    def test_zero_weights_reduce_to_base(self):
        fused = FusedLivenessDetector(
            base=_StubBase(0.25), cue_weight=0.0, array_weight=0.0
        )
        assert fused.scores([_speech_like()], FS)[0] == pytest.approx(0.25)

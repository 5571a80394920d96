"""float32 vs float64 decision-path parity (REPRO_DTYPE tentpole).

The default ``float64`` path must stay byte-for-byte what it always was
(fingerprints are exact tuples), while the opt-in ``float32`` path must
agree with it to single-precision tolerance — close enough that gate
verdicts match on well-separated captures.
"""

import numpy as np
import pytest

from repro.arrays import get_device
from repro.core import HeadTalkPipeline, OrientationFeatureExtractor
from repro.core.liveness import LivenessDetector
from repro.core.preprocessing import DenoisedAudio
from repro.dsp import precision, resolve_dtype

# Looser than machine-eps because GCC whitening divides by small cross-
# power magnitudes; empirically parity holds far below these bounds.
RTOL = 5e-3
ATOL = 5e-4


def _synthetic_audio(device_name: str, seed: int = 0) -> DenoisedAudio:
    array = get_device(device_name)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(4_900)
    # correlated channels (shifted copies + small noise) so GCC has
    # structure rather than pure-noise peaks
    channels = np.stack(
        [
            np.roll(base, shift) + 0.01 * rng.standard_normal(base.size)
            for shift in range(array.n_mics)
        ]
    )
    return DenoisedAudio(
        channels=channels[:, :4_800],
        sample_rate=array.sample_rate,
        had_speech=True,
    )


class TestFeatureParity:
    @pytest.mark.parametrize("device_name", ["D1", "D2", "D3"])
    def test_float32_features_track_float64(self, device_name):
        audio = _synthetic_audio(device_name)
        extractor = OrientationFeatureExtractor(get_device(device_name))
        reference = extractor.extract(audio)
        assert reference.dtype == np.float64
        with precision("float32"):
            fast = extractor.extract(audio)
        assert fast.dtype == np.float32
        assert fast.shape == reference.shape
        np.testing.assert_allclose(fast, reference, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("device_name", ["D1", "D2", "D3"])
    def test_float32_batch_matches_serial_float32(self, device_name):
        """Batched and one-at-a-time float32 extraction agree to a few
        ulps (scipy's stacked FFT uses different SIMD accumulation than
        its single-signal path, so bit-equality holds only on the
        float64 default — asserted by the runtime equivalence suite)."""
        audios = [_synthetic_audio(device_name, seed=s) for s in (0, 1)]
        extractor = OrientationFeatureExtractor(get_device(device_name))
        with precision("float32"):
            batch = extractor.extract_batch(audios)
            serial = np.stack([extractor.extract(a) for a in audios])
        assert batch.dtype == np.float32
        np.testing.assert_allclose(batch, serial, rtol=1e-3, atol=1e-5)


class TestDecisionParity:
    @pytest.fixture()
    def pipeline(self, d2_subset, trained_detector):
        liveness = LivenessDetector(epochs=1, random_state=0)
        rng = np.random.default_rng(0)
        waveforms = [rng.standard_normal(24_000) for _ in range(4)]
        labels = np.array([0, 1, 0, 1])
        liveness.fit(waveforms, labels, 48_000)
        return HeadTalkPipeline(
            array=d2_subset, liveness=liveness, orientation=trained_detector
        )

    def test_float64_fingerprint_is_stable(self, pipeline, forward_capture):
        """Default-path decisions are exactly reproducible — the tuple
        compares equal bit-for-bit across repeated evaluations and an
        explicit ``precision("float64")`` scope."""
        first = pipeline.evaluate(forward_capture, check_liveness=False)
        second = pipeline.evaluate(forward_capture, check_liveness=False)
        assert first.fingerprint() == second.fingerprint()
        with precision("float64"):
            scoped = pipeline.evaluate(forward_capture, check_liveness=False)
        assert scoped.fingerprint() == first.fingerprint()

    def test_float32_verdicts_match_float64(
        self, pipeline, forward_capture, backward_capture
    ):
        for capture in (forward_capture, backward_capture):
            reference = pipeline.evaluate(capture, check_liveness=False)
            with precision("float32"):
                fast = pipeline.evaluate(capture, check_liveness=False)
            assert fast.accepted == reference.accepted
            assert fast.reason == reference.reason
            assert fast.facing_probability == pytest.approx(
                reference.facing_probability, rel=1e-2, abs=1e-3
            )

    def test_scope_restores_default(self):
        assert resolve_dtype() == np.dtype(np.float64)
        with precision("float32"):
            assert resolve_dtype() == np.dtype(np.float32)
        assert resolve_dtype() == np.dtype(np.float64)

"""One reference-channel spectrum per scored utterance.

The fused liveness cue score, directivity consistency and the
orientation features read the reference channel's mean power spectrum
from the utterance's memo (:meth:`DenoisedAudio.spectrum`).  Sharing it
must not move a bit: every consumer equals its unshared computation, in
float64 and in float32, also when the reference channel is not 0.
"""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import preprocessing
from repro.core.liveness import FusedLivenessDetector, liveness_cues
from repro.core.preprocessing import DenoisedAudio, preprocess
from repro.dsp import mean_power_spectrum, precision, spectral_contrast


def _unshared(audio, channel):
    """Each consumer's own transform, as before the memo: the float64
    channel, transformed afresh on every call."""
    channels = np.asarray(audio.channels, dtype=float)
    return mean_power_spectrum(channels[channel], audio.sample_rate)


@pytest.fixture(scope="module")
def fused(trained_pipeline):
    return FusedLivenessDetector(base=trained_pipeline.liveness)


@pytest.fixture(scope="module")
def dead_reference_capture(forward_capture):
    channels = forward_capture.channels.copy()
    channels[0] = 0.0
    return Capture(channels=channels, sample_rate=forward_capture.sample_rate)


def _consumers(audio, fused, extractor) -> dict:
    gcc = extractor.correlate(audio)
    if audio.health.is_degraded:
        features = extractor.extract_masked(audio, audio.health.healthy, gcc)
    else:
        features = extractor.extract(audio, gcc)
    return {
        "fused_scores": fused.fused_scores([audio], extractor, [gcc]),
        "array_cues": np.array(list(extractor.array_cues(audio, gcc).values())),
        "extract": features,
    }


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize(
    "name", ["forward_capture", "replay_capture", "dead_reference_capture"]
)
def test_sharing_changes_no_bit(request, monkeypatch, trained_pipeline, fused, dtype, name):
    capture = request.getfixturevalue(name)
    extractor = trained_pipeline.extractor
    with precision(dtype):
        audio = preprocess(capture)
        if name == "dead_reference_capture":
            assert audio.reference_channel == 1
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return mean_power_spectrum(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(preprocessing, "mean_power_spectrum", counted)
            shared = _consumers(audio, fused, extractor)
        # One transform per channel: the reference is not transformed again.
        assert len(calls) == audio.channels.shape[0]
        with monkeypatch.context() as patch:
            patch.setattr(DenoisedAudio, "spectrum", _unshared)
            unshared = _consumers(preprocess(capture), fused, extractor)
    for key, value in shared.items():
        assert value.dtype == unshared[key].dtype
        assert value.tobytes() == unshared[key].tobytes(), key


def test_memo_is_read_only_and_keyed_by_dtype(forward_capture):
    audio = preprocess(forward_capture)
    freqs, power = audio.spectrum(0)
    assert audio.spectrum(0)[1] is power
    assert not freqs.flags.writeable and not power.flags.writeable
    with precision("float32"):
        assert audio.spectrum(0)[1].dtype == np.float32
    assert audio.spectrum(0)[1] is power


def test_single_array_callers_compute_their_own_spectrum(forward_capture):
    x = preprocess(forward_capture).reference
    spectrum = mean_power_spectrum(x, 48_000)
    assert spectral_contrast(x, 48_000) == spectral_contrast(x, 48_000, spectrum=spectrum)
    assert liveness_cues(x, 48_000) == liveness_cues(x, 48_000, spectrum=spectrum)

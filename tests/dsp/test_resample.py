"""Tests for resampling and the liveness input normalization."""

import importlib
import math

import numpy as np
import pytest
from scipy import signal as sps

from repro.dsp import resample, to_liveness_input

# The package's ``resample`` attribute is the function; this is its module.
resample_module = importlib.import_module("repro.dsp.resample")


def tone(freq, fs, seconds=0.25):
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t)


class TestResample:
    def test_length_scales(self):
        x = tone(440, 48_000)
        y = resample(x, 48_000, 16_000)
        assert y.size == pytest.approx(x.size / 3, abs=2)

    def test_tone_frequency_preserved(self):
        x = tone(1000, 48_000, seconds=0.5)
        y = resample(x, 48_000, 16_000)
        spectrum = np.abs(np.fft.rfft(y))
        freqs = np.fft.rfftfreq(y.size, 1 / 16_000)
        assert freqs[int(np.argmax(spectrum))] == pytest.approx(1000, abs=10)

    def test_identity_when_rates_equal(self):
        x = tone(440, 16_000)
        assert np.array_equal(resample(x, 16_000, 16_000), x)

    def test_aliasing_removed(self):
        """Content above the target Nyquist must not fold down."""
        x = tone(10_000, 48_000, seconds=0.5)
        y = resample(x, 48_000, 16_000)
        assert np.sqrt(np.mean(y**2)) < 0.05

    def test_multichannel(self):
        x = np.stack([tone(440, 48_000), tone(880, 48_000)])
        y = resample(x, 48_000, 16_000)
        assert y.shape[0] == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            resample(np.ones(10), 0, 16_000)


class TestLivenessInput:
    def test_normalized(self):
        x = 3.0 + 5.0 * tone(500, 48_000)
        y = to_liveness_input(x, 48_000)
        assert abs(y.mean()) < 1e-9
        assert y.std() == pytest.approx(1.0, abs=1e-6)

    def test_silent_input_stays_finite(self):
        y = to_liveness_input(np.zeros(4800), 48_000)
        assert np.all(np.isfinite(y))


class TestSharedFir:
    def test_fir_is_read_only_and_equals_a_fresh_design(self):
        taps = resample_module._kaiser_fir(1, 3)
        assert not taps.flags.writeable
        assert taps is resample_module._kaiser_fir(1, 3)
        fresh = sps.firwin(61, 1.0 / 3, window=("kaiser", 5.0))
        assert taps.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("rates", [(48_000, 16_000), (16_000, 48_000), (44_100, 16_000)])
    @pytest.mark.parametrize("shape", [(9,), (4_801,), (3, 37_000)])
    def test_equals_resample_poly_with_its_default_window(self, rates, shape):
        from_rate, to_rate = rates
        gcd = math.gcd(from_rate, to_rate)
        x = np.random.default_rng(6).standard_normal(shape)
        expected = sps.resample_poly(x, to_rate // gcd, from_rate // gcd, axis=-1)
        got = resample(x, from_rate, to_rate)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

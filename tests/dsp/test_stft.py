"""Tests for short-time spectral analysis."""

import importlib

import numpy as np
import pytest

from repro.dsp import log_mel_like_features, mean_power_spectrum, power_spectrogram, stft

# The package's ``stft`` attribute is the function; this is its module.
stft_module = importlib.import_module("repro.dsp.stft")


def tone(freq, fs=16_000, seconds=0.5):
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t)


class TestStft:
    def test_shape(self):
        spec = stft(np.zeros(4096), frame_length=1024, hop_length=512)
        assert spec.shape[1] == 513

    def test_tone_bin(self):
        fs = 16_000
        x = tone(1000, fs)
        freqs, power = mean_power_spectrum(x, fs, frame_length=1024)
        peak_freq = freqs[int(np.argmax(power))]
        assert peak_freq == pytest.approx(1000, abs=fs / 1024)

    def test_power_nonnegative(self):
        rng = np.random.default_rng(0)
        power = power_spectrogram(rng.standard_normal(4096))
        assert np.all(power >= 0)

    def test_too_short_signal_raises(self):
        with pytest.raises(ValueError, match="too short"):
            # empty signal -> zero frames
            mean_power_spectrum(np.array([]), 16_000)

    def test_parseval_energy_scaling(self):
        """Spectral energy tracks time-domain energy across amplitudes."""
        x = tone(500)
        _, p1 = mean_power_spectrum(x, 16_000)
        _, p2 = mean_power_spectrum(2.0 * x, 16_000)
        assert p2.sum() == pytest.approx(4.0 * p1.sum(), rel=1e-6)


class TestLogMel:
    def test_shape(self):
        feats = log_mel_like_features(tone(800), 16_000, n_bands=40)
        assert feats.shape[1] == 40
        assert feats.shape[0] > 5

    def test_tone_hits_expected_band(self):
        feats = log_mel_like_features(tone(200), 16_000, n_bands=40)
        low_band_energy = feats[:, :10].max()
        high_band_energy = feats[:, 30:].max()
        assert low_band_energy > high_band_energy

    def test_bright_signal_fills_high_bands(self):
        rng = np.random.default_rng(0)
        feats = log_mel_like_features(rng.standard_normal(8000), 16_000)
        assert feats[:, -5:].mean() > -15

    def test_validation(self):
        with pytest.raises(ValueError):
            log_mel_like_features(tone(200), 16_000, n_bands=1)
        with pytest.raises(ValueError):
            log_mel_like_features(tone(200), 16_000, fmin=9000, fmax=8000)


class TestSharedFilterbank:
    def _fresh_bank(self, sample_rate, n_bands, frame_length, fmin, fmax):
        freqs = np.fft.rfftfreq(frame_length, d=1.0 / sample_rate)
        centers = np.geomspace(fmin, fmax, n_bands + 2)
        bank = np.zeros((n_bands, freqs.size))
        for b in range(n_bands):
            lo, mid, hi = centers[b], centers[b + 1], centers[b + 2]
            rising = (freqs - lo) / max(mid - lo, 1e-12)
            falling = (hi - freqs) / max(hi - mid, 1e-12)
            bank[b] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
        return bank

    def test_bank_is_read_only_and_equals_a_fresh_design(self):
        bank = stft_module._filterbank(16_000, 40, 512, 50.0, 8_000.0)
        assert not bank.flags.writeable
        assert bank is stft_module._filterbank(16_000, 40, 512, 50.0, 8_000.0)
        assert bank.tobytes() == self._fresh_bank(16_000, 40, 512, 50.0, 8_000.0).tobytes()

    def test_features_equal_a_fresh_bank(self):
        x = np.random.default_rng(5).standard_normal(12_000)
        power = power_spectrogram(x, 512, 256, dtype=np.float64)
        expected = np.log(power @ self._fresh_bank(16_000, 24, 512, 80.0, 7_000.0).T + 1e-10)
        got = log_mel_like_features(x, 16_000, n_bands=24, fmin=80.0, fmax=7_000.0)
        assert got.tobytes() == expected.tobytes()

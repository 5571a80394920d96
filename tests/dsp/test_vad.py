"""Tests for energy VAD."""

import numpy as np
import pytest

from repro.dsp import detect_activity, short_time_energy

FS = 48_000


def burst_signal(lead=0.2, burst=0.3, tail=0.2, fs=FS, seed=0):
    rng = np.random.default_rng(seed)
    parts = [
        0.001 * rng.standard_normal(int(lead * fs)),
        1.0 * rng.standard_normal(int(burst * fs)),
        0.001 * rng.standard_normal(int(tail * fs)),
    ]
    return np.concatenate(parts)


class TestShortTimeEnergy:
    def test_tracks_amplitude(self):
        x = np.concatenate([np.zeros(480), np.ones(480)])
        energy = short_time_energy(x, 480, 480)
        assert energy[0] < energy[1]

    def test_empty(self):
        assert short_time_energy(np.array([]), 480, 240).size == 0


class TestDetectActivity:
    def test_finds_burst(self):
        x = burst_signal()
        result = detect_activity(x, FS)
        assert result.is_speech
        burst_start = int(0.2 * FS)
        burst_end = int(0.5 * FS)
        assert result.start == pytest.approx(burst_start, abs=0.05 * FS)
        assert result.end == pytest.approx(burst_end, abs=0.06 * FS)

    def test_silence_is_not_speech(self):
        result = detect_activity(np.zeros(FS // 2), FS)
        assert not result.is_speech

    def test_empty_signal(self):
        result = detect_activity(np.array([]), FS)
        assert not result.is_speech

    def test_uniform_noise_is_all_active(self):
        rng = np.random.default_rng(0)
        result = detect_activity(rng.standard_normal(FS // 4), FS)
        assert result.is_speech
        assert result.start == 0


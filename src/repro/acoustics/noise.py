"""Ambient-noise generation and SPL calibration.

All levels in the simulator are tied to one convention:

    digital RMS 1.0  ==  94 dB SPL

so an SPL maps to a target RMS via ``10 ** ((spl - 94) / 20)``.  Speech
"loudness" (the paper speaks at 60/70/80 dB SPL) sets the source RMS at
1 m in front of the mouth; room ambient levels (33 dB lab, 43 dB home)
and the injected white-noise / TV-babble interference (45 dB) set the
noise floor RMS at the microphones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as spfft
from scipy import signal as sps

REFERENCE_DB_SPL = 94.0
"""SPL that corresponds to a digital RMS of 1.0."""


def spl_to_rms(spl_db: float) -> float:
    """Digital RMS amplitude corresponding to a sound pressure level."""
    return 10.0 ** ((spl_db - REFERENCE_DB_SPL) / 20.0)


def rms_to_spl(rms: float) -> float:
    """Sound pressure level corresponding to a digital RMS amplitude."""
    if rms <= 0:
        return float("-inf")
    return REFERENCE_DB_SPL + 20.0 * np.log10(rms)


def scale_to_spl(audio: np.ndarray, spl_db: float) -> np.ndarray:
    """Scale a signal so its RMS equals the given SPL."""
    x = np.asarray(audio, dtype=float)
    rms = np.sqrt(np.mean(x**2))
    if rms <= 1e-15:
        return x.copy()
    return x * (spl_to_rms(spl_db) / rms)


@dataclass(frozen=True)
class NoiseSource:
    """A named ambient-noise generator at a calibrated level."""

    kind: str
    level_db_spl: float

    def __post_init__(self) -> None:
        if self.kind not in ("white", "tv", "household", "pink"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not 0 <= self.level_db_spl <= 120:
            raise ValueError("level_db_spl out of range")

    def render(self, n_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
        """Generate calibrated noise of the requested length."""
        generator = {
            "white": white_noise,
            "pink": pink_noise,
            "tv": tv_babble_noise,
            "household": household_noise,
        }[self.kind]
        noise = generator(n_samples, sample_rate, rng)
        return scale_to_spl(noise, self.level_db_spl)


def white_noise(n_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """Flat-spectrum Gaussian noise."""
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    return rng.standard_normal(n_samples)


def pink_noise(n_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """1/f-shaped noise (spectral tilt applied in the frequency domain)."""
    if n_samples == 0:
        return np.zeros(0)
    # scipy's pocketfft returns bit-identical transforms to numpy's but
    # handles the awkward (large-prime-factor) lengths utterances have
    # noticeably faster — this is the batch renderer's warm-path floor.
    spectrum = spfft.rfft(rng.standard_normal(n_samples))
    freqs = np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)
    shaping = 1.0 / np.sqrt(np.maximum(freqs, 1.0))
    return spfft.irfft(spectrum * shaping, n_samples)


def tv_babble_noise(n_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """TV-series-like interference: overlapping speech-band babble plus
    occasional wideband transients (laughs, doors, footsteps)."""
    if n_samples == 0:
        return np.zeros(0)
    total = np.zeros(n_samples)
    # Babble: several speech-shaped noise streams with syllabic envelopes.
    t = np.arange(n_samples) / sample_rate
    for _ in range(4):
        stream = pink_noise(n_samples, sample_rate, rng)
        sos = sps.butter(2, [150.0, 3800.0], btype="bandpass", fs=sample_rate, output="sos")
        stream = sps.sosfilt(sos, stream)
        envelope_rate = rng.uniform(2.5, 5.0)  # syllables per second
        phase = rng.uniform(0, 2 * np.pi)
        envelope = 0.5 + 0.5 * np.sin(2 * np.pi * envelope_rate * t + phase)
        total += stream * envelope**2
    # Sibilance: TV speech carries fricative energy well above 4 kHz,
    # which is exactly the band HeadTalk's directivity features live in.
    hi_edge = min(10_000.0, 0.45 * sample_rate)
    if hi_edge > 4000.0:
        sos_hf = sps.butter(
            2, [3500.0, hi_edge], btype="bandpass", fs=sample_rate, output="sos"
        )
        sibilance = sps.sosfilt(sos_hf, rng.standard_normal(n_samples))
        sibilance_rms = np.sqrt(np.mean(sibilance**2)) + 1e-15
        babble_rms = np.sqrt(np.mean(total**2)) + 1e-15
        duty = (
            0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(1.5, 3.0) * t + rng.uniform(0, 2 * np.pi))
        ) ** 4
        total += 0.5 * babble_rms * (sibilance / sibilance_rms) * duty
    # Transients, band-limited like everything a TV speaker emits.
    n_events = max(1, int(n_samples / sample_rate * 1.5))
    transients = np.zeros(n_samples)
    for _ in range(n_events):
        start = int(rng.integers(0, max(1, n_samples - 100)))
        length = int(rng.integers(sample_rate // 100, sample_rate // 10))
        length = min(length, n_samples - start)
        burst = rng.standard_normal(length) * np.exp(-np.arange(length) / (length / 4))
        transients[start : start + length] += burst
    sos_tv = sps.butter(2, min(5000.0, 0.45 * sample_rate), btype="lowpass", fs=sample_rate, output="sos")
    total += 1.5 * sps.sosfilt(sos_tv, transients)
    return total


def household_noise(n_samples: int, sample_rate: int, rng: np.random.Generator) -> np.ndarray:
    """Refrigerator/microwave-style hum plus broadband room noise."""
    if n_samples == 0:
        return np.zeros(0)
    t = np.arange(n_samples) / sample_rate
    hum = np.zeros(n_samples)
    for harmonic, level in ((120.0, 1.0), (240.0, 0.5), (360.0, 0.25)):
        hum += level * np.sin(2 * np.pi * harmonic * t + rng.uniform(0, 2 * np.pi))
    broadband = 0.6 * pink_noise(n_samples, sample_rate, rng)
    # Slow amplitude wander (compressor cycling, cars passing).
    wander = 1.0 + 0.3 * np.sin(2 * np.pi * 0.2 * t + rng.uniform(0, 2 * np.pi))
    return (hum + broadband) * wander

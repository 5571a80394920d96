"""Short-time Fourier analysis.

Frames and windows come shared and read-only from
:mod:`repro.dsp.windows`; :func:`log_mel_like_features` designs its
triangular filterbank once per geometry.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .precision import fft_api, resolve_dtype
from .windows import frame_signal, get_window


def stft(
    signal: np.ndarray,
    frame_length: int = 1024,
    hop_length: int = 512,
    window: str = "hann",
    dtype=None,
) -> np.ndarray:
    """Short-time Fourier transform.

    Returns a complex array of shape ``(n_frames, frame_length // 2 + 1)``
    (one-sided spectrum per frame); complex64 when the resolved decision
    dtype is float32, complex128 for float64.
    """
    dtype = resolve_dtype(dtype)
    frames = frame_signal(signal, frame_length, hop_length, dtype=dtype)
    win = get_window(window, frame_length).astype(dtype, copy=False)
    return fft_api(dtype).rfft(frames * win, axis=1)


def power_spectrogram(
    signal: np.ndarray,
    frame_length: int = 1024,
    hop_length: int = 512,
    window: str = "hann",
    dtype=None,
) -> np.ndarray:
    """Magnitude-squared STFT, shape ``(n_frames, n_bins)``."""
    spectrum = stft(signal, frame_length, hop_length, window, dtype=dtype)
    return np.abs(spectrum) ** 2


def mean_power_spectrum(
    signal: np.ndarray,
    sample_rate: int,
    frame_length: int = 1024,
    hop_length: int = 512,
    window: str = "hann",
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Time-averaged one-sided power spectrum.

    Returns ``(freqs_hz, power)`` where both arrays have
    ``frame_length // 2 + 1`` entries.
    """
    power = power_spectrogram(signal, frame_length, hop_length, window, dtype=dtype)
    if power.shape[0] == 0:
        raise ValueError("signal too short for a single frame")
    freqs = np.fft.rfftfreq(frame_length, d=1.0 / sample_rate)
    return freqs, power.mean(axis=0)


def log_mel_like_features(
    signal: np.ndarray,
    sample_rate: int,
    n_bands: int = 40,
    frame_length: int = 512,
    hop_length: int = 256,
    fmin: float = 50.0,
    fmax: float | None = None,
) -> np.ndarray:
    """Log-compressed triangular filterbank energies, ``(n_frames, n_bands)``.

    A mel-style front-end (triangular filters on a log-frequency axis) used
    as the input representation of the liveness network.  It is not an
    exact mel scale; band centers are geometrically spaced between ``fmin``
    and ``fmax``, which preserves the high/low-frequency contrast the
    liveness detector relies on.  Always float64: the liveness network is
    trained outside the decision hot path.
    """
    if n_bands < 2:
        raise ValueError("n_bands must be >= 2")
    fmax = fmax or sample_rate / 2.0
    if not 0 < fmin < fmax <= sample_rate / 2.0:
        raise ValueError(f"need 0 < fmin < fmax <= Nyquist, got {fmin}, {fmax}")
    power = power_spectrogram(signal, frame_length, hop_length, dtype=np.float64)
    energies = power @ _filterbank(sample_rate, n_bands, frame_length, fmin, fmax).T
    return np.log(energies + 1e-10)


@lru_cache(maxsize=16)
def _filterbank(
    sample_rate: int, n_bands: int, frame_length: int, fmin: float, fmax: float
) -> np.ndarray:
    """The read-only ``(n_bands, frame_length // 2 + 1)`` triangular filterbank."""
    freqs = np.fft.rfftfreq(frame_length, d=1.0 / sample_rate)
    centers = np.geomspace(fmin, fmax, n_bands + 2)
    bank = np.zeros((n_bands, freqs.size))
    for b in range(n_bands):
        lo, mid, hi = centers[b], centers[b + 1], centers[b + 2]
        rising = (freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - freqs) / max(hi - mid, 1e-12)
        bank[b] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    bank.flags.writeable = False
    return bank

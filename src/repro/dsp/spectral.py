"""Band-energy and speech-directivity spectral statistics.

Implements the paper's *speech directivity* features (Section III-B3):

- the **high-low band ratio (HLBR)** between the mean magnitude of the
  500-4000 Hz band and the 100-400 Hz band, and
- per-chunk ``(mean, RMS, std)`` statistics over 20 equal sub-chunks of
  the low band,

plus the high-frequency decay statistics used to contrast live human
speech with loudspeaker replay (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .precision import resolve_dtype
from .stft import mean_power_spectrum

LOW_BAND = (100.0, 400.0)
"""Low-band frequency range in Hz (paper Section III-B3)."""

HIGH_BAND = (500.0, 4000.0)
"""High-band frequency range in Hz (paper Section III-B3)."""


def band_mask(freqs: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Boolean mask of FFT bins inside ``[band[0], band[1])``."""
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must satisfy lo < hi, got {band}")
    return (freqs >= lo) & (freqs < hi)


def band_mean_magnitude(
    freqs: np.ndarray, power: np.ndarray, band: tuple[float, float]
) -> float:
    """Mean spectral magnitude over a band (0.0 if the band is empty)."""
    mask = band_mask(freqs, band)
    if not mask.any():
        return 0.0
    return float(np.sqrt(power[mask]).mean())


def high_low_band_ratio(
    freqs: np.ndarray,
    power: np.ndarray,
    low_band: tuple[float, float] = LOW_BAND,
    high_band: tuple[float, float] = HIGH_BAND,
) -> float:
    """HLBR: mean high-band magnitude over mean low-band magnitude.

    High frequencies are directional and low frequencies omnidirectional,
    so this ratio drops when the speaker turns away from the device.
    """
    low = band_mean_magnitude(freqs, power, low_band)
    high = band_mean_magnitude(freqs, power, high_band)
    return high / (low + 1e-12)


def low_band_chunk_stats(
    freqs: np.ndarray,
    power: np.ndarray,
    low_band: tuple[float, float] = LOW_BAND,
    n_chunks: int = 20,
    dtype=None,
) -> np.ndarray:
    """Per-chunk ``(mean, RMS, std)`` of magnitude over the low band.

    The low band is divided into ``n_chunks`` equal frequency chunks
    (paper: 20), producing a ``3 * n_chunks`` feature vector in the
    resolved decision dtype.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    lo, hi = low_band
    edges = np.linspace(lo, hi, n_chunks + 1)
    magnitude = np.sqrt(np.maximum(power, 0.0))
    stats = np.zeros(3 * n_chunks, dtype=resolve_dtype(dtype))
    for c in range(n_chunks):
        mask = band_mask(freqs, (edges[c], edges[c + 1]))
        chunk = magnitude[mask]
        if chunk.size == 0:
            continue
        stats[3 * c] = chunk.mean()
        stats[3 * c + 1] = np.sqrt(np.mean(chunk**2))
        stats[3 * c + 2] = chunk.std()
    return stats


@dataclass(frozen=True)
class SpectralContrast:
    """Summary of the human-vs-replay spectral contrast of Figure 3."""

    below_4k_energy: float
    above_4k_energy: float
    high_fraction: float
    decay_db_per_octave: float


def spectral_contrast(
    signal: np.ndarray,
    sample_rate: int,
    split_hz: float = 4000.0,
    *,
    spectrum: tuple[np.ndarray, np.ndarray] | None = None,
) -> SpectralContrast:
    """Quantify high-frequency content relative to the sub-4 kHz body.

    Live human speech keeps measurable structured energy above ~4 kHz
    while loudspeaker replay rolls off faster; ``high_fraction`` and the
    fitted log-log decay slope capture that contrast.  ``spectrum`` is
    the signal's ``mean_power_spectrum(signal, sample_rate)`` when the
    caller already holds it (see
    :meth:`repro.core.preprocessing.DenoisedAudio.spectrum`).
    """
    if spectrum is None:
        spectrum = mean_power_spectrum(signal, sample_rate)
    freqs, power = spectrum
    below = float(power[band_mask(freqs, (100.0, split_hz))].sum())
    above_band = (split_hz, min(16_000.0, sample_rate / 2.0))
    above = float(power[band_mask(freqs, above_band)].sum())
    total = below + above
    fraction = above / total if total > 0 else 0.0
    # Fit a dB-per-octave slope over the 2-12 kHz decay region.
    hi_mask = band_mask(freqs, (2000.0, min(12_000.0, sample_rate / 2.0)))
    slope = 0.0
    if hi_mask.sum() >= 4:
        log_f = np.log2(freqs[hi_mask])
        log_p = 10.0 * np.log10(power[hi_mask] + 1e-20)
        slope = float(np.polyfit(log_f, log_p, 1)[0])
    return SpectralContrast(
        below_4k_energy=below,
        above_4k_energy=above,
        high_fraction=fraction,
        decay_db_per_octave=slope,
    )


def signal_to_noise_ratio_db(signal: np.ndarray, noise: np.ndarray) -> float:
    """SNR in dB between a clean signal and a noise floor estimate."""
    s = np.asarray(signal, dtype=float)
    n = np.asarray(noise, dtype=float)
    signal_power = float(np.mean(s**2))
    noise_power = float(np.mean(n**2))
    if noise_power <= 0:
        return float("inf")
    if signal_power <= 0:
        return float("-inf")
    return 10.0 * np.log10(signal_power / noise_power)

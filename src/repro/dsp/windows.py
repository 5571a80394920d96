"""Analysis windows and frame slicing for short-time processing.

Windows are designed once per length and shared as read-only arrays,
and frames are read-only strided views of the signal rather than
gathered copies: the short-time analyses (:mod:`repro.dsp.stft`, the
VAD) only ever read them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .precision import resolve_dtype


@lru_cache(maxsize=32)
def _cosine_window(length: int, a0: float, a1: float) -> np.ndarray:
    if length < 1:
        raise ValueError("window length must be >= 1")
    n = np.arange(length)
    window = a0 - a1 * np.cos(2.0 * np.pi * n / length)
    window.flags.writeable = False
    return window


def hann(length: int) -> np.ndarray:
    """Periodic Hann window of the given length (suitable for STFT).

    Designed once per length; the returned array is shared and read-only.
    """
    return _cosine_window(length, 0.5, 0.5)


def hamming(length: int) -> np.ndarray:
    """Periodic Hamming window of the given length.

    Designed once per length; the returned array is shared and read-only.
    """
    return _cosine_window(length, 0.54, 0.46)


def get_window(name: str, length: int) -> np.ndarray:
    """Window by name: ``"hann"``, ``"hamming"`` or ``"rect"``."""
    name = name.lower()
    if name == "hann":
        return hann(length)
    if name == "hamming":
        return hamming(length)
    if name in ("rect", "rectangular", "boxcar"):
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}")


def frame_signal(
    signal: np.ndarray, frame_length: int, hop_length: int, pad: bool = True, dtype=None
) -> np.ndarray:
    """Slice a 1-D signal into overlapping frames.

    Returns an array of shape ``(n_frames, frame_length)`` in the
    resolved decision dtype.  When ``pad`` is true the tail is
    zero-padded so no samples are dropped; otherwise only complete
    frames are returned.  The frames are a read-only strided view of
    the signal (or of its zero-padded or dtype-cast copy), not a copy:
    copy them before writing.
    """
    dtype = resolve_dtype(dtype)
    x = np.asarray(signal, dtype=dtype)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D signal, got shape {x.shape}")
    if frame_length < 1 or hop_length < 1:
        raise ValueError("frame_length and hop_length must be >= 1")
    if x.size == 0:
        return np.zeros((0, frame_length), dtype=dtype)
    if pad:
        n_frames = max(1, int(np.ceil(max(x.size - frame_length, 0) / hop_length)) + 1)
        needed = (n_frames - 1) * hop_length + frame_length
        if needed > x.size:
            x = np.concatenate([x, np.zeros(needed - x.size, dtype=dtype)])
    else:
        n_frames = 1 + (x.size - frame_length) // hop_length if x.size >= frame_length else 0
        if n_frames <= 0:
            return np.zeros((0, frame_length), dtype=dtype)
    return sliding_window_view(x, frame_length)[: (n_frames - 1) * hop_length + 1 : hop_length]

"""Sample-rate conversion.

The liveness network consumes 16 kHz audio normalized to zero mean and
unit variance (Section III-A), while the arrays capture at 48 kHz.
:func:`resample` designs its anti-aliasing FIR once per rate ratio.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import signal as sps


@lru_cache(maxsize=16)
def _kaiser_fir(up: int, down: int) -> np.ndarray:
    """The read-only low-pass FIR ``resample_poly`` designs by default.

    Its default ``window=("kaiser", 5.0)`` branch, unscaled: given the
    taps as ``window=``, ``resample_poly`` copies them and scales the
    copy by ``up``, exactly as it does with the taps it designs.
    """
    max_rate = max(up, down)
    taps = sps.firwin(2 * 10 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    taps.flags.writeable = False
    return taps


def resample(audio: np.ndarray, from_rate: int, to_rate: int) -> np.ndarray:
    """Polyphase resampling along the last axis.

    Bit-identical to ``scipy.signal.resample_poly(x, up, down, axis=-1)``
    with its default window, whose taps are designed once per
    ``(up, down)``.
    """
    if from_rate <= 0 or to_rate <= 0:
        raise ValueError("sample rates must be positive")
    x = np.asarray(audio, dtype=float)
    if from_rate == to_rate:
        return x.copy()
    gcd = math.gcd(from_rate, to_rate)
    up = to_rate // gcd
    down = from_rate // gcd
    return sps.resample_poly(x, up, down, axis=-1, window=_kaiser_fir(up, down))


def to_liveness_input(audio: np.ndarray, sample_rate: int, target_rate: int = 16_000) -> np.ndarray:
    """Downsample to the liveness rate and normalize to zero mean, unit var."""
    x = resample(np.asarray(audio, dtype=float), sample_rate, target_rate)
    x = x - x.mean()
    std = x.std()
    if std > 1e-12:
        x = x / std
    return x

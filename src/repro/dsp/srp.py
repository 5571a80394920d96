"""Steered Response Power with Phase Transform (SRP-PHAT).

The SRP of a filter-and-sum beamformer can be written as the sum of the
pairwise GCCs evaluated at the lags implied by the steering delays
(Eq. 6 of the paper).  HeadTalk is the first to use SRP-derived features
for *orientation* (rather than localization): the delay pattern of the
direct path versus reflections differs between forward- and backward-
facing speech, which shows up in the lag-windowed SRP curve and its peaks.
"""

from __future__ import annotations

import numpy as np

from ..arrays.geometry import SPEED_OF_SOUND, MicArray
from .gcc import pairwise_gcc


def srp_phat_lag_curve(
    channels: np.ndarray,
    pairs: list[tuple[int, int]],
    max_lag: int,
    dtype=None,
) -> np.ndarray:
    """Lag-domain SRP: the sum of pairwise GCC-PHAT windows.

    This is the quantity plotted in the paper's Figure 6b (weighted SRP):
    an array of length ``2 * max_lag + 1`` whose peak structure encodes
    the direct path and the strongest reflections.
    """
    gcc = pairwise_gcc(channels, pairs, max_lag, dtype=dtype)
    return gcc.sum(axis=0)


def steering_pair_lags(
    array: MicArray,
    source_position: np.ndarray,
    pairs: list[tuple[int, int]],
    array_position: np.ndarray | None = None,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> np.ndarray:
    """Integer per-pair lags (samples) for a hypothesized source position.

    Each lag is ``(delay_i - delay_j) * sample_rate`` for pair
    ``(i, j)`` — the arrival-time difference ``t_i - t_j``, matching the
    GCC-PHAT sign convention (positive when mic ``j`` hears the source
    first), so the lag indexes the pair's GCC window directly.
    """
    delays = array.steering_delays(source_position, array_position, speed_of_sound)
    lags = [
        int(round((delays[i] - delays[j]) * array.sample_rate)) for i, j in pairs
    ]
    return np.asarray(lags, dtype=int)


def srp_max_lag_for(array: MicArray, margin_samples: int = 0) -> int:
    """Lag half-window sized to the array aperture.

    The paper sizes the SRP window to the maximum physical delay between
    orthogonal microphones: +-0.25 ms (25 lags) for D1, +-0.27 ms
    (27 lags) for D2 and +-0.2 ms (21 lags) for D3 at 48 kHz.  Computing
    ``ceil(aperture / c * fs)`` on our geometries reproduces those widths
    (half-windows of 12, 13 and 10 samples respectively).
    """
    if margin_samples < 0:
        raise ValueError("margin_samples must be >= 0")
    return array.max_delay_samples() + margin_samples

"""Per-geometry decision plans: pair lists, lag windows, steering lags.

Every decision over a given device geometry re-derives the same small
facts: the microphone pair list, the aperture-sized correlation half
window, and — in steering sweeps — the integer per-pair lags of each
hypothesized source position.  None is individually expensive, but they
sit on the per-decision hot path and are pure functions of
``(geometry, fs)``.

:func:`plan_for` memoizes an :class:`ArrayPlan` per geometry (keyed by
the microphone positions and sample rate, not the device name, so a
``subset()`` with identical coordinates shares a plan).  Each plan
memoizes steering lags per source position.  Cache traffic is
observable through the shared ``runtime.cache.*`` counters
(``cache=plan`` / ``cache=steering``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arrays.geometry import MicArray
from ..dsp.srp import srp_max_lag_for, steering_pair_lags
from .cache import _LruCache

_PLAN_ENTRIES = 32
_STEERING_ENTRIES = 256


@dataclass(frozen=True, eq=False)
class ArrayPlan:
    """Immutable per-``(geometry, fs)`` decision plan.

    Holds the derived geometry facts every extractor call needs and a
    small memo of steering lags per source position.  Thread-safe;
    obtain instances via :func:`plan_for`.
    """

    array: MicArray
    pairs: tuple[tuple[int, int], ...]
    max_lag: int
    _steering: _LruCache = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_steering", _LruCache(_STEERING_ENTRIES, name="steering"))

    @property
    def window(self) -> int:
        """Correlation window length ``2 * max_lag + 1``."""
        return 2 * self.max_lag + 1

    @property
    def min_samples(self) -> int:
        """Shortest utterance admissible for correlation analysis."""
        return 4 * (self.max_lag + 1)

    @property
    def pair_list(self) -> list[tuple[int, int]]:
        """The pairs as the mutable list the dsp functions accept."""
        return list(self.pairs)

    def steering_lags(
        self,
        source_position: np.ndarray,
        array_position: np.ndarray | None = None,
    ) -> np.ndarray:
        """Memoized :func:`repro.dsp.srp.steering_pair_lags` for this plan.

        Keyed by the exact bytes of the (world-frame) positions; the
        returned array is read-only and shared between hits.
        """
        source = np.ascontiguousarray(source_position, dtype=float)
        origin = (
            None
            if array_position is None
            else np.ascontiguousarray(array_position, dtype=float)
        )
        key = (source.tobytes(), None if origin is None else origin.tobytes())
        lags = self._steering.get(key)
        if lags is None:
            lags = steering_pair_lags(self.array, source, self.pair_list, origin)
            lags.setflags(write=False)
            self._steering.put(key, lags)
        return lags


_PLANS = _LruCache(_PLAN_ENTRIES, name="plan")


def _geometry_key(array: MicArray) -> tuple:
    pos = np.ascontiguousarray(array.positions, dtype=float)
    return (pos.shape, pos.tobytes(), int(array.sample_rate))


def plan_for(array: MicArray) -> ArrayPlan:
    """The (memoized) :class:`ArrayPlan` for an array geometry.

    Two arrays with identical microphone coordinates and sample rate
    share one plan regardless of name; the plan's pair list and lag
    window are exactly ``array.pairs()`` / ``srp_max_lag_for(array)``.
    """
    key = _geometry_key(array)
    plan = _PLANS.get(key)
    if plan is None:
        plan = ArrayPlan(
            array=array,
            pairs=tuple(array.pairs()),
            max_lag=srp_max_lag_for(array),
        )
        _PLANS.put(key, plan)
    return plan


def clear_plans() -> None:
    """Drop every memoized plan (resets statistics); used by tests."""
    _PLANS.clear()


def plan_stats():
    """Hit/miss statistics of the plan cache."""
    return _PLANS.stats

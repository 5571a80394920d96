"""Per-geometry decision plans: pair lists and lag windows.

Every decision over a given device geometry re-derives the same small
facts: the microphone pair list and the aperture-sized correlation half
window.  Neither is individually expensive, but they sit on the
per-decision hot path and are pure functions of ``(geometry, fs)``.

:func:`plan_for` memoizes an :class:`ArrayPlan` per geometry (keyed by
the microphone positions and sample rate, not the device name, so a
``subset()`` with identical coordinates shares a plan).  Cache traffic
is observable through the shared ``runtime.cache.*`` counters
(``cache=plan``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays.geometry import MicArray
from ..dsp.srp import srp_max_lag_for
from .cache import _LruCache

_PLAN_ENTRIES = 32


@dataclass(frozen=True, eq=False)
class ArrayPlan:
    """Immutable per-``(geometry, fs)`` decision plan.

    Holds the derived geometry facts every extractor call needs.
    Obtain instances via :func:`plan_for`.
    """

    array: MicArray
    pairs: tuple[tuple[int, int], ...]
    max_lag: int

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

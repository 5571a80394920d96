"""Tests for the per-geometry decision-plan cache (``repro.runtime.plan``)."""

import numpy as np
import pytest

from repro.arrays import MicArray, get_device
from repro.dsp import srp_max_lag_for
from repro.runtime import clear_plans, plan_for, plan_stats


@pytest.fixture(autouse=True)
def _fresh_plans():
    clear_plans()
    yield
    clear_plans()


class TestPlanFor:
    def test_plan_matches_array_facts(self):
        array = get_device("D2")
        plan = plan_for(array)
        assert plan.pairs == tuple(array.pairs())
        assert plan.max_lag == srp_max_lag_for(array)
        assert plan.window == 2 * plan.max_lag + 1
        assert plan.min_samples == 4 * (plan.max_lag + 1)
        assert plan.pair_list == array.pairs()

    def test_memoized_per_geometry(self):
        array = get_device("D1")
        first = plan_for(array)
        again = plan_for(array)
        assert first is again
        stats = plan_stats()
        assert stats.misses == 1
        assert stats.hits == 1

    def test_identical_coordinates_share_a_plan(self):
        raw = np.array([[-0.05, 0.0, 0.0], [0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.0, 0.05, 0.0]])
        first = MicArray("one-name", raw, sample_rate=48_000)
        second = MicArray("other-name", raw, sample_rate=48_000)
        assert plan_for(first) is plan_for(second)

    def test_different_geometries_get_distinct_plans(self):
        assert plan_for(get_device("D2")) is not plan_for(get_device("D3"))

    def test_subset_gets_its_own_plan(self):
        d2 = get_device("D2")
        subset = d2.subset([0, 1, 3, 4])
        assert plan_for(subset) is not plan_for(d2)
        assert plan_for(subset).max_lag == srp_max_lag_for(subset)

    def test_clear_plans_resets(self):
        plan_for(get_device("D3"))
        clear_plans()
        assert plan_stats().misses == 0
        assert plan_stats().hits == 0

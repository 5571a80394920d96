"""Tests for SRP-PHAT."""

import numpy as np
import pytest

from repro.arrays import MicArray, get_device
from repro.dsp import srp_max_lag_for, srp_phat_lag_curve, steering_pair_lags


@pytest.fixture()
def linear_array():
    positions = np.array([[-0.05, 0, 0], [0.0, 0, 0], [0.05, 0, 0]])
    return MicArray("lin", positions, sample_rate=48_000)


def propagate(array: MicArray, source: np.ndarray, n: int = 4096, seed: int = 0):
    """Ideal anechoic propagation of white noise to each mic."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n + 64)
    delays = array.steering_delays(source)
    samples = np.round((delays - delays.min()) * array.sample_rate).astype(int)
    return np.stack([base[32 - s : 32 - s + n] for s in samples])


class TestLagCurve:
    def test_peak_at_zero_for_broadside(self, linear_array):
        source = np.array([0.0, 3.0, 0.0])  # broadside: equal delays
        channels = propagate(linear_array, source)
        curve = srp_phat_lag_curve(channels, linear_array.pairs(), max_lag=8)
        assert int(np.argmax(curve)) == 8

    def test_coherent_source_beats_incoherent(self, linear_array):
        source = np.array([0.0, 3.0, 0.0])
        coherent = propagate(linear_array, source)
        rng = np.random.default_rng(9)
        incoherent = rng.standard_normal(coherent.shape)
        peak_c = srp_phat_lag_curve(coherent, linear_array.pairs(), 8).max()
        peak_i = srp_phat_lag_curve(incoherent, linear_array.pairs(), 8).max()
        assert peak_c > 2 * peak_i


class TestSteering:
    def test_pair_lags_zero_for_equidistant(self, linear_array):
        lags = steering_pair_lags(
            linear_array, np.array([0.0, 5.0, 0.0]), linear_array.pairs()
        )
        assert np.all(lags == 0)

    def test_endfire_lags_match_spacing(self, linear_array):
        lags = steering_pair_lags(
            linear_array, np.array([100.0, 0.0, 0.0]), linear_array.pairs()
        )
        # Pair (0, 2): mic0 is 0.1 m farther -> positive delay difference.
        pair_index = linear_array.pairs().index((0, 2))
        expected = round(0.1 / 343.0 * 48_000)
        assert lags[pair_index] == expected


class TestMaxLag:
    def test_paper_windows(self):
        assert srp_max_lag_for(get_device("D2")) == 13

    def test_margin(self):
        base = srp_max_lag_for(get_device("D3"))
        assert srp_max_lag_for(get_device("D3"), margin_samples=2) == base + 2

    def test_margin_validation(self):
        with pytest.raises(ValueError):
            srp_max_lag_for(get_device("D3"), margin_samples=-1)

"""Cross-module property-based tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import segment_stream
from repro.ml.calibration import brier_score, expected_calibration_error
from repro.userstudy import sus_score


class TestSegmenterProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_segments_sorted_disjoint_and_in_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = 48_000 * 2
        stream = 0.01 * rng.standard_normal(n)
        # Random loud bursts.
        for _ in range(rng.integers(0, 4)):
            start = int(rng.integers(0, n - 4800))
            stream[start : start + 4800] += rng.standard_normal(4800)
        segments = segment_stream(stream, 48_000)
        previous_end = 0
        for segment in segments:
            assert 0 <= segment.start < segment.end <= n
            assert segment.start >= previous_end - 4_800  # small overlap pad only
            previous_end = segment.end


class TestCalibrationProperties:
    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_metrics_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = 64
        y = rng.integers(0, 2, n)
        p = rng.random(n)
        assert 0.0 <= expected_calibration_error(y, p) <= 1.0
        assert 0.0 <= brier_score(y, p) <= 1.0

    @given(st.integers(0, 5000))
    @settings(max_examples=25, deadline=None)
    def test_true_labels_have_zero_brier(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, 32)
        assert brier_score(y, y.astype(float)) == 0.0


class TestSusProperties:
    @given(st.lists(st.integers(1, 5), min_size=10, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_complement_symmetry(self, responses):
        """Flipping every answer (6 - r) mirrors the score around 50."""
        r = np.asarray(responses)
        flipped = 6 - r
        assert sus_score(r) + sus_score(flipped) == pytest.approx(100.0)

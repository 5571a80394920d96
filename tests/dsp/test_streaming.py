"""FrameFeed / GccAccumulator: chunked streams equal whole captures."""

import numpy as np
import pytest

from repro.dsp import (
    FrameFeed,
    GccAccumulator,
    extract_frames,
    pairwise_gcc_frames,
)

# Reference calls slice whole signals with pad=False, so the trailing
# partial frame is dropped on purpose; the one-time truncation warning
# is expected here, not a defect.
pytestmark = pytest.mark.filterwarnings("ignore:extract_frames")

RNG = np.random.default_rng(7)


def _signal(n_mics=4, n_samples=20_000):
    return RNG.standard_normal((n_mics, n_samples))


def _chunks(x, sizes):
    start = 0
    while start < x.shape[1]:
        size = sizes[0] if isinstance(sizes, list) else sizes
        if isinstance(sizes, list):
            sizes = sizes[1:] + sizes[:1]
        yield x[:, start : start + size]
        start += size


class TestFrameFeed:
    @pytest.mark.parametrize("chunk", [2048, 1000, 333, 4096, 1])
    def test_frames_invariant_to_chunking(self, chunk):
        x = _signal(2, 9_000)
        frame, hop = 1024, 512
        whole = extract_frames(x, frame, hop, pad=False)
        feed = FrameFeed(2, frame, hop)
        streamed = [f for c in _chunks(x, chunk) for f in feed.push(c)]
        assert len(streamed) == whole.shape[0]
        assert np.array_equal(np.stack(streamed), whole)

    def test_irregular_chunking_matches_too(self):
        x = _signal(3, 12_345)
        frame, hop = 2048, 2048
        whole = extract_frames(x, frame, hop, pad=False)
        feed = FrameFeed(3, frame, hop)
        streamed = [f for c in _chunks(x, [700, 1, 5000, 123]) for f in feed.push(c)]
        assert np.array_equal(np.stack(streamed), whole)

    def test_hop_larger_than_frame_skips_the_gap(self):
        x = _signal(2, 10_000)
        frame, hop = 512, 1500
        whole = extract_frames(x, frame, hop, pad=False)
        feed = FrameFeed(2, frame, hop)
        streamed = [f for c in _chunks(x, 600) for f in feed.push(c)]
        assert np.array_equal(np.stack(streamed), whole)

    def test_counts_and_carry(self):
        feed = FrameFeed(2, 1024, 1024)
        assert feed.push(np.zeros((2, 1000))).shape[0] == 0
        assert feed.buffered == 1000
        assert feed.push(np.zeros((2, 24))).shape[0] == 1
        assert feed.buffered == 0
        assert feed.samples_seen == 1024
        assert feed.frames_emitted == 1

    def test_wrong_channel_count_rejected(self):
        feed = FrameFeed(4, 1024, 1024)
        with pytest.raises(ValueError):
            feed.push(np.zeros((2, 1024)))


class TestGccAccumulator:
    PAIRS = [(0, 1), (0, 2), (1, 3)]
    MAX_LAG = 16

    def test_mean_matches_whole_capture_gcc(self):
        x = _signal(4, 18_000)
        frame, hop = 2048, 2048
        whole = pairwise_gcc_frames(x, self.PAIRS, self.MAX_LAG, frame, hop, pad=False)
        acc = GccAccumulator(4, self.PAIRS, self.MAX_LAG, frame, hop)
        for chunk in _chunks(x, 1000):
            acc.push(chunk)
        assert acc.n_frames == whole.shape[0]
        assert np.allclose(acc.mean_gcc(), whole.mean(axis=0), rtol=1e-9, atol=1e-12)

    def test_srp_argmax_is_chunking_invariant(self):
        x = _signal(4, 18_000)
        lags = set()
        for chunk in (2048, 700, 5000, 16384, 333):
            acc = GccAccumulator(4, self.PAIRS, self.MAX_LAG, 2048, 2048)
            for piece in _chunks(x, chunk):
                acc.push(piece)
            lags.add(acc.srp_argmax_lag())
        assert len(lags) == 1

    def test_push_reports_new_frames(self):
        acc = GccAccumulator(2, [(0, 1)], 8, 1024, 1024)
        assert acc.push(np.zeros((2, 1000))) == 0
        assert acc.push(RNG.standard_normal((2, 1072))) == 2
        assert acc.n_frames == 2
        assert acc.samples_seen == 2072

    def test_tdoa_lags_shape(self):
        acc = GccAccumulator(4, self.PAIRS, self.MAX_LAG, 1024, 1024)
        acc.push(RNG.standard_normal((4, 4096)))
        assert acc.tdoa_lags().shape == (len(self.PAIRS),)
        assert acc.srp().shape == (2 * self.MAX_LAG + 1,)

    def test_empty_accumulator_is_safe(self):
        acc = GccAccumulator(2, [(0, 1)], 8, 1024, 1024)
        assert acc.n_frames == 0
        assert np.array_equal(acc.mean_gcc(), np.zeros((1, 17)))
        assert acc.srp_argmax_lag() == -8  # argmax of zeros is index 0

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            GccAccumulator(2, [(0, 5)], 8, 1024, 1024)

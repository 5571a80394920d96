"""GccAccumulator: a stream pushed in any steps equals the whole capture."""

import numpy as np
import pytest

import repro.dsp.streaming as dsp_streaming
from repro.dsp import GccAccumulator, extract_frames, pairwise_gcc_frames

# Reference calls slice whole signals with pad=False, so the trailing
# partial frame is dropped on purpose; the one-time truncation warning
# is expected here, not a defect.
pytestmark = pytest.mark.filterwarnings("ignore:extract_frames")

RNG = np.random.default_rng(7)


def _signal(n_mics=4, n_samples=20_000):
    return RNG.standard_normal((n_mics, n_samples))


def _stream(acc, x, steps):
    """Push the stream so far after each step; ``steps`` cycles if a list."""
    steps = steps if isinstance(steps, list) else [steps]
    end, k = 0, 0
    while end < x.shape[1]:
        end = min(end + steps[k % len(steps)], x.shape[1])
        k += 1
        acc.push(x[:, :end])
    return acc


@pytest.fixture
def fed_frames(monkeypatch):
    """Record each frame the accumulator hands to the whitening kernel."""
    frames = []
    real = dsp_streaming._whitened_pairs

    def recording(x, *args, **kwargs):
        frames.append(np.array(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(dsp_streaming, "_whitened_pairs", recording)
    return frames


class TestFrameFeed:
    """The frames cut from a growing stream are ``extract_frames``' frames."""

    @pytest.mark.parametrize("chunk", [2048, 1000, 333, 4096, 1])
    def test_frames_invariant_to_chunking(self, chunk, fed_frames):
        x = _signal(2, 9_000)
        frame, hop = 1024, 512
        whole = extract_frames(x, frame, hop, pad=False)
        acc = _stream(GccAccumulator(2, [(0, 1)], 8, frame, hop), x, chunk)
        assert len(fed_frames) == acc.n_frames == whole.shape[0]
        assert np.array_equal(np.stack(fed_frames), whole.astype(acc.dtype))

    def test_irregular_chunking_matches_too(self, fed_frames):
        x = _signal(3, 12_345)
        frame, hop = 2048, 2048
        whole = extract_frames(x, frame, hop, pad=False)
        acc = _stream(GccAccumulator(3, [(0, 1), (1, 2)], 8, frame, hop), x, [700, 1, 5000, 123])
        assert np.array_equal(np.stack(fed_frames), whole.astype(acc.dtype))

    def test_hop_larger_than_frame_skips_the_gap(self, fed_frames):
        x = _signal(2, 10_000)
        frame, hop = 512, 1500
        whole = extract_frames(x, frame, hop, pad=False)
        acc = _stream(GccAccumulator(2, [(0, 1)], 8, frame, hop), x, 600)
        assert np.array_equal(np.stack(fed_frames), whole.astype(acc.dtype))

    def test_counts_and_carry(self, fed_frames):
        x = RNG.standard_normal((2, 1024))
        acc = GccAccumulator(2, [(0, 1)], 8, 1024, 1024)
        assert acc.push(x[:, :1000]) == 0
        assert fed_frames == []
        # The 1,000 samples short of a frame are read once the stream grows.
        assert acc.push(x) == 1
        assert acc.n_frames == 1
        assert len(fed_frames) == 1
        assert np.array_equal(fed_frames[0], x.astype(acc.dtype))


class TestGccAccumulator:
    PAIRS = [(0, 1), (0, 2), (1, 3)]
    MAX_LAG = 16

    def test_mean_matches_whole_capture_gcc(self):
        x = _signal(4, 18_000)
        # Hop equal to, shorter than (overlap) and longer than (gap) a frame.
        for frame, hop in ((2048, 2048), (1024, 512), (512, 1500)):
            whole = pairwise_gcc_frames(x, self.PAIRS, self.MAX_LAG, frame, hop, pad=False)
            acc = _stream(GccAccumulator(4, self.PAIRS, self.MAX_LAG, frame, hop), x, 1000)
            assert acc.n_frames == whole.shape[0]
            assert np.allclose(acc.mean_gcc(), whole.mean(axis=0), rtol=1e-9, atol=1e-12)

    def test_srp_argmax_is_chunking_invariant(self):
        x = _signal(4, 18_000)
        sums, lags = set(), set()
        for steps in (1, 333, 2048, 4096, 16384, [700, 1, 5000, 123]):
            acc = _stream(GccAccumulator(4, self.PAIRS, self.MAX_LAG, 2048, 2048), x, steps)
            assert acc.n_frames == 8
            sums.add(acc.gcc_sum.tobytes())
            lags.add(acc.srp_argmax_lag())
        assert len(sums) == 1
        assert len(lags) == 1

    def test_push_reports_new_frames(self):
        x = RNG.standard_normal((2, 2072))
        acc = GccAccumulator(2, [(0, 1)], 8, 1024, 1024)
        assert acc.push(x[:, :1000]) == 0
        assert acc.push(x) == 2
        assert acc.n_frames == 2

    def test_stream_that_stops_growing_adds_nothing(self):
        x = RNG.standard_normal((2, 4096))
        acc = GccAccumulator(2, [(0, 1)], 8, 1024, 1024)
        assert acc.push(x) == 4
        before = acc.gcc_sum.tobytes()
        assert acc.push(x) == 0
        assert acc.push(x[:, :3000]) == 0
        assert acc.n_frames == 4
        assert acc.gcc_sum.tobytes() == before

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

    @pytest.mark.parametrize("shape", [(2, 1024), (4,), (1, 4, 1024)])
    def test_wrong_shape_stream_rejected(self, shape):
        acc = GccAccumulator(4, self.PAIRS, self.MAX_LAG, 1024, 1024)
        with pytest.raises(ValueError, match="samples must be"):
            acc.push(np.zeros(shape))

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ValueError):
            GccAccumulator(2, [(0, 5)], 8, 1024, 1024)

    @pytest.mark.parametrize(
        "n_mics, frame, hop, max_lag",
        [(0, 1024, 1024, 8), (2, 0, 1024, 8), (2, 1024, 0, 8), (2, 1024, 1024, -1)],
    )
    def test_invalid_geometry_rejected(self, n_mics, frame, hop, max_lag):
        with pytest.raises(ValueError, match=">= 0|>= 1"):
            GccAccumulator(n_mics, [(0, 1)], max_lag, frame, hop)

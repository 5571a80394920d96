"""Tests for analysis windows and framing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import frame_signal, get_window, hamming, hann


class TestWindows:
    def test_hann_endpoints_and_peak(self):
        w = hann(64)
        assert w[0] == pytest.approx(0.0)
        assert w.max() <= 1.0

    def test_hamming_floor(self):
        w = hamming(64)
        assert w.min() == pytest.approx(0.08, abs=1e-9)

    def test_get_window_names(self):
        assert np.allclose(get_window("rect", 8), 1.0)
        assert np.allclose(get_window("hann", 8), hann(8))

    def test_get_window_unknown(self):
        with pytest.raises(ValueError, match="unknown window"):
            get_window("kaiser", 8)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            hann(0)

    def test_hann_cola_at_half_overlap(self):
        """Periodic Hann windows at 50% hop sum to a constant (COLA)."""
        w = hann(64)
        total = w[:32] + w[32:]
        assert np.allclose(total, total[0])


class TestFraming:
    def test_shapes(self):
        frames = frame_signal(np.arange(100.0), 30, 10)
        assert frames.shape[1] == 30

    def test_hop_offsets(self):
        frames = frame_signal(np.arange(100.0), 20, 10, pad=False)
        assert frames[1, 0] == 10.0

    def test_no_pad_drops_tail(self):
        frames = frame_signal(np.arange(25.0), 10, 10, pad=False)
        assert frames.shape[0] == 2

    def test_pad_keeps_tail(self):
        frames = frame_signal(np.arange(25.0), 10, 10, pad=True)
        assert frames.shape[0] == 3
        assert frames[-1, -1] == 0.0

    def test_short_signal_no_pad(self):
        frames = frame_signal(np.arange(5.0), 10, 5, pad=False)
        assert frames.shape[0] == 0

    def test_empty_signal(self):
        assert frame_signal(np.array([]), 10, 5).shape == (0, 10)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            frame_signal(np.zeros((3, 3)), 2, 1)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            frame_signal(np.zeros(10), 0, 1)

    @given(
        n=st.integers(1, 200),
        frame=st.integers(1, 50),
        hop=st.integers(1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_padded_framing_covers_all_samples(self, n, frame, hop):
        """Every input sample appears at its expected frame position."""
        x = np.arange(float(n))
        frames = frame_signal(x, frame, hop, pad=True)
        n_frames = frames.shape[0]
        assert (n_frames - 1) * hop + frame >= n
        for k in range(min(n_frames, 5)):
            start = k * hop
            expected = x[start : start + frame]
            assert np.allclose(frames[k, : expected.size], expected)


def _gathered_frames(x, frame, hop, pad):
    """Frames by fancy-index gather: the copying reference."""
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.zeros((0, frame))
    if pad:
        n_frames = max(1, int(np.ceil(max(x.size - frame, 0) / hop)) + 1)
        x = np.concatenate([x, np.zeros(max((n_frames - 1) * hop + frame - x.size, 0))])
    else:
        n_frames = 1 + (x.size - frame) // hop if x.size >= frame else 0
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[idx] if n_frames else np.zeros((0, frame))


class TestSharedArrays:
    @pytest.mark.parametrize("pad", [True, False])
    @pytest.mark.parametrize("n,frame,hop", [(100, 30, 10), (1000, 480, 240), (25, 10, 10),
                                             (4096, 1024, 512), (7, 10, 5), (37, 8, 11)])
    def test_frames_equal_the_gathered_frames(self, n, frame, hop, pad):
        x = np.random.default_rng(n).standard_normal(n)
        frames = frame_signal(x, frame, hop, pad=pad)
        expected = _gathered_frames(x, frame, hop, pad)
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()

    def test_frames_are_read_only(self):
        frames = frame_signal(np.arange(100.0), 30, 10)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0

    @pytest.mark.parametrize("length", [1, 7, 480, 1024])
    def test_windows_are_shared_read_only_and_equal_a_fresh_design(self, length):
        n = np.arange(length)
        fresh = {
            hann: 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length),
            hamming: 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length),
        }
        for window, expected in fresh.items():
            assert window(length) is window(length)
            assert not window(length).flags.writeable
            assert window(length).tobytes() == expected.tobytes()

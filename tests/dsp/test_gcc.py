"""Tests for GCC-PHAT and TDoA estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import (
    estimate_tdoa,
    extract_frames,
    gcc_phat,
    lag_axis,
    pairwise_gcc,
    pairwise_gcc_batch,
    pairwise_gcc_frames,
    pairwise_gcc_framewise,
    precision,
)


def delayed_pair(delay: int, n: int = 4096, seed: int = 0):
    """White signal and a copy delayed by `delay` samples (b lags a)."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n + abs(delay))
    a = base[abs(delay) :][:n] if delay >= 0 else base[: n]
    b = base[: n] if delay >= 0 else base[abs(delay) :][:n]
    return a, b


class TestGccPhat:
    def test_zero_delay_peak_at_center(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2048)
        corr = gcc_phat(x, x, max_lag=10)
        assert int(np.argmax(corr)) == 10

    def test_output_length(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(512)
        assert gcc_phat(x, x, max_lag=7).size == 15

    def test_known_integer_delay(self):
        a, b = delayed_pair(5)
        corr = gcc_phat(a, b, max_lag=10)
        assert int(np.argmax(corr)) - 10 == -5

    def test_amplitude_invariance(self):
        """PHAT whitening makes the peak location scale-invariant."""
        a, b = delayed_pair(3)
        corr1 = gcc_phat(a, b, max_lag=8)
        corr2 = gcc_phat(100.0 * a, 0.01 * b, max_lag=8)
        assert int(np.argmax(corr1)) == int(np.argmax(corr2))

    def test_validation(self):
        with pytest.raises(ValueError):
            gcc_phat(np.array([]), np.array([1.0]), 4)
        with pytest.raises(ValueError):
            gcc_phat(np.ones(8), np.ones(8), -1)

    @given(delay=st.integers(-8, 8))
    @settings(max_examples=20, deadline=None)
    def test_recovers_any_integer_delay(self, delay):
        a, b = delayed_pair(delay, seed=42)
        corr = gcc_phat(a, b, max_lag=12)
        assert int(np.argmax(corr)) - 12 == -delay


class TestLagAxis:
    def test_symmetric_in_seconds(self):
        lags = lag_axis(5, 1000)
        assert lags[0] == pytest.approx(-0.005)
        assert lags[-1] == pytest.approx(0.005)
        assert lags[5] == 0.0


class TestEstimateTdoa:
    def test_sign_convention(self):
        """Positive TDoA when the second signal leads."""
        a, b = delayed_pair(4)
        tdoa = estimate_tdoa(a, b, max_lag=10, sample_rate=48_000)
        assert tdoa == pytest.approx(-4 / 48_000)

    def test_noise_robustness(self):
        rng = np.random.default_rng(3)
        a, b = delayed_pair(6, n=8192)
        a = a + 0.5 * rng.standard_normal(a.size)
        b = b + 0.5 * rng.standard_normal(b.size)
        tdoa = estimate_tdoa(a, b, max_lag=10, sample_rate=48_000)
        assert tdoa == pytest.approx(-6 / 48_000, abs=1.1 / 48_000)


class TestPairwiseGcc:
    def test_shape(self):
        rng = np.random.default_rng(0)
        channels = rng.standard_normal((4, 1024))
        out = pairwise_gcc(channels, [(0, 1), (1, 2), (2, 3)], max_lag=9)
        assert out.shape == (3, 19)

    def test_matches_single_pair(self):
        rng = np.random.default_rng(0)
        channels = rng.standard_normal((2, 1024))
        stacked = pairwise_gcc(channels, [(0, 1)], max_lag=6)
        single = gcc_phat(channels[0], channels[1], max_lag=6)
        assert np.allclose(stacked[0], single, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_mics"):
            pairwise_gcc(np.zeros(10), [(0, 1)], 4)
        with pytest.raises(ValueError, match="non-empty"):
            pairwise_gcc(np.zeros((2, 10)), [], 4)


class TestWideWindowRegression:
    """The FFT must be sized so the requested lag window always fits.

    Sizing by signal length alone silently clamped ``max_lag`` to
    ``n_fft // 2 - 1`` for short signals, returning a narrower window
    than requested and shifting the centre ``estimate_tdoa`` assumed.
    """

    def test_window_never_clamped_for_short_signals(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(30)
        corr = gcc_phat(a, a, max_lag=40)
        assert corr.size == 2 * 40 + 1
        assert int(np.argmax(corr)) == 40

    def test_short_signal_delay_recovered_with_wide_window(self):
        # max_lag 40 exceeds the old clamp (31 for 30-sample signals).
        a, b = delayed_pair(10, n=30, seed=11)
        corr = gcc_phat(a, b, max_lag=40)
        assert corr.size == 81
        assert int(np.argmax(corr)) - 40 == -10

    def test_estimate_tdoa_uses_requested_lag(self):
        a, b = delayed_pair(10, n=30, seed=11)
        tdoa = estimate_tdoa(a, b, max_lag=40, sample_rate=48_000)
        assert tdoa == pytest.approx(-10 / 48_000)

    def test_pairwise_window_never_clamped(self):
        rng = np.random.default_rng(9)
        channels = rng.standard_normal((2, 30))
        out = pairwise_gcc(channels, [(0, 1)], max_lag=40)
        assert out.shape == (1, 81)
        single = gcc_phat(channels[0], channels[1], max_lag=40)
        assert np.array_equal(out[0], single)


class TestSignConventionAgainstGeometry:
    """Pin lag = t_a - t_b and its agreement with steering_pair_lags."""

    def test_positive_lag_means_a_lags_b(self):
        # a(t) = b(t - 7): wavefront reached b first, a lags by 7.
        rng = np.random.default_rng(5)
        base = rng.standard_normal(4096)
        a, b = np.roll(base, 7), base
        corr = gcc_phat(a, b, max_lag=12)
        assert int(np.argmax(corr)) - 12 == 7
        assert estimate_tdoa(a, b, max_lag=12, sample_rate=48_000) == pytest.approx(
            7 / 48_000
        )

    def test_agrees_with_steering_pair_lags(self):
        from repro.arrays.geometry import SPEED_OF_SOUND, MicArray
        from repro.dsp.srp import steering_pair_lags

        fs = 48_000
        shift = 14  # integer-sample inter-mic delay by construction
        spacing = shift * SPEED_OF_SOUND / fs
        array = MicArray(
            name="pair",
            positions=[(-spacing / 2, 0.0, 0.0), (spacing / 2, 0.0, 0.0)],
            sample_rate=fs,
        )
        source = np.array([10.0, 0.0, 0.0])  # on-axis: exact sample delay
        expected = steering_pair_lags(array, source, [(0, 1)])
        assert expected[0] == shift

        # Mic 1 is nearer the source, so mic 0's channel is the delayed
        # copy; GCC must recover the same positive lag.
        rng = np.random.default_rng(6)
        base = rng.standard_normal(8192)
        channels = np.stack([np.roll(base, shift), base])
        tdoa = estimate_tdoa(channels[0], channels[1], max_lag=20, sample_rate=fs)
        assert round(tdoa * fs) == expected[0]


class TestPairwiseGccBatch:
    def test_matches_serial_bitwise(self):
        rng = np.random.default_rng(2)
        cases = [
            (3, (1024, 1024, 900), 9),
            # Rows of 4,097-8,193 bins: too short for numpy to elide the
            # conj temporary, while a stacked product over 6 pairs is long
            # enough to (see the repro.dsp.gcc module docstring).
            (4, (2049, 4500, 8192), 13),
        ]
        for n_mics, lengths, max_lag in cases:
            pairs = [(i, j) for i in range(n_mics) for j in range(i + 1, n_mics)]
            batch = [rng.standard_normal((n_mics, n)) for n in lengths]
            stacked = pairwise_gcc_batch(batch, pairs, max_lag=max_lag)
            assert stacked.shape == (len(batch), len(pairs), 2 * max_lag + 1)
            for got, channels in zip(stacked, batch):
                assert np.array_equal(got, pairwise_gcc(channels, pairs, max_lag=max_lag))

    def test_mixed_fft_lengths_grouped(self):
        """Captures whose lengths quantize to different FFT sizes."""
        rng = np.random.default_rng(3)
        pairs = [(0, 1)]
        batch = [rng.standard_normal((2, n)) for n in (500, 2000, 600, 1500)]
        stacked = pairwise_gcc_batch(batch, pairs, max_lag=6)
        for got, channels in zip(stacked, batch):
            assert np.array_equal(got, pairwise_gcc(channels, pairs, max_lag=6))

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            pairwise_gcc_batch([], [(0, 1)], 4)
        with pytest.raises(ValueError, match="n_mics"):
            pairwise_gcc_batch([np.zeros((2, 64)), np.zeros((3, 64))], [(0, 2)], 4)


class TestExtractFrames:
    def test_shape_and_synchronized_slices(self):
        rng = np.random.default_rng(0)
        channels = rng.standard_normal((3, 1000))
        frames = extract_frames(channels, frame_length=256, hop_length=128)
        assert frames.shape[1:] == (3, 256)
        # Frame t of every mic covers the same time slice.
        assert np.array_equal(frames[0], channels[:, :256])
        assert np.array_equal(frames[1], channels[:, 128:384])

    def test_pad_keeps_tail_and_nopad_drops_it(self):
        channels = np.arange(10, dtype=float).reshape(1, 10)
        padded = extract_frames(channels, frame_length=4, hop_length=3)
        assert padded.shape[0] == 3
        assert np.array_equal(padded[-1, 0], [6.0, 7.0, 8.0, 9.0])
        exact = extract_frames(channels, frame_length=4, hop_length=3, pad=False)
        assert exact.shape[0] == 3  # 10 samples fit 3 complete frames exactly
        short = extract_frames(channels[:, :3], frame_length=4, hop_length=3, pad=False)
        assert short.shape == (0, 1, 4)

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            extract_frames(np.zeros((2, 64)), 0, 1)
        with pytest.raises(ValueError, match="n_mics"):
            extract_frames(np.zeros(64), 8, 4)


class TestPairwiseGccFrames:
    def test_matches_per_frame_pairwise_gcc(self):
        """Frames run through the capture kernel: each frame's windows are
        exactly :func:`pairwise_gcc` on that frame."""
        rng = np.random.default_rng(4)
        channels = rng.standard_normal((3, 1500))
        pairs = [(0, 1), (0, 2), (1, 2)]
        framed = pairwise_gcc_frames(
            channels, pairs, max_lag=9, frame_length=512, hop_length=256
        )
        frames = extract_frames(channels, 512, 256)
        assert framed.shape == (frames.shape[0], 3, 19)
        looped = np.stack([pairwise_gcc(frame, pairs, max_lag=9) for frame in frames])
        assert np.array_equal(framed, looped)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_decider_shape_equals_per_frame_loop(self, dtype):
        """The streaming decider's geometry: 4 mics, 6 pairs, 2,048-sample
        frames, ten of them (stacked whitening used to differ here)."""
        rng = np.random.default_rng(8)
        channels = rng.standard_normal((4, 10 * 2048))
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        framed = pairwise_gcc_frames(channels, pairs, 13, 2048, 2048, dtype=dtype)
        by_frames = pairwise_gcc_framewise(
            extract_frames(channels, 2048, 2048, dtype=dtype), pairs, 13, dtype=dtype
        )
        looped = np.stack(
            [
                pairwise_gcc(channels[:, k * 2048 : (k + 1) * 2048], pairs, 13, dtype=dtype)
                for k in range(10)
            ]
        )
        assert framed.shape == (10, 6, 27)
        assert np.array_equal(framed, looped)
        assert np.array_equal(by_frames, looped)

    def test_short_capture_single_padded_frame(self):
        rng = np.random.default_rng(5)
        channels = rng.standard_normal((2, 100))
        framed = pairwise_gcc_frames(
            channels, [(0, 1)], max_lag=6, frame_length=256, hop_length=128
        )
        assert framed.shape == (1, 1, 13)
        padded = np.zeros((2, 256))
        padded[:, :100] = channels
        assert np.array_equal(framed[0], pairwise_gcc(padded, [(0, 1)], max_lag=6))

    def test_nopad_empty_result(self):
        out = pairwise_gcc_frames(
            np.zeros((2, 10)), [(0, 1)], max_lag=4, frame_length=64,
            hop_length=32, pad=False,
        )
        assert out.shape == (0, 1, 9)

    def test_float32_dtype_and_parity(self):
        rng = np.random.default_rng(6)
        channels = rng.standard_normal((2, 1024))
        pairs = [(0, 1)]
        f64 = pairwise_gcc_frames(channels, pairs, 8, 256, 128)
        f32 = pairwise_gcc_frames(channels, pairs, 8, 256, 128, dtype=np.float32)
        assert f64.dtype == np.float64 and f32.dtype == np.float32
        assert np.allclose(f32, f64, atol=1e-4)


class TestDtypeThreading:
    def test_explicit_dtype_wins(self):
        rng = np.random.default_rng(7)
        channels = rng.standard_normal((2, 512))
        out = pairwise_gcc(channels, [(0, 1)], 6, dtype="float32")
        assert out.dtype == np.float32

    def test_precision_scope_applies(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(512), rng.standard_normal(512)
        with precision("float32"):
            assert gcc_phat(a, b, 8).dtype == np.float32
        assert gcc_phat(a, b, 8).dtype == np.float64

    def test_float32_peak_matches_float64(self):
        a, b = delayed_pair(5, n=2048)
        c64 = gcc_phat(a, b, max_lag=10)
        c32 = gcc_phat(a, b, max_lag=10, dtype=np.float32)
        assert int(np.argmax(c32)) == int(np.argmax(c64))
        assert np.allclose(c32, c64, atol=1e-4)

    def test_batch_float32_matches_serial_float32(self):
        rng = np.random.default_rng(9)
        pairs = [(0, 1), (1, 2)]
        batch = [rng.standard_normal((3, n)) for n in (700, 900)]
        stacked = pairwise_gcc_batch(batch, pairs, 7, dtype=np.float32)
        assert stacked.dtype == np.float32
        for got, channels in zip(stacked, batch):
            assert np.array_equal(got, pairwise_gcc(channels, pairs, 7, dtype=np.float32))


class TestTruncationWarning:
    """extract_frames(pad=False) must not drop a tail silently."""

    @pytest.fixture(autouse=True)
    def fresh_warning_state(self, monkeypatch):
        from repro.obs import REGISTRY, control, observed

        monkeypatch.setattr(control, "_WARNED", set())
        REGISTRY.reset()
        # Restores the enabled flag it found, so an instrumented run
        # stays instrumented after this class.
        with observed(True):
            yield
        REGISTRY.reset()

    def test_dropped_tail_warns_once_and_counts(self):
        import warnings

        from repro.obs import REGISTRY

        x = np.zeros((2, 1024 + 100))
        with pytest.warns(RuntimeWarning, match="dropped 100 trailing samples"):
            frames = extract_frames(x, 1024, 1024, pad=False)
        assert frames.shape[0] == 1
        # Warned once per process; the counter keeps counting.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            extract_frames(x, 1024, 1024, pad=False)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert REGISTRY.counter("dsp.frames.truncated").value == 200.0

    def test_short_signal_counts_every_sample(self):
        from repro.obs import REGISTRY

        with pytest.warns(RuntimeWarning):
            frames = extract_frames(np.zeros((2, 300)), 1024, 1024, pad=False)
        assert frames.shape[0] == 0
        assert REGISTRY.counter("dsp.frames.truncated").value == 300.0

    def test_exact_fit_never_warns(self, recwarn):
        extract_frames(np.zeros((2, 2048)), 1024, 1024, pad=False)
        assert not [w for w in recwarn.list if w.category is RuntimeWarning]

    def test_pad_true_never_warns(self, recwarn):
        extract_frames(np.zeros((2, 1100)), 1024, 1024, pad=True)
        assert not [w for w in recwarn.list if w.category is RuntimeWarning]

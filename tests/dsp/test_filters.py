"""Tests for the Butterworth front-end and the octave filterbank."""

import numpy as np
import pytest
from scipy import signal as sps

from repro.dsp import (
    BandpassFilter,
    band_split,
    filters,
    headtalk_bandpass,
    highpass,
    lowpass,
    octave_band_edges,
)


def tone(freq: float, fs: int = 48_000, seconds: float = 0.2) -> np.ndarray:
    t = np.arange(int(fs * seconds)) / fs
    return np.sin(2 * np.pi * freq * t)


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


class TestBandpass:
    def test_passband_preserved(self):
        bp = BandpassFilter(100, 16_000, 48_000, order=5)
        out = bp.apply(tone(1000))
        assert rms(out) == pytest.approx(rms(tone(1000)), rel=0.05)

    def test_stopband_attenuated(self):
        bp = BandpassFilter(100, 16_000, 48_000, order=5)
        assert rms(bp.apply(tone(20))) < 0.05 * rms(tone(20))
        assert rms(bp.apply(tone(22_000))) < 0.05 * rms(tone(22_000))

    def test_multichannel_last_axis(self):
        bp = BandpassFilter(100, 16_000, 48_000)
        stacked = np.stack([tone(1000), tone(20)])
        out = bp.apply(stacked)
        assert out.shape == stacked.shape
        assert rms(out[0]) > 10 * rms(out[1])

    def test_short_signal_falls_back_to_causal(self):
        bp = BandpassFilter(100, 16_000, 48_000)
        out = bp.apply(np.ones(8))
        assert out.shape == (8,)

    def test_validation(self):
        with pytest.raises(ValueError):
            BandpassFilter(0, 100, 48_000)
        with pytest.raises(ValueError):
            BandpassFilter(100, 30_000, 48_000)
        with pytest.raises(ValueError):
            BandpassFilter(100, 1000, 48_000, order=0)

    def test_headtalk_bandpass_matches_paper(self):
        bp = headtalk_bandpass(48_000)
        assert bp.low_hz == 100.0
        assert bp.high_hz == 16_000.0
        assert bp.order == 5

    def test_headtalk_bandpass_low_rate(self):
        bp = headtalk_bandpass(16_000)
        assert bp.high_hz < 8_000


class TestHighLowPass:
    def test_lowpass_kills_highs(self):
        assert rms(lowpass(tone(8000), 1000, 48_000)) < 0.02

    def test_highpass_kills_lows(self):
        assert rms(highpass(tone(100), 2000, 48_000)) < 0.02

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            lowpass(tone(100), 0, 48_000)
        with pytest.raises(ValueError):
            highpass(tone(100), 25_000, 48_000)


class TestOctaveBands:
    def test_bands_double(self):
        edges = octave_band_edges(48_000, low_hz=125, n_bands=6)
        for lo, hi in edges:
            assert hi == pytest.approx(2 * lo, rel=0.02) or hi >= 0.9 * 24_000 * 0.98

    def test_bands_stop_below_nyquist(self):
        edges = octave_band_edges(16_000, low_hz=125, n_bands=12)
        assert edges[-1][1] <= 8000

    def test_validation(self):
        with pytest.raises(ValueError):
            octave_band_edges(48_000, n_bands=0)

    def test_band_split_energy_partition(self):
        """Band components approximately reconstruct the original."""
        fs = 48_000
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        edges = octave_band_edges(fs, 125, 7)
        parts = band_split(x, fs, edges)
        assert len(parts) == len(edges)
        recon = np.sum(parts, axis=0)
        # Mid-band content should survive the split+sum round trip.
        mid = lowpass(highpass(x, 300, fs), 6000, fs)
        mid_recon = lowpass(highpass(recon, 300, fs), 6000, fs)
        correlation = np.corrcoef(mid, mid_recon)[0, 1]
        assert correlation > 0.9

    def test_band_split_isolates_tones(self):
        fs = 48_000
        edges = octave_band_edges(fs, 125, 7)
        x = tone(1400, fs)  # falls in the 1-2 kHz band
        parts = band_split(x, fs, edges)
        energies = [rms(p) for p in parts]
        best = int(np.argmax(energies))
        lo, hi = edges[best]
        assert lo <= 1400 <= hi

    def test_single_band_passthrough(self):
        x = tone(1000)
        parts = band_split(x, 48_000, [(100.0, 16_000.0)])
        assert np.allclose(parts[0], x)


class TestDesignMemo:
    """Each Butterworth design is computed once and reused bit for bit."""

    @pytest.fixture
    def butter_calls(self, monkeypatch):
        calls = []
        original = sps.butter

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(filters.sps, "butter", counted)
        filters._butter_design.cache_clear()
        yield calls
        filters._butter_design.cache_clear()

    def test_outputs_equal_a_fresh_design(self, butter_calls):
        fs = 48_000
        x = np.random.default_rng(0).standard_normal((4, 5000))
        short = x[:, :20]  # too short for filtfilt padding: the causal path
        band = BandpassFilter(100, 16_000, fs)

        def fresh(order, edges, btype):
            return sps.butter(order, edges, btype, fs=fs, output="sos")

        edge = x[:, :34]  # one sample over the band-pass padlen of 33
        view = x[::2, ::3]  # non-contiguous
        split_band = BandpassFilter(250, 500, fs, order=4)
        cases = [
            (lambda: band.apply(x), sps.sosfiltfilt(fresh(5, [100, 16_000], "bandpass"), x)),
            (lambda: band.apply(short), sps.sosfilt(fresh(5, [100, 16_000], "bandpass"), short)),
            (lambda: lowpass(x, 2e3, fs, 4), sps.sosfiltfilt(fresh(4, 2e3, "lowpass"), x)),
            (lambda: highpass(x, 300, fs, 4), sps.sosfiltfilt(fresh(4, 300, "highpass"), x)),
            (lambda: band.apply(edge), sps.sosfiltfilt(fresh(5, [100, 16_000], "bandpass"), edge)),
            (lambda: band.apply(view), sps.sosfiltfilt(fresh(5, [100, 16_000], "bandpass"), view)),
            (lambda: split_band.apply(x), sps.sosfiltfilt(fresh(4, [250, 500], "bandpass"), x)),
        ]
        for apply, expected in cases:
            for _ in range(2):  # the cold design, then the memoized one
                assert apply().tobytes() == expected.tobytes()

    def test_butter_runs_once_across_applies(self, butter_calls):
        x = np.random.default_rng(1).standard_normal((2, 2000))
        for _ in range(3):
            headtalk_bandpass(48_000).apply(x)
            band_split(x, 48_000, octave_band_edges(48_000))
        # One band-pass design plus one per band of the six-band split.
        assert len(butter_calls) == 1 + len(octave_band_edges(48_000))

    def test_cached_design_is_protected(self, butter_calls):
        sos = filters.butter_sos(5, (100.0, 16_000.0), "bandpass", 48_000)
        assert sos.flags.writeable
        sos[:] = 0.0
        again = filters.butter_sos(5, (100.0, 16_000.0), "bandpass", 48_000)
        assert np.any(again != 0.0)
        assert len(butter_calls) == 1


# The designs the decision path and the band-split renderer filter with.
DESIGNS = [
    (
        "paper band-pass",
        lambda x: headtalk_bandpass(48_000).apply(x),
        (5, (100.0, 16_000.0), "bandpass"),
    ),
    (
        "split band-pass",
        lambda x: BandpassFilter(250.0, 500.0, 48_000, 4).apply(x),
        (4, (250.0, 500.0), "bandpass"),
    ),
    ("split low-pass", lambda x: lowpass(x, 250.0, 48_000, 4), (4, 250.0, "lowpass")),
    ("split high-pass", lambda x: highpass(x, 4_000.0, 48_000, 4), (4, 4_000.0, "highpass")),
]


class TestZeroPhaseExactness:
    """The memoized zero-phase filter is ``sosfiltfilt`` bit for bit."""

    @pytest.mark.parametrize("name,apply,key", DESIGNS, ids=[d[0] for d in DESIGNS])
    def test_equals_sosfiltfilt(self, name, apply, key):
        padlen = filters._butter_design(*key, 48_000).padlen
        sos = sps.butter(key[0], key[1], key[2], fs=48_000, output="sos")
        rng = np.random.default_rng(3)
        for n in (padlen + 1, 2048, 37_000):
            wide = rng.standard_normal((2, 3, 2 * n))
            inputs = [wide[0, 0, :n], wide[0, :, :n], wide[:, :, :n], wide[0, :, ::2]]
            for x in inputs:
                expected = sps.sosfiltfilt(sos, x, axis=-1)
                got = apply(x)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (name, n, x.shape)

    @pytest.mark.parametrize("n", [32, 33, 34])
    def test_bandpass_boundary(self, n):
        """At ``padlen`` samples or fewer the band-pass filters causally."""
        x = np.random.default_rng(4).standard_normal((4, n))
        sos = sps.butter(5, (100.0, 16_000.0), "bandpass", fs=48_000, output="sos")
        expected = sps.sosfilt(sos, x) if n <= 33 else sps.sosfiltfilt(sos, x)
        assert headtalk_bandpass(48_000).apply(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name,apply,key", DESIGNS[2:], ids=[d[0] for d in DESIGNS[2:]])
    def test_too_short_raises_like_sosfiltfilt(self, name, apply, key):
        padlen = filters._butter_design(*key, 48_000).padlen
        with pytest.raises(ValueError, match=f"greater than padlen, which is {padlen}"):
            apply(np.ones((2, padlen)))

    def test_memoized_state_is_protected(self):
        design = filters._butter_design(5, (100.0, 16_000.0), "bandpass", 48_000)
        assert design.sos.flags.writeable  # scipy's sosfilt needs a writable sos
        assert not design.zi.flags.writeable
        assert design.zi.tobytes() == sps.sosfilt_zi(design.sos).tobytes()
        assert design.padlen == 33

"""Unit behavior of the hardware-fault models and channel screening."""

import numpy as np

from repro.acoustics import Capture
from repro.core import screen_channels
from repro.faults import (
    BurstNoise,
    ChannelDropout,
    Clipping,
    ClockSkew,
    DeadChannel,
    GainDrift,
)

FS = 48_000


def _speechy(n_channels=4, n_samples=FS // 2, seed=0, amp=0.3):
    rng = np.random.default_rng(seed)
    return amp * rng.standard_normal((n_channels, n_samples))


def _rng():
    return np.random.default_rng(123)


class TestFaultModels:
    def test_dead_channel_zeroed(self):
        out = DeadChannel(channel=1).apply(_speechy(), FS, _rng())
        assert np.all(out[1] == 0.0)
        assert np.any(out[0] != 0.0)

    def test_dead_channel_noise_floor(self):
        out = DeadChannel(channel=0, noise_floor=1e-3).apply(_speechy(), FS, _rng())
        rms = np.sqrt(np.mean(np.square(out[0])))
        assert 0.0 < rms < 1e-2

    def test_dropout_gates_samples(self):
        x = _speechy()
        out = ChannelDropout(channel=2, rate_hz=20.0, mean_ms=40.0).apply(
            x, FS, _rng()
        )
        zeroed = np.sum(out[2] == 0.0) - np.sum(x[2] == 0.0)
        assert zeroed > 0
        assert np.array_equal(out[0], x[0])

    def test_gain_drift_ramps(self):
        x = np.ones((2, FS))
        out = GainDrift(channel=0, start_db=0.0, end_db=-6.0).apply(x, FS, _rng())
        assert out[0, 0] > 0.99
        assert abs(out[0, -1] - 10.0 ** (-6.0 / 20.0)) < 0.01
        assert np.array_equal(out[1], x[1])

    def test_clock_skew_preserves_shape(self):
        x = _speechy()
        out = ClockSkew(channel=1, ppm=500.0).apply(x, FS, _rng())
        assert out.shape == x.shape
        assert not np.array_equal(out[1], x[1])

    def test_clipping_rails(self):
        x = _speechy()
        out = Clipping(level=0.5).apply(x, FS, _rng())
        rail = 0.5 * np.abs(x).max()
        assert np.abs(out).max() <= rail + 1e-12

    def test_burst_noise_adds_energy(self):
        x = _speechy()
        out = BurstNoise(snr_db=0.0, rate_hz=10.0, mean_ms=30.0).apply(x, FS, _rng())
        assert out.shape == x.shape
        assert np.sum(np.square(out)) > np.sum(np.square(x))


class TestScreening:
    def test_flags_dead_channel(self):
        x = _speechy()
        x[2] = 0.0
        health = screen_channels(x)
        assert health.dead == (2,)
        assert health.healthy == (0, 1, 3)
        assert health.is_degraded

    def test_flags_clipped_channel(self):
        # The rail test is relative to the capture's own peak, so the
        # saturated channel must be the one defining it (as a shared-ADC
        # rail does).
        x = _speechy()
        x[1] = np.clip(x[1] * 50.0, -2.0, 2.0)
        health = screen_channels(x)
        assert 1 in health.clipped

    def test_flags_non_finite(self):
        x = _speechy()
        x[0, 10] = np.nan
        x[3, 20] = np.inf
        health = screen_channels(x)
        assert health.non_finite == (0, 3)

    def test_mixed_faults_in_one_capture(self):
        # Dead, NaN and clipped channels at once; the clipped channel
        # defines the capture's peak, as a shared-ADC rail does.
        x = _speechy()
        x[0] = np.clip(x[0] * 50.0, -2.0, 2.0)
        x[1] = 0.0
        x[2, 100] = np.nan
        health = screen_channels(x)
        assert health.clipped == (0,)
        assert health.dead == (1,)
        assert health.non_finite == (2,)
        assert health.healthy == (3,)
        # The evidence equals the two-pass reference formula bit for bit.
        safe = np.where(np.isfinite(x), x, 0.0)
        rms = np.sqrt(np.mean(np.square(safe), axis=1))
        railed = np.abs(safe) >= 0.995 * np.abs(safe).max()
        assert health.rms == tuple(float(v) for v in rms)
        assert health.clip_fraction == tuple(float(v) for v in railed.mean(axis=1))

    def test_clean_evidence_matches_reference(self):
        x = _speechy()
        health = screen_channels(x)
        rms = np.sqrt(np.mean(np.square(x), axis=1))
        assert health.rms == tuple(float(v) for v in rms)
        assert not health.is_degraded

    def test_healthy_capture_clean(self, forward_capture):
        health = screen_channels(forward_capture.channels)
        assert not health.is_degraded
        assert health.healthy == tuple(range(forward_capture.n_mics))

    def test_silence_not_flagged_dead(self):
        health = screen_channels(np.zeros((4, FS // 4)))
        assert not health.is_degraded

    def test_to_dict_round_trips_json(self):
        import json

        x = _speechy()
        x[0] = 0.0
        health = screen_channels(x)
        payload = json.loads(json.dumps(health.to_dict()))
        assert payload["dead"] == [0]
        assert payload["n_channels"] == 4


class TestFaultThenScreen:
    """The screening thresholds must catch what the fault models emit."""

    def test_dead_channel_detected(self):
        out = DeadChannel(channel=1).apply(_speechy(), FS, _rng())
        assert 1 in screen_channels(out).dead

    def test_hard_clipping_detected(self):
        capture = Capture(channels=_speechy(), sample_rate=FS)
        from repro.faults import FaultScenario

        scenario = FaultScenario(name="clip", faults=(Clipping(level=0.2),), seed=0)
        assert screen_channels(scenario.apply(capture).channels).clipped

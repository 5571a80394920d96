"""Fail-closed pipeline behavior under degraded hardware.

The gate's contract when a capture is corrupt: never raise, decide from
the surviving microphone pairs when at least one healthy pair remains,
and reject as ``degraded-input`` — with the health report in the
decision — when nothing trustworthy survives.
"""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.arrays.devices import default_channel_subset, get_device
from repro.core import (
    ACCEPT,
    FACING,
    HeadTalkPipeline,
    LivenessDetector,
    NON_FACING,
    OrientationDetector,
    REJECT_DEGRADED_INPUT,
    REJECT_NON_FACING,
    REJECT_NO_SPEECH,
)
from repro.core.features import OrientationFeatureExtractor
from repro.faults import DeadChannel, FaultScenario

FS = 48_000
VALID_REASONS = {ACCEPT, REJECT_NON_FACING, REJECT_NO_SPEECH, REJECT_DEGRADED_INPUT}


def _pipeline_for(device_name: str) -> HeadTalkPipeline:
    """A pipeline whose detector has the right dimensionality.

    Decision *quality* is irrelevant here (these inputs are synthetic
    noise); the contract under test is that nothing raises and every
    reason is typed — so a detector trained on random features of the
    correct width is enough, and cheap for all three geometries.
    """
    device = get_device(device_name)
    array = device.subset(default_channel_subset(device))
    extractor = OrientationFeatureExtractor(array)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((24, extractor.n_features))
    y = np.array([FACING, NON_FACING] * 12)
    detector = OrientationDetector().fit(X, y)
    return HeadTalkPipeline(
        array=array, liveness=LivenessDetector(), orientation=detector
    )


def _noisy_capture(n_channels: int, seed: int = 0) -> Capture:
    rng = np.random.default_rng(seed)
    return Capture(
        channels=0.2 * rng.standard_normal((n_channels, FS // 3)), sample_rate=FS
    )


class TestDeadChannelPerGeometry:
    @pytest.mark.parametrize("device_name", ["D1", "D2", "D3"])
    def test_batch_completes_with_valid_reasons(self, device_name):
        pipeline = _pipeline_for(device_name)
        n = pipeline.array.n_mics
        scenario = FaultScenario(
            name="dead0", faults=(DeadChannel(channel=0),), seed=0
        )
        captures = [
            scenario.apply(_noisy_capture(n, seed=s)) for s in range(3)
        ]
        evaluation = pipeline.evaluate_batch(captures, check_liveness=False)
        assert len(evaluation) == len(captures)
        for decision in evaluation:
            assert decision.reason in VALID_REASONS
            assert decision.degraded
            assert decision.health is not None
            assert 0 in decision.health.dead

    @pytest.mark.parametrize("device_name", ["D1", "D2", "D3"])
    def test_batch_matches_serial_fingerprints(self, device_name):
        pipeline = _pipeline_for(device_name)
        n = pipeline.array.n_mics
        scenario = FaultScenario(
            name="dead0", faults=(DeadChannel(channel=0),), seed=0
        )
        captures = [_noisy_capture(n, seed=9)] + [
            scenario.apply(_noisy_capture(n, seed=s)) for s in range(3)
        ]
        batch = pipeline.evaluate_batch(captures, check_liveness=False)
        for capture, decision in zip(captures, batch):
            one = pipeline.evaluate(capture, check_liveness=False)
            assert one.fingerprint() == decision.fingerprint()


class TestFailClosed:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return _pipeline_for("D3")

    def test_no_healthy_pair_rejects(self, pipeline):
        n = pipeline.array.n_mics
        capture = _noisy_capture(n)
        channels = capture.channels.copy()
        channels[1:] = 0.0  # one survivor: no pair left
        decision = pipeline.evaluate(
            Capture(channels=channels, sample_rate=FS), check_liveness=False
        )
        assert not decision.accepted
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.detail.startswith("no-healthy-pair")
        assert decision.health is not None

    def test_one_dead_channel_still_decided(self, pipeline):
        n = pipeline.array.n_mics
        channels = _noisy_capture(n).channels.copy()
        channels[0] = 0.0
        decision = pipeline.evaluate(
            Capture(channels=channels, sample_rate=FS), check_liveness=False
        )
        assert decision.degraded
        assert decision.reason in (ACCEPT, REJECT_NON_FACING)

    def test_nan_channel_masked_not_fatal(self, pipeline):
        n = pipeline.array.n_mics
        channels = _noisy_capture(n).channels.copy()
        channels[1, ::7] = np.nan
        decision = pipeline.evaluate(
            Capture(channels=channels, sample_rate=FS), check_liveness=False
        )
        assert decision.reason in VALID_REASONS
        assert decision.degraded
        assert 1 in decision.health.non_finite

    def test_non_finite_features_fail_closed(self, pipeline, monkeypatch):
        capture = _noisy_capture(pipeline.array.n_mics)

        # The extractor dataclass is frozen, so patch at class level: any
        # NaN that leaks from extraction must stop at the gate boundary.
        # Both entry points assemble features through ``extract``.
        monkeypatch.setattr(
            OrientationFeatureExtractor,
            "extract",
            lambda self, audio, gcc=None: np.full(self.n_features, np.nan),
        )
        one = pipeline.evaluate(capture, check_liveness=False)
        assert not one.accepted
        assert one.reason == REJECT_DEGRADED_INPUT
        assert one.detail.startswith("feature-error:")
        many = pipeline.evaluate_batch([capture], check_liveness=False)
        assert many.decisions[0].fingerprint() == one.fingerprint()

    def test_all_dead_is_no_speech_not_crash(self, pipeline):
        silent = Capture(
            channels=np.zeros((pipeline.array.n_mics, FS // 3)), sample_rate=FS
        )
        decision = pipeline.evaluate(silent, check_liveness=False)
        assert decision.reason == REJECT_NO_SPEECH

    def test_empty_capture_rejected_typed(self, pipeline):
        empty = Capture(
            channels=np.zeros((pipeline.array.n_mics, 0)), sample_rate=FS
        )
        decision = pipeline.evaluate(empty, check_liveness=False)
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.detail == "empty-capture"


class TestMaskedFeatureExtraction:
    def test_all_healthy_mask_is_identity(self, extractor, forward_capture):
        from repro.core import preprocess

        audio = preprocess(forward_capture)
        full = extractor.extract(audio)
        masked = extractor.extract_masked(audio, list(range(forward_capture.n_mics)))
        assert np.array_equal(full, masked)

    def test_masked_rows_zeroed(self, extractor, forward_capture):
        from repro.core import preprocess

        audio = preprocess(forward_capture)
        masked = extractor.extract_masked(audio, [1, 2, 3])
        window = 2 * extractor.max_lag + 1
        gcc = masked[: len(extractor.pairs) * window].reshape(
            len(extractor.pairs), window
        )
        for row, (i, j) in enumerate(extractor.pairs):
            if 0 in (i, j):
                assert np.all(gcc[row] == 0.0)
            else:
                assert np.any(gcc[row] != 0.0)
        assert np.all(np.isfinite(masked))

    def test_too_few_healthy_raises(self, extractor, forward_capture):
        from repro.core import preprocess

        audio = preprocess(forward_capture)
        with pytest.raises(ValueError, match="healthy"):
            extractor.extract_masked(audio, [2])

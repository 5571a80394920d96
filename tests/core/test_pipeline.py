"""Tests for the HeadTalk decision pipeline."""

import dataclasses
import sys

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import (
    ACCEPT,
    REJECT_DEGRADED_INPUT,
    REJECT_MECHANICAL,
    REJECT_NO_SPEECH,
    REJECT_NON_FACING,
)
from repro.core import preprocessing
from repro.core.liveness import FusedLivenessDetector
from repro.core.streaming import StreamingDecider
from repro.dsp import gcc

FS = 48_000


@pytest.fixture(scope="module")
def pipeline(trained_pipeline):
    """A fully trained pipeline over fixture-style captures.

    The training recipe lives in ``tests/conftest.py`` as the
    session-scoped ``trained_pipeline`` fixture so the streaming and
    serving tests judge captures with the exact same models.
    """
    return trained_pipeline


class TestDecisions:
    def test_forward_human_accepted(self, pipeline, forward_capture):
        decision = pipeline.evaluate(forward_capture)
        assert decision.accepted
        assert decision.reason == ACCEPT
        assert decision.facing_probability >= 0.5

    def test_backward_human_soft_rejected(self, pipeline, backward_capture):
        """Orientation path: liveness skipped so the non-facing rejection
        is exercised directly (a tiny liveness net can also reject
        backward speech as mechanical, which is a different test)."""
        decision = pipeline.evaluate(backward_capture, check_liveness=False)
        assert not decision.accepted
        assert decision.reason == REJECT_NON_FACING

    def test_backward_human_rejected_with_liveness_on(self, pipeline, backward_capture):
        decision = pipeline.evaluate(backward_capture)
        assert not decision.accepted
        assert decision.reason in (REJECT_NON_FACING, REJECT_MECHANICAL)

    def test_replay_rejected_as_mechanical(self, pipeline, replay_capture):
        decision = pipeline.evaluate(replay_capture)
        assert not decision.accepted
        assert decision.reason in (REJECT_MECHANICAL, REJECT_NON_FACING)

    def test_silence_rejected_without_model_calls(self, pipeline):
        silent = Capture(channels=np.zeros((4, FS // 4)), sample_rate=FS)
        decision = pipeline.evaluate(silent)
        assert not decision.accepted
        assert decision.reason == REJECT_NO_SPEECH
        assert decision.liveness_ms == 0.0

    def test_liveness_can_be_skipped(self, pipeline, forward_capture):
        decision = pipeline.evaluate(forward_capture, check_liveness=False)
        assert decision.liveness_score == 1.0
        assert decision.liveness_ms == 0.0

    def test_latency_recorded(self, pipeline, forward_capture):
        decision = pipeline.evaluate(forward_capture)
        assert decision.orientation_ms > 0
        assert decision.preprocess_ms > 0
        assert decision.total_ms == pytest.approx(
            decision.preprocess_ms + decision.liveness_ms + decision.orientation_ms
        )

    def test_batch_matches_serial(self, pipeline, forward_capture, backward_capture, replay_capture):
        captures = [
            forward_capture,
            backward_capture,
            replay_capture,
            # Crops that preprocess to 2,049-8,192 samples, the lengths at
            # which numpy rounds a stacked whitening product differently
            # from a per-row one (see the repro.dsp.gcc module docstring).
            Capture(channels=forward_capture.channels[:, 12678:17178], sample_rate=FS),
            Capture(channels=replay_capture.channels[:, 12080:16580], sample_rate=FS),
        ]
        serial = [pipeline.evaluate(c) for c in captures]
        batch = pipeline.evaluate_batch(captures)
        assert len(batch) == len(captures)
        for one, many in zip(serial, batch):
            assert many.fingerprint() == one.fingerprint()
        assert batch.timings.n_captures == len(captures)
        assert batch.timings.total_ms == pytest.approx(
            batch.timings.preprocess_ms
            + batch.timings.liveness_ms
            + batch.timings.orientation_ms
        )

    def test_batch_handles_silence_and_skip_liveness(self, pipeline, forward_capture):
        silent = Capture(channels=np.zeros((4, FS // 4)), sample_rate=FS)
        batch = pipeline.evaluate_batch([silent, forward_capture], check_liveness=False)
        first, second = batch.decisions
        assert first.reason == REJECT_NO_SPEECH
        assert first.liveness_ms == 0.0 and first.orientation_ms == 0.0
        assert second.liveness_score == 1.0
        assert second.fingerprint() == pipeline.evaluate(
            forward_capture, check_liveness=False
        ).fingerprint()

    def test_batch_rejects_empty(self, pipeline):
        with pytest.raises(ValueError, match="non-empty"):
            pipeline.evaluate_batch([])

    def test_channel_mismatch_rejected(self, pipeline):
        bad = Capture(channels=np.zeros((2, FS // 4)), sample_rate=FS)
        decision = pipeline.evaluate(bad)
        assert not decision.accepted
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.degraded
        assert decision.detail.startswith("channel-count:")

    def test_sample_rate_mismatch_rejected(self, pipeline, forward_capture):
        bad = Capture(channels=forward_capture.channels, sample_rate=FS // 2)
        decision = pipeline.evaluate(bad)
        assert not decision.accepted
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.detail.startswith("sample-rate:")


def _rebind(monkeypatch, original, wrapper):
    """Replace ``original`` in every loaded module that binds it by name."""
    for module in list(sys.modules.values()):
        for name, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                monkeypatch.setattr(module, name, wrapper)


@pytest.fixture
def gcc_matrices(monkeypatch):
    """Per-call counts of the capture GCC matrices computed, in call order."""
    counts = []
    for original, matrices in (
        (gcc.pairwise_gcc, lambda args: 1),
        (gcc.pairwise_gcc_batch, lambda args: len(args[0])),
    ):

        def counted(*args, _original=original, _matrices=matrices, **kwargs):
            counts.append(_matrices(args))
            return _original(*args, **kwargs)

        _rebind(monkeypatch, original, counted)
    return counts


class TestOneGccPerUtterance:
    """The fused gate correlates each scored utterance once.

    The matrix feeds both the array liveness cues and the orientation
    features; a degraded capture's masked features are the same matrix
    with its dead-pair rows zeroed.
    """

    @pytest.fixture
    def fused(self, pipeline):
        return dataclasses.replace(
            pipeline, liveness=FusedLivenessDetector(base=pipeline.liveness)
        )

    @pytest.fixture
    def captures(self, forward_capture, side_capture, replay_capture):
        dead = forward_capture.channels.copy()
        dead[0] = 0.0
        silent = np.zeros((4, FS // 4))
        return [
            forward_capture,
            side_capture,
            replay_capture,
            Capture(channels=dead, sample_rate=FS),
            Capture(channels=silent, sample_rate=FS),
        ]

    def test_evaluate(self, fused, captures, gcc_matrices):
        for capture in captures:
            before = sum(gcc_matrices)
            decision = fused.evaluate(capture)
            scored = decision.reason != REJECT_NO_SPEECH
            assert sum(gcc_matrices) - before == int(scored)

    def test_evaluate_batch(self, fused, captures, gcc_matrices):
        evaluation = fused.evaluate_batch(captures)
        scored = [d for d in evaluation if d.reason != REJECT_NO_SPEECH]
        assert sum(gcc_matrices) == len(scored) == len(captures) - 1

    def test_streaming_prefix_checks(self, fused, forward_capture, gcc_matrices, monkeypatch):
        spoken = []
        original = preprocessing.preprocess

        def counted(*args, **kwargs):
            audio = original(*args, **kwargs)
            spoken.append(audio.had_speech)
            return audio

        _rebind(monkeypatch, original, counted)
        decider = StreamingDecider(fused)
        for start in range(0, forward_capture.n_samples, 2048):
            decider.push(forward_capture.channels[:, start : start + 2048])
        decider.finish()
        # Every prefix check that found speech, plus the final evaluate.
        assert sum(spoken) >= 2
        assert sum(gcc_matrices) == sum(spoken)

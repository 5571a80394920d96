"""Streaming-vs-batch equivalence: the PR's core contract.

Every tier-1 fixture capture, streamed chunk by chunk through
``StreamingDecider``, must produce a final decision byte-identical to
``pipeline.evaluate`` on the same capture — early exit may shorten
latency (frames_to_decision), never flip verdicts.
"""

import numpy as np
import pytest

import repro.core.streaming as core_streaming
import repro.dsp.streaming as dsp_streaming
from repro.acoustics import Capture
from repro.core import REJECT_DEGRADED_INPUT, REJECT_MECHANICAL, StreamingDecider
from repro.core.streaming import FRAME_LENGTH, HOP_LENGTH
from repro.obs import audit_log, observed
from repro.serving import DeviceSession, RingBuffer, ServingConfig

FS = 48_000
CHUNK = 2048


def _decider(pipeline):
    """A decider over a fresh ring of a serving session's default size (12 s)."""
    return StreamingDecider(pipeline, buffer=RingBuffer(pipeline.array.n_mics, 12 * FS))


def _stream(decider, channels, chunk=CHUNK):
    """Push channels through in fixed-size chunks; collect early events."""
    events = []
    for start in range(0, channels.shape[1], chunk):
        event = decider.push(channels[:, start : start + chunk])
        if event is not None:
            events.append(event)
    return events, decider.finish()


def _count_frame_gcc(monkeypatch):
    """Rebind the accumulator's per-frame whitening to record each call."""
    calls = []
    real = dsp_streaming._whitened_pairs

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(dsp_streaming, "_whitened_pairs", counting)
    return calls


@pytest.fixture(scope="module")
def pipeline(trained_pipeline):
    return trained_pipeline


CAPTURES = ["forward_capture", "backward_capture", "replay_capture", "side_capture"]


class TestEquivalence:
    @pytest.mark.parametrize("name", CAPTURES)
    def test_streaming_fingerprint_equals_batch(self, request, pipeline, name):
        capture = request.getfixturevalue(name)
        batch = pipeline.evaluate(capture)
        decider = _decider(pipeline)
        _, result = _stream(decider, capture.channels)
        assert result.decision.fingerprint() == batch.fingerprint()

    @pytest.mark.parametrize("name", CAPTURES)
    def test_early_verdict_never_flips_the_decision(self, request, pipeline, name):
        capture = request.getfixturevalue(name)
        decider = _decider(pipeline)
        events, result = _stream(decider, capture.channels)
        assert result.consistent
        for event in events:
            assert not event.accepted
            assert event.accepted == result.decision.accepted or not result.decision.accepted

    @pytest.mark.parametrize("chunk", [2048, 1000, 4096, 333])
    def test_chunk_size_never_changes_the_outcome(self, pipeline, backward_capture, chunk):
        reference = pipeline.evaluate(backward_capture)
        decider = _decider(pipeline)
        events, result = _stream(decider, backward_capture.channels, chunk=chunk)
        assert result.decision.fingerprint() == reference.fingerprint()
        assert result.early_exited


class TestEarlyExit:
    def test_forward_accept_never_exits_early(self, pipeline, forward_capture):
        decider = _decider(pipeline)
        events, result = _stream(decider, forward_capture.channels)
        assert result.decision.accepted
        assert not result.early_exited
        assert events == []
        assert result.frames_to_decision == result.frames_seen

    @pytest.mark.parametrize("name", ["backward_capture", "side_capture"])
    def test_non_facing_rejected_before_end_of_utterance(self, request, pipeline, name):
        capture = request.getfixturevalue(name)
        decider = _decider(pipeline)
        events, result = _stream(decider, capture.channels)
        assert not result.decision.accepted
        assert result.early_exited
        assert len(events) == 1
        assert result.frames_to_decision < result.frames_seen
        assert result.frames_to_decision == events[0].frame

    def test_replay_rejected_early_as_mechanical(self, pipeline, replay_capture):
        decider = _decider(pipeline)
        events, result = _stream(decider, replay_capture.channels)
        assert result.early_exited
        assert events[0].reason == REJECT_MECHANICAL
        assert result.frames_to_decision < result.frames_seen

    def test_early_frame_is_chunk_invariant(self, request, pipeline):
        for name in ("backward_capture", "side_capture", "replay_capture"):
            capture = request.getfixturevalue(name)
            frames = set()
            for chunk in (2048, 1000, 4096, 333):
                decider = _decider(pipeline)
                _, result = _stream(decider, capture.channels, chunk=chunk)
                assert result.early_exited, name
                frames.add(result.frames_to_decision)
            assert len(frames) == 1, name

    def test_median_frames_to_decision_shortens_rejections(
        self, pipeline, backward_capture, replay_capture, side_capture
    ):
        to_decision, seen = [], []
        for capture in (backward_capture, replay_capture, side_capture):
            decider = _decider(pipeline)
            _, result = _stream(decider, capture.channels)
            to_decision.append(result.frames_to_decision)
            seen.append(result.frames_seen)
        assert float(np.median(to_decision)) < float(np.median(seen))


class TestStreamingCost:
    def test_prefix_work_is_linear_in_the_stream(self, pipeline, forward_capture, monkeypatch):
        # A 74-frame accept: checking every ``check_every`` frames would
        # preprocess 16x the samples streamed.
        channels = np.tile(forward_capture.channels, (1, 4))
        prefixes = []
        real = core_streaming.preprocess

        def recording(capture, *args, **kwargs):
            prefixes.append(capture.channels.shape[1])
            return real(capture, *args, **kwargs)

        monkeypatch.setattr(core_streaming, "preprocess", recording)
        decider = _decider(pipeline)
        _, result = _stream(decider, channels)
        assert result.frames_seen == 74
        assert sum(prefixes) <= 3 * result.samples_seen
        # Each check waits for the prefix to grow by half: frames 4, 6,
        # 10, 16, 24, 36 and 54.
        assert result.checks == 7

    def test_frame_gcc_stops_after_the_early_verdict(
        self, pipeline, backward_capture, monkeypatch
    ):
        calls = _count_frame_gcc(monkeypatch)
        decider = _decider(pipeline)
        channels = backward_capture.channels
        calls_at_verdict = None
        for start in range(0, channels.shape[1], CHUNK):
            if decider.push(channels[:, start : start + CHUNK]) is not None:
                calls_at_verdict = len(calls)
        result = decider.finish()
        assert result.early_exited
        assert calls_at_verdict > 0
        assert len(calls) == calls_at_verdict
        # The decider keeps counting the frames the accumulator skips.
        assert result.frames_seen == 17
        assert result.frames_to_decision == result.early.frame


class TestLifecycle:
    def test_finish_is_idempotent(self, pipeline, forward_capture):
        decider = _decider(pipeline)
        _stream(decider, forward_capture.channels)
        assert decider.finish() is decider.finish()

    def test_push_after_finish_raises(self, pipeline, forward_capture):
        decider = _decider(pipeline)
        _, _ = _stream(decider, forward_capture.channels)
        with pytest.raises(RuntimeError):
            decider.push(forward_capture.channels[:, :CHUNK])

    def test_wrong_shape_rejected(self, pipeline):
        decider = _decider(pipeline)
        with pytest.raises(ValueError):
            decider.push(np.zeros((2, CHUNK)))

    def test_empty_stream_still_decides(self, pipeline):
        decider = _decider(pipeline)
        result = decider.finish()
        assert not result.decision.accepted
        assert result.frames_seen == 0


class TestLabels:
    def test_finish_labels_the_decision_record(self, pipeline, forward_capture):
        decider = _decider(pipeline)
        channels = forward_capture.channels
        with observed(True):
            for start in range(0, channels.shape[1], CHUNK):
                decider.push(channels[:, start : start + CHUNK])
            result = decider.finish(truth=True, slices={"source": "live-facing"})
            record = [r for r in audit_log().records() if r.get("event") == "decision"][-1]
        assert record["call"] == "streaming"
        assert record["truth"] is True
        assert record["slices"] == {"source": "live-facing"}
        assert record["accepted"] == result.decision.accepted


class TestOverflow:
    def test_gate_reads_the_stored_head_past_capacity(self, pipeline, forward_capture):
        """A stream past the ring's capacity keeps its head, and the
        stability gate folds in frames of that head only, like the
        checks and the final decision."""
        session = DeviceSession("s-overflow", pipeline, ServingConfig(ring_seconds=0.2))
        session.begin_wake()
        channels = forward_capture.channels
        for start in range(0, channels.shape[1], CHUNK):
            session.push_audio(channels[:, start : start + CHUNK])
        decider, stored = session.decider, session.ring.length
        assert stored == session.ring.capacity < channels.shape[1]
        assert decider.accumulator.n_frames == 1 + (stored - FRAME_LENGTH) // HOP_LENGTH
        assert decider.accumulator.n_frames < decider.frames_seen
        reply = session.end_wake()
        assert reply["dropped_samples"] == channels.shape[1] - stored


class TestMidStreamChannelDeath:
    def test_majority_channel_death_fails_closed(self, pipeline, forward_capture):
        channels = forward_capture.channels
        decider = _decider(pipeline)
        half = channels.shape[1] // 2
        events = []
        for start in range(0, half, CHUNK):
            event = decider.push(channels[:, start : start + CHUNK])
            assert event is None or not event.accepted
        # Three of four channels die mid-utterance.
        for start in range(half, channels.shape[1], CHUNK):
            chunk = channels[:, start : start + CHUNK].copy()
            chunk[1:, :] = 0.0
            event = decider.push(chunk)
            if event is not None:
                events.append(event)
        assert events, "channel death never fired an early verdict"
        assert events[0].reason == REJECT_DEGRADED_INPUT
        result = decider.finish()
        assert not result.decision.accepted
        assert result.decision.reason == REJECT_DEGRADED_INPUT
        assert result.decision.degraded
        assert result.consistent

    def test_single_dead_channel_degrades_without_failing_closed(
        self, pipeline, forward_capture, monkeypatch
    ):
        channels = forward_capture.channels.copy()
        channels[2, :] = 0.0
        calls = _count_frame_gcc(monkeypatch)
        decider = _decider(pipeline)
        events, calls_at_vote = [], None
        for start in range(0, channels.shape[1], CHUNK):
            event = decider.push(channels[:, start : start + CHUNK])
            if event is not None:
                events.append(event)
            if decider.degraded and calls_at_vote is None:
                calls_at_vote = len(calls)
        result = decider.finish()
        assert events == []  # early checks are suspended while degraded
        assert decider.degraded
        assert not decider.fail_closed
        # No check can fire once a channel is voted out, so frame GCC stops.
        assert calls_at_vote > 0
        assert len(calls) == calls_at_vote
        assert result.frames_seen == channels.shape[1] // CHUNK
        # The final verdict is still the batch verdict on the same
        # capture: the full pipeline masks the dead channel itself.
        batch = pipeline.evaluate(Capture(channels=channels, sample_rate=FS))
        assert result.decision.fingerprint() == batch.fingerprint()

"""Streaming-vs-batch equivalence: the PR's core contract.

Every tier-1 fixture capture, streamed chunk by chunk through
``StreamingDecider``, must produce a final decision byte-identical to
``pipeline.evaluate`` on the same capture — early exit may shorten
latency (frames_to_decision), never flip verdicts.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.pipeline as core_pipeline
import repro.core.streaming as core_streaming
import repro.dsp.streaming as dsp_streaming
from repro.acoustics import Capture
from repro.core import (
    REJECT_DEGRADED_INPUT,
    REJECT_MECHANICAL,
    REJECT_NON_FACING,
    HeadTalkPipeline,
    StreamingDecider,
)
from repro.core.preprocessing import preprocess
from repro.core.streaming import (
    CONSECUTIVE,
    FACING_MARGIN,
    FRAME_LENGTH,
    HOP_LENGTH,
    LIVENESS_MARGIN,
    UNHEALTHY_VOTES,
)
from repro.obs import audit_log, observed
from repro.serving import DeviceSession, RingBuffer, ServingConfig

FS = 48_000
CHUNK = 2048
CHUNKS = (333, 1000, 2048, 4096, 16384)


def _decider(pipeline, check_liveness=True):
    """A decider over a fresh ring of a serving session's default size (12 s)."""
    return StreamingDecider(
        pipeline,
        buffer=RingBuffer(pipeline.array.n_mics, 12 * FS),
        check_liveness=check_liveness,
    )


def _stream(decider, channels, chunk=CHUNK):
    """Push channels through in fixed-size chunks; collect early events."""
    events = []
    for start in range(0, channels.shape[1], chunk):
        event = decider.push(channels[:, start : start + chunk])
        if event is not None:
            events.append(event)
    return events, decider.finish()


def _record_prefixes(monkeypatch):
    """Hook the pipeline's judge to record each scored prefix's length.

    Early checks judge their prefix with lowered thresholds; the final
    ``evaluate`` judges without margins and is not recorded.
    """
    prefixes = []
    real = HeadTalkPipeline._judge

    def recording(self, capture, check_liveness, *margins):
        if margins:
            prefixes.append(capture.channels.shape[1])
        return real(self, capture, check_liveness, *margins)

    monkeypatch.setattr(HeadTalkPipeline, "_judge", recording)
    return prefixes


def _record_checks(decider):
    """Record each check the decider takes as ``(frame, srp_lag)``.

    The stability gate reads the accumulator's SRP peak lag once per
    check taken, before anything else decides the check's fate.
    """
    checks = []
    read = decider.accumulator.srp_argmax_lag

    def recording():
        lag = read()
        checks.append((decider.frames_seen, lag))
        return lag

    decider.accumulator.srp_argmax_lag = recording
    return checks


ERROR = "error"
"""A prefix stage that raised a feature error."""


def _reference(checks, outcome, check_liveness, config, min_samples=0):
    """The eager decider's two strike counters, replayed over every check.

    ``checks`` lists each check taken as ``(frame, srp_lag)``;
    ``outcome(frame)`` gives its prefix's ``(speech, liveness, facing)``:
    whether it had speech, its liveness score and its facing
    probability, each ``ERROR`` where that stage raised.  A non-finite
    liveness score, like an error, leaves both counts.  Every check
    past the stability gate is scored when it is taken.  Returns the
    early verdict ``(reason, frame, score)`` or ``None``, the number of
    checks taken and the frames scored.
    """
    liveness_strikes = facing_strikes = 0
    last_lag = None
    scored = []
    for taken, (frame, lag) in enumerate(checks, start=1):
        stable, last_lag = lag == last_lag, lag
        if (not stable and taken > 1) or frame * HOP_LENGTH < min_samples:
            continue
        scored.append(frame)
        speech, liveness, facing = outcome(frame)
        if speech is ERROR or not speech:
            continue
        if check_liveness:
            if liveness is ERROR or not np.isfinite(liveness):
                continue
            if liveness < config.liveness_threshold - LIVENESS_MARGIN:
                liveness_strikes += 1
                if liveness_strikes >= CONSECUTIVE:
                    return (REJECT_MECHANICAL, frame, liveness), taken, scored
                continue
            liveness_strikes = 0
        if facing is ERROR:
            continue
        if facing < config.facing_threshold - FACING_MARGIN:
            facing_strikes += 1
            if facing_strikes >= CONSECUTIVE:
                return (REJECT_NON_FACING, frame, facing), taken, scored
        else:
            facing_strikes = 0
    return None, len(checks), scored


def _verdict(early):
    return None if early is None else (early.reason, early.frame, early.score)


class _ScriptedGate:
    """A real pipeline whose stages replay scripted checks, and a stand-in accumulator.

    Check ``i``, in the order taken, reads ``lags[i]`` as the SRP peak
    lag and, if its prefix is scored, ``outcomes[i]`` as the
    ``(speech, liveness, facing)`` of :func:`_reference`.  The pipeline
    is a :class:`HeadTalkPipeline` at the default 0.5 thresholds: its
    :meth:`preprocess` (rebound in :mod:`repro.core.pipeline`) and its
    liveness and orientation models replay the script, so the real
    judge and the decider's real effect mapping run on it.
    """

    def __init__(self, lags, outcomes):
        self.lags, self.outcomes = lags, outcomes
        self.decider = None
        self.frames, self.scored = [], []
        extractor = SimpleNamespace(
            pairs=[(0, 1)],
            max_lag=4,
            min_samples=0,
            correlate=lambda audio: None,
            extract=lambda audio, gcc: np.array([audio.frame]),
        )
        self.pipeline = HeadTalkPipeline(
            array=SimpleNamespace(n_mics=4, sample_rate=FS),
            liveness=SimpleNamespace(
                scores=lambda references, sample_rate: [self._stage(references[0], 1)]
            ),
            orientation=SimpleNamespace(
                facing_probability=lambda features: [self._stage(features[0, 0], 2)]
            ),
            extractor=extractor,
        )

    def push(self, samples):
        return 0

    def srp_argmax_lag(self):
        self.frames.append(self.decider.frames_seen)
        return self.lags[len(self.frames) - 1]

    def outcome(self, frame):
        return self.outcomes[self.frames.index(frame)]

    def preprocess(self, capture):
        frame = capture.channels.shape[1] // HOP_LENGTH
        self.scored.append(frame)
        if self.outcome(frame)[0] is ERROR:
            raise ValueError("scripted preprocess error")
        return SimpleNamespace(
            frame=frame,
            had_speech=self.outcome(frame)[0],
            health=None,
            reference=frame,
            sample_rate=FS,
        )

    def _stage(self, frame, index):
        value = self.outcome(int(frame))[index]
        if value is ERROR:
            raise ValueError("scripted stage error")
        return value


def _real_outcome(pipeline, channels):
    """A prefix's ``(speech, liveness, facing)`` through the pipeline's own models."""
    audio = preprocess(Capture(channels=channels, sample_rate=FS))
    if not audio.had_speech:
        return False, ERROR, ERROR
    gcc = pipeline.extractor.correlate(audio)
    if hasattr(pipeline.liveness, "fused_scores"):
        liveness = pipeline.liveness.fused_scores([audio], pipeline.extractor, [gcc])[0]
    else:
        liveness = pipeline.liveness.scores([audio.reference], audio.sample_rate)[0]
    features = pipeline.extractor.extract(audio, gcc).reshape(1, -1)
    return True, float(liveness), float(pipeline.orientation.facing_probability(features)[0])


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


class TestLazyScoring:
    """Scoring a check only when a verdict can read it changes no verdict.

    The reference is the eager decider, which scored every check past
    the stability gate: the decider must fire at the same check, for the
    same reason, with the same score, and score no prefix it did not.
    """

    # Against the scripted gate's 0.5 thresholds, 0.1 strikes both
    # counts, 0.3 only the facing count, 0.6 and 0.9 neither.
    SCORE = st.sampled_from([0.1, 0.3, 0.6, 0.9])
    OUTCOME = st.tuples(
        st.one_of(st.just(True), st.sampled_from([False, ERROR])),
        st.one_of(SCORE, st.sampled_from([ERROR, float("nan")])),
        st.one_of(SCORE, st.just(ERROR)),
    )
    FACING_STRIKE = (True, 0.9, 0.1)

    @settings(max_examples=300, deadline=None)
    @given(
        script=st.lists(st.tuples(st.integers(0, 1), OUTCOME), min_size=1, max_size=8),
        check_liveness=st.booleans(),
    )
    # A check with no effect between two facing strikes.
    @example(
        script=[(0, FACING_STRIKE), (0, (False, ERROR, ERROR)), (0, FACING_STRIKE)],
        check_liveness=False,
    )
    # A liveness strike between two facing strikes leaves the facing count.
    @example(
        script=[(0, FACING_STRIKE), (0, (True, 0.1, 0.9)), (0, FACING_STRIKE)],
        check_liveness=True,
    )
    # An orientation error after a liveness pass resets only the liveness count.
    @example(
        script=[(0, (True, 0.1, 0.9)), (0, (True, 0.9, ERROR)), (0, (True, 0.1, 0.9))],
        check_liveness=True,
    )
    # A non-finite liveness score fails the prefix closed: it leaves both
    # counts, so the strikes around it fire.
    @example(
        script=[(0, (True, 0.1, 0.9)), (0, (True, float("nan"), 0.9)), (0, (True, 0.1, 0.9))],
        check_liveness=True,
    )
    @example(
        script=[(0, (True, 0.9, 0.1)), (0, (True, float("nan"), 0.9)), (0, (True, 0.9, 0.1))],
        check_liveness=True,
    )
    # An unstable check between two facing strikes is not recorded.
    @example(
        script=[(0, FACING_STRIKE), (1, FACING_STRIKE), (1, FACING_STRIKE)],
        check_liveness=False,
    )
    def test_scripted_checks_fire_as_the_reference(self, script, check_liveness):
        lags = [lag for lag, _ in script]
        gate = _ScriptedGate(lags, [outcome for _, outcome in script])
        decider = StreamingDecider(
            gate.pipeline, buffer=RingBuffer(4, 100 * HOP_LENGTH), check_liveness=check_liveness
        )
        gate.decider = decider
        decider.accumulator = gate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core_pipeline, "preprocess", gate.preprocess)
            while decider.early is None and decider.checks < len(script):
                decider.push(np.zeros((4, HOP_LENGTH)))
        early, taken, scored = _reference(
            list(zip(gate.frames, lags)), gate.outcome, check_liveness, gate.pipeline.config
        )
        assert _verdict(decider.early) == early
        assert decider.checks == taken
        assert set(gate.scored) <= set(scored)
        assert len(gate.scored) == len(set(gate.scored))

    @pytest.mark.parametrize("check_liveness", [True, False])
    @pytest.mark.parametrize("name", CAPTURES)
    def test_streamed_fixtures_fire_as_the_reference(
        self, request, pipeline, name, check_liveness, monkeypatch
    ):
        channels = request.getfixturevalue(name).channels
        outcomes = {}

        def outcome(frame):
            if frame not in outcomes:
                outcomes[frame] = _real_outcome(pipeline, channels[:, : frame * HOP_LENGTH])
            return outcomes[frame]

        prefixes = _record_prefixes(monkeypatch)
        for chunk in CHUNKS:
            prefixes.clear()
            decider = _decider(pipeline, check_liveness)
            checks = _record_checks(decider)
            for start in range(0, channels.shape[1], chunk):
                decider.push(channels[:, start : start + chunk])
            early, taken, scored = _reference(
                checks, outcome, check_liveness, pipeline.config, pipeline.extractor.min_samples
            )
            assert _verdict(decider.early) == early, chunk
            assert decider.checks == taken, chunk
            assert {n // HOP_LENGTH for n in prefixes} <= set(scored), chunk


class TestPrefixJudge:
    """An early check judges its prefix the way ``evaluate`` judges it."""

    @pytest.mark.parametrize("check_liveness", [True, False])
    def test_a_check_masks_the_channel_its_prefix_screens_out(
        self, pipeline, forward_capture, check_liveness
    ):
        # The loudest channel saturates from frame 2: the first check's
        # 4-frame prefix screens it as clipped while only two of the
        # three frame votes that drop a channel have been cast.
        channels = forward_capture.channels.copy()
        loudest = int(np.argmax(np.sqrt(np.mean(np.square(channels), axis=1))))
        peak = np.abs(channels).max()
        tail = channels[loudest, 2 * HOP_LENGTH :]
        channels[loudest, 2 * HOP_LENGTH :] = np.clip(50.0 * tail, -peak, peak)
        decider = _decider(pipeline, check_liveness)
        for start in range(0, 4 * HOP_LENGTH, CHUNK):
            decider.push(channels[:, start : start + CHUNK])
        assert decider.checks == 1 and not decider.degraded
        prefix = Capture(channels=channels[:, : 4 * HOP_LENGTH], sample_rate=FS)
        masked = pipeline.evaluate(prefix, check_liveness=False)
        assert masked.health.clipped == (loudest,)
        (effect,) = decider._effects
        assert effect.facing is not None
        assert effect.score == masked.facing_probability


class TestStreamingCost:
    def test_prefix_work_is_linear_in_the_stream(self, pipeline, forward_capture, monkeypatch):
        # A 74-frame accept: checking every ``check_every`` frames would
        # preprocess 16x the samples streamed.
        channels = np.tile(forward_capture.channels, (1, 4))
        prefixes = _record_prefixes(monkeypatch)
        decider = _decider(pipeline)
        _, result = _stream(decider, channels)
        assert result.frames_seen == 74
        assert sum(prefixes) <= 3 * result.samples_seen
        # Each check waits for the prefix to grow by half: frames 4, 6,
        # 10, 16, 24, 36 and 54.
        assert result.checks == 7

    @pytest.mark.parametrize(
        "name, check_liveness, chunk, checks, scored",
        [
            ("forward_capture", True, 2048, 4, [8192]),
            ("forward_capture", False, 2048, 4, [8192]),
            ("replay_capture", False, 2048, 4, [8192, 12288, 20480]),
            ("replay_capture", False, 16384, 2, [16384]),
        ],
    )
    def test_a_check_no_verdict_reads_is_never_scored(
        self, request, pipeline, monkeypatch, name, check_liveness, chunk, checks, scored
    ):
        # Scoring every check past the stability gate also scored the
        # last one: forward 20,480 samples, replay 32,768.
        prefixes = _record_prefixes(monkeypatch)
        decider = _decider(pipeline, check_liveness)
        _, result = _stream(decider, request.getfixturevalue(name).channels, chunk)
        assert not result.early_exited
        assert result.checks == checks
        assert prefixes == scored

    @pytest.mark.parametrize(
        "name, check_liveness, chunk, frame, scored",
        [
            ("side_capture", True, 2048, 6, [8192, 12288]),
            ("replay_capture", True, 2048, 6, [8192, 12288]),
            ("backward_capture", True, 2048, 10, [8192, 12288, 20480]),
            ("backward_capture", False, 2048, 6, [8192, 12288]),
            ("side_capture", False, 2048, 6, [8192, 12288]),
            ("backward_capture", False, 16384, 16, [16384, 32768]),
            ("side_capture", False, 16384, 16, [16384, 32768]),
        ],
    )
    def test_an_exit_scores_only_its_own_prefix_when_it_fires(
        self, request, pipeline, monkeypatch, name, check_liveness, chunk, frame, scored
    ):
        prefixes = _record_prefixes(monkeypatch)
        decider = _decider(pipeline, check_liveness)
        channels = request.getfixturevalue(name).channels
        for start in range(0, channels.shape[1], chunk):
            before = len(prefixes)
            if decider.push(channels[:, start : start + chunk]) is not None:
                assert prefixes[before:] == [frame * HOP_LENGTH]
        assert decider.early is not None and decider.early.frame == frame
        assert prefixes == scored

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

    def test_long_chunks_vote_a_dead_channel_out_before_any_check(self, pipeline, forward_capture):
        # One 16,384-sample chunk carries 8 frames, and each frame votes:
        # voting once per chunk left the channel in for 3 chunks (49,152
        # samples) while 2 checks scored degraded prefixes.
        channels = forward_capture.channels.copy()
        channels[2, :] = 0.0
        decider = _decider(pipeline)
        decider.push(channels[:, :16384])
        assert decider.degraded
        for start in range(16384, channels.shape[1], 16384):
            decider.push(channels[:, start : start + 16384])
        assert decider.checks == 0
        assert decider.early is None

    def test_vote_out_frame_is_chunk_invariant(self, pipeline, forward_capture, monkeypatch):
        channels = forward_capture.channels.copy()
        channels[2, :] = 0.0
        real = core_streaming.screen_channels
        frames = set()
        for chunk in (333, 512, 1000, 2048, 4096, 16384):
            decider = _decider(pipeline)
            degraded = []  # whether a channel was out as each frame was screened

            def screening(frame):
                degraded.append(decider.degraded)
                return real(frame)

            monkeypatch.setattr(core_streaming, "screen_channels", screening)
            for start in range(0, channels.shape[1], chunk):
                decider.push(channels[:, start : start + chunk])
            assert decider.degraded and not decider.fail_closed, chunk
            frames.add(degraded.index(True))
        assert frames == {UNHEALTHY_VOTES}

"""Tests for the HeadTalk decision pipeline."""

import dataclasses
import sys
import threading
from collections import Counter

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
from repro.core.pipeline import capture_key
from repro.core.streaming import StreamingDecider
from repro.dsp import gcc
from repro.obs import audit_log, clear_spans, observed, span_records
from repro.runtime import fanout
from repro.serving import RingBuffer

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


class TestBandpassBoundary:
    """A capture of exactly the band-pass padlen (33 samples) fails closed
    like its neighbours instead of raising out of the zero-phase filter.

    Liveness is skipped so the orientation stage, which needs more
    samples than these, is what judges them.
    """

    @staticmethod
    def _short(capture, n):
        return Capture(channels=capture.channels[:, 20_000 : 20_000 + n], sample_rate=FS)

    @pytest.mark.parametrize("n", [32, 33, 34])
    def test_short_capture_fails_closed(self, pipeline, forward_capture, n):
        decision = pipeline.evaluate(self._short(forward_capture, n), check_liveness=False)
        assert not decision.accepted
        assert decision.reason == REJECT_DEGRADED_INPUT
        assert decision.detail == "feature-error:utterance too short for correlation analysis"

    def test_batch_still_judges_the_other_capture(self, pipeline, forward_capture):
        captures = [self._short(forward_capture, 33), forward_capture]
        short, full = pipeline.evaluate_batch(captures, check_liveness=False).decisions
        assert short.reason == REJECT_DEGRADED_INPUT
        solo = pipeline.evaluate(forward_capture, check_liveness=False)
        assert full.fingerprint() == solo.fingerprint()

    def test_liveness_on_still_decides(self, pipeline, forward_capture):
        assert not pipeline.evaluate(self._short(forward_capture, 33)).accepted


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
        decider = StreamingDecider(
            fused, buffer=RingBuffer(fused.array.n_mics, forward_capture.n_samples)
        )
        for start in range(0, forward_capture.n_samples, 2048):
            decider.push(forward_capture.channels[:, start : start + 2048])
        decider.finish()
        # Every prefix check that found speech, plus the final evaluate.
        assert sum(spoken) >= 2
        assert sum(gcc_matrices) == sum(spoken)


class TestBatchOnThreads:
    """``evaluate_batch`` on a two-worker pool decides exactly like ``evaluate``.

    The ``two_workers`` fixture forces the fan-out on any runner, a
    one-CPU one included; ``evaluate`` (a batch of one) stays inline.
    """

    @pytest.fixture
    def mixed(self, forward_capture, backward_capture, replay_capture, side_capture):
        dead = forward_capture.channels.copy()
        dead[0] = 0.0
        nan = side_capture.channels.copy()
        nan[2, 1000] = np.nan
        return [
            forward_capture,
            backward_capture,
            replay_capture,
            side_capture,
            Capture(channels=forward_capture.channels[:, 12678:17178], sample_rate=FS),
            Capture(channels=replay_capture.channels[:, 12080:16580], sample_rate=FS),
            Capture(channels=dead, sample_rate=FS),
            Capture(channels=nan, sample_rate=FS),
            Capture(channels=np.zeros((4, FS // 4)), sample_rate=FS),
            Capture(channels=np.zeros((2, FS // 4)), sample_rate=FS),
        ]

    @pytest.fixture
    def preprocess_threads(self, monkeypatch):
        """Names of the threads that preprocessed each capture."""
        names = []
        original = preprocessing.preprocess

        def recorded(*args, **kwargs):
            names.append(threading.current_thread().name)
            return original(*args, **kwargs)

        _rebind(monkeypatch, original, recorded)
        return names

    @pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
    @pytest.mark.parametrize("check_liveness", [True, False], ids=["liveness", "no-liveness"])
    def test_matches_evaluate(
        self, pipeline, mixed, fused, check_liveness, two_workers, preprocess_threads
    ):
        if fused:
            pipeline = dataclasses.replace(
                pipeline, liveness=FusedLivenessDetector(base=pipeline.liveness)
            )
        before = threading.active_count()
        batch = pipeline.evaluate_batch(mixed, check_liveness)
        assert threading.active_count() == before
        assert any(name.startswith("repro-fan-out") for name in preprocess_threads)
        serial = [pipeline.evaluate(capture, check_liveness) for capture in mixed]
        assert [d.fingerprint() for d in batch] == [d.fingerprint() for d in serial]
        reasons = {d.reason for d in batch}
        assert {REJECT_DEGRADED_INPUT, REJECT_NO_SPEECH} <= reasons

    def test_many_workers_at_a_short_switch_interval(self, pipeline, mixed, monkeypatch):
        # More workers than cores, switching threads every microsecond: a
        # model that kept per-call state on a shared instance between
        # threads would mix captures' scores here.
        fused = dataclasses.replace(
            pipeline, liveness=FusedLivenessDetector(base=pipeline.liveness)
        )
        serial = [fused.evaluate(capture) for capture in mixed]
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batch = fused.evaluate_batch(mixed + mixed)
        finally:
            sys.setswitchinterval(interval)
        expected = [d.fingerprint() for d in serial + serial]
        assert [d.fingerprint() for d in batch] == expected

    def test_audit_records_keep_batch_order(self, pipeline, mixed, two_workers):
        with observed(True):
            batch = pipeline.evaluate_batch(mixed)
            records = [
                r for r in audit_log().records() if r.get("event") == "decision"
            ][-len(mixed) :]
        assert [r["call"] for r in records] == ["evaluate_batch"] * len(mixed)
        assert [r["batch_index"] for r in records] == list(range(len(mixed)))
        assert [r["capture_key"] for r in records] == [capture_key(c) for c in mixed]
        assert [r["reason"] for r in records] == [d.reason for d in batch]

    def test_worker_spans_keep_their_parents(
        self, pipeline, forward_capture, backward_capture, side_capture, monkeypatch
    ):
        captures = [forward_capture, backward_capture, side_capture, forward_capture]

        def traced(workers):
            monkeypatch.setattr(fanout, "usable_cpus", lambda: workers)
            with observed(True):
                clear_spans()
                pipeline.evaluate_batch(captures)
                records = span_records()
                clear_spans()
            return records

        def shape(records):
            return Counter((r.name, r.parent, r.depth) for r in records)

        serial, pooled = traced(1), traced(2)
        assert shape(pooled) == shape(serial)
        caller = threading.current_thread().name
        assert {r.thread for r in serial} == {caller}
        workers = {r.thread for r in pooled if r.parent == "pipeline.preprocess"}
        assert workers and all(name.startswith("repro-fan-out") for name in workers)

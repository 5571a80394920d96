"""Tests for the always-on assistant (spotter + controller)."""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import (
    AlwaysOnAssistant,
    ENTER_HEADTALK,
    EventKind,
    Mode,
    WakeWordSpotter,
)
from repro.core.pipeline import Decision

FS = 48_000


class StubPipeline:
    """Scripted pipeline (the real one is exercised in test_pipeline)."""

    def __init__(self, accept: bool):
        self.accept = accept

        class _Config:
            session_seconds = 60.0

        self.config = _Config()

    def evaluate(self, capture, check_liveness=True, **kwargs):
        return Decision(
            accepted=self.accept,
            reason="accepted" if self.accept else "non-facing",
            liveness_score=0.9,
            facing_probability=0.9 if self.accept else 0.1,
            liveness_ms=1.0,
            orientation_ms=1.0,
        )


class StubSpotter(WakeWordSpotter):
    """Spotting decided by a per-call script."""

    def __init__(self, hits):
        super().__init__()
        self.hits = list(hits)

    def detect(self, audio, sample_rate):
        from repro.core.wakeword import Detection

        hit = self.hits.pop(0)
        return Detection(detected=hit, word="computer" if hit else None, distance=0.1, threshold=0.5)


def capture():
    return Capture(channels=np.zeros((4, 4800)), sample_rate=FS)


class TestAlwaysOnAssistant:
    def test_background_speech_never_logged(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([False, False])
        )
        outcome = assistant.hear(capture(), now=0.0)
        assert not outcome.spotted
        assert outcome.event is None
        assert not outcome.uploaded
        assert assistant.uploaded_count() == 0

    def test_wake_word_in_normal_mode_uploads(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([True])
        )
        outcome = assistant.hear(capture(), now=0.0)
        assert outcome.spotted
        assert outcome.uploaded

    def test_headtalk_mode_gates_wake_word(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(False), spotter=StubSpotter([True])
        )
        assistant.controller.voice_command(ENTER_HEADTALK, now=0.0)
        outcome = assistant.hear(capture(), now=1.0)
        assert outcome.spotted
        assert outcome.event.kind is EventKind.SOFT_MUTED
        assert not outcome.uploaded

    def test_mute_mode_skips_spotting_entirely(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([])
        )
        assistant.controller.press_mute_button(now=0.0)
        outcome = assistant.hear(capture(), now=1.0)
        assert not outcome.spotted
        assert outcome.event.kind is EventKind.HARD_MUTED
        # The scripted spotter was never consulted (hits list untouched).
        assert assistant.spotter.hits == []

    def test_mode_property(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([])
        )
        assert assistant.mode is Mode.NORMAL


class TestHearStream:
    def make_stream(self, n_bursts=2):
        rng = np.random.default_rng(0)
        quiet = 0.002 * rng.standard_normal((4, FS // 2))
        pieces = [quiet]
        for _ in range(n_bursts):
            burst = rng.standard_normal((4, FS // 2))
            pieces.extend([burst, quiet])
        return np.concatenate(pieces, axis=1)

    def test_each_segment_processed(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([True, True])
        )
        outcomes = assistant.hear_stream(self.make_stream(2), FS)
        assert len(outcomes) == 2
        assert all(outcome.spotted for outcome in outcomes)

    def test_timeline_offsets(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([True, True])
        )
        assistant.hear_stream(self.make_stream(2), FS, start_time=100.0)
        upload_times = [
            event.time
            for event in assistant.controller.audit_log
            if event.kind is EventKind.UPLOADED
        ]
        # First burst ~0.5 s in; second ~1.5 s in; both offset by 100.
        assert upload_times[0] == pytest.approx(100.5, abs=0.3)

    def test_quiet_stream_yields_nothing(self):
        assistant = AlwaysOnAssistant(
            pipeline=StubPipeline(True), spotter=StubSpotter([])
        )
        quiet = 0.002 * np.random.default_rng(1).standard_normal((4, FS))
        assert assistant.hear_stream(quiet, FS) == []

"""Tests for the privacy-control state machine (Figure 1 semantics)."""

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import (
    ENTER_HEADTALK,
    EXIT_HEADTALK,
    EventKind,
    Mode,
    VoiceAssistantController,
)
from repro.core.pipeline import Decision


class StubPipeline:
    """Pipeline stub with a scripted accept/reject answer."""

    def __init__(self, accept: bool, session_seconds: float = 60.0):
        self.accept = accept
        self.calls = 0
        self.kwargs = None

        class _Config:
            pass

        self.config = _Config()
        self.config.session_seconds = session_seconds

    def evaluate(self, capture, check_liveness=True, **kwargs):
        self.calls += 1
        self.kwargs = kwargs
        return Decision(
            accepted=self.accept,
            reason="accepted" if self.accept else "non-facing",
            liveness_score=0.9,
            facing_probability=0.9 if self.accept else 0.1,
            liveness_ms=1.0,
            orientation_ms=2.0,
        )


def capture():
    return Capture(channels=np.zeros((4, 100)), sample_rate=48_000)


class TestModeChanges:
    def test_starts_in_normal(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        assert controller.mode is Mode.NORMAL

    def test_mute_button_toggles(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        assert controller.press_mute_button() is Mode.MUTE
        assert controller.press_mute_button() is Mode.NORMAL

    def test_enter_and_exit_headtalk(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        assert controller.voice_command(ENTER_HEADTALK) is Mode.HEADTALK
        assert controller.voice_command(EXIT_HEADTALK) is Mode.NORMAL

    def test_commands_ignored_while_muted(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        controller.press_mute_button()
        assert controller.voice_command(ENTER_HEADTALK) is Mode.MUTE

    def test_unknown_command_rejected(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        with pytest.raises(ValueError, match="unrecognized"):
            controller.voice_command("order pizza")


class TestNormalMode:
    def test_wake_word_uploads(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        event = controller.on_wake_word(capture())
        assert event.kind is EventKind.UPLOADED

    def test_pipeline_not_consulted(self):
        stub = StubPipeline(True)
        controller = VoiceAssistantController(pipeline=stub)
        assert not controller.needs_gate(0.0)
        controller.on_wake_word(capture())
        assert stub.calls == 0


class TestMuteMode:
    def test_nothing_processed(self):
        stub = StubPipeline(True)
        controller = VoiceAssistantController(pipeline=stub)
        controller.press_mute_button()
        assert not controller.needs_gate(0.0)
        event = controller.on_wake_word(capture())
        assert event.kind is EventKind.HARD_MUTED
        assert stub.calls == 0
        assert controller.uploaded_count() == 0


class TestHeadTalkMode:
    def make(self, accept, session_seconds=60.0):
        controller = VoiceAssistantController(
            pipeline=StubPipeline(accept, session_seconds)
        )
        controller.voice_command(ENTER_HEADTALK)
        return controller

    def test_accepted_wake_word_opens_session(self):
        controller = self.make(accept=True)
        event = controller.on_wake_word(capture(), now=0.0)
        assert event.kind is EventKind.UPLOADED
        assert controller.session_open_at(30.0)
        assert not controller.session_open_at(61.0)

    def test_rejected_wake_word_soft_mutes(self):
        controller = self.make(accept=False)
        event = controller.on_wake_word(capture(), now=0.0)
        assert event.kind is EventKind.SOFT_MUTED
        assert not controller.session_open_at(1.0)

    def test_session_commands_skip_pipeline(self):
        controller = self.make(accept=True)
        stub = controller.pipeline
        assert controller.needs_gate(0.0)
        controller.on_wake_word(capture(), now=0.0)
        assert stub.calls == 1
        assert not controller.needs_gate(10.0)
        event = controller.on_wake_word(capture(), now=10.0)
        assert event.kind is EventKind.SESSION_COMMAND
        assert stub.calls == 1  # only the first wake word was evaluated
        assert controller.needs_gate(61.0)  # the session has expired
        controller.on_wake_word(capture(), now=61.0)
        assert stub.calls == 2

    def test_labels_reach_the_pipeline(self):
        controller = self.make(accept=True)
        controller.on_wake_word(capture(), now=0.0, truth=True, slices={"source": "live"})
        assert controller.pipeline.kwargs == {"truth": True, "slices": {"source": "live"}}

    def test_session_expires(self):
        controller = self.make(accept=True, session_seconds=5.0)
        controller.on_wake_word(capture(), now=0.0)
        event = controller.on_followup_audio(now=10.0)
        assert event.kind is EventKind.SOFT_MUTED

    def test_followup_without_session_soft_muted(self):
        controller = self.make(accept=False)
        event = controller.on_followup_audio(now=0.0)
        assert event.kind is EventKind.SOFT_MUTED

    def test_mode_change_closes_session(self):
        controller = self.make(accept=True)
        controller.on_wake_word(capture(), now=0.0)
        controller.voice_command(EXIT_HEADTALK, now=1.0)
        controller.voice_command(ENTER_HEADTALK, now=2.0)
        assert not controller.session_open_at(3.0)


class TestCloudLedger:
    def test_uploads_reach_the_cloud(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        controller.on_wake_word(capture(), now=0.0)
        assert len(controller.cloud_recordings) == 1
        assert controller.cloud_recordings[0].time == 0.0

    def test_soft_muted_audio_never_reaches_cloud(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(False))
        controller.voice_command(ENTER_HEADTALK, now=0.0)
        controller.on_wake_word(capture(), now=1.0)
        assert controller.cloud_recordings == []

    def test_delete_history(self):
        from repro.core import DELETE_HISTORY

        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        controller.on_wake_word(capture(), now=0.0)
        controller.on_wake_word(capture(), now=1.0)
        assert len(controller.cloud_recordings) == 2
        controller.voice_command(DELETE_HISTORY, now=2.0)
        assert controller.cloud_recordings == []
        # The on-device audit log survives deletion (it never left).
        assert len(controller.audit_log) == 3

    def test_delete_history_returns_count(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        controller.on_wake_word(capture(), now=0.0)
        assert controller.delete_history(now=1.0) == 1
        assert controller.delete_history(now=2.0) == 0


class TestAuditLog:
    def test_everything_logged(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(False))
        controller.voice_command(ENTER_HEADTALK, now=0.0)
        controller.on_wake_word(capture(), now=1.0)
        controller.on_followup_audio(now=2.0)
        kinds = [event.kind for event in controller.audit_log]
        assert kinds == [
            EventKind.MODE_CHANGE,
            EventKind.SOFT_MUTED,
            EventKind.SOFT_MUTED,
        ]

    def test_uploaded_count(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(True))
        controller.on_wake_word(capture(), now=0.0)  # normal mode upload
        controller.voice_command(ENTER_HEADTALK, now=1.0)
        controller.on_wake_word(capture(), now=2.0)  # headtalk accepted
        controller.on_wake_word(capture(), now=3.0)  # session command
        assert controller.uploaded_count() == 3

    def test_decision_attached_to_headtalk_events(self):
        controller = VoiceAssistantController(pipeline=StubPipeline(False))
        controller.voice_command(ENTER_HEADTALK)
        event = controller.on_wake_word(capture(), now=1.0)
        assert event.decision is not None
        assert event.decision.reason == "non-facing"


class TestScriptedSessionAudit:
    """A full NORMAL → HEADTALK → MUTE session, event by event.

    Pins the exact audit-event sequence (and the obs mirror of it) for
    the canonical walkthrough: normal-mode upload, HeadTalk entry, an
    accepted wake word opening a session, two in-session commands that
    must NOT re-run the pipeline, session expiry soft-muting a follow-up,
    then hard mute swallowing everything.
    """

    def script(self, controller):
        controller.on_wake_word(capture(), now=0.0)  # NORMAL: uploaded
        controller.voice_command(ENTER_HEADTALK, now=1.0)
        controller.on_wake_word(capture(), now=2.0)  # evaluated: session opens
        controller.on_wake_word(capture(), now=3.0)  # in session: no re-check
        controller.on_followup_audio(now=4.0)  # in session: no re-check
        controller.on_followup_audio(now=70.0)  # session expired (60 s)
        controller.press_mute_button(now=71.0)
        controller.on_wake_word(capture(), now=72.0)  # hard muted
        controller.voice_command(ENTER_HEADTALK, now=73.0)  # ignored while muted

    def test_exact_event_sequence(self):
        stub = StubPipeline(True)
        controller = VoiceAssistantController(pipeline=stub)
        self.script(controller)
        assert [event.kind for event in controller.audit_log] == [
            EventKind.UPLOADED,
            EventKind.MODE_CHANGE,
            EventKind.UPLOADED,
            EventKind.SESSION_COMMAND,
            EventKind.SESSION_COMMAND,
            EventKind.SOFT_MUTED,
            EventKind.MODE_CHANGE,
            EventKind.HARD_MUTED,
            EventKind.HARD_MUTED,
        ]
        # The pipeline ran exactly once: the wake word that opened the
        # session.  In-session commands, normal mode and mute never
        # consult it ("the user does not need to continuously face the
        # device for the remaining session").
        assert stub.calls == 1
        # Two UPLOADED + two SESSION_COMMAND events reached the cloud.
        assert controller.uploaded_count() == 4

    def test_obs_mirror_carries_kind_mode_and_decision(self):
        from repro.obs import audit_log, observed

        stub = StubPipeline(True)
        controller = VoiceAssistantController(pipeline=stub)
        # The global ring may already hold records (instrumented CI runs
        # the whole suite with REPRO_OBS=1); only this script's tail is
        # under test.
        before = len(audit_log().records())
        with observed():
            self.script(controller)
        records = [
            r for r in audit_log().records()[before:] if r["event"] == "gate"
        ]
        assert [r["kind"] for r in records] == [
            e.kind.value for e in controller.audit_log
        ]
        opened = records[2]
        assert opened["mode"] == "headtalk"
        assert opened["accepted"] is True
        assert opened["reason"] == "accepted"
        assert records[3]["accepted"] is None  # session command: no decision

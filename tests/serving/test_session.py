"""DeviceSession: the controller's state machine under a streamed lifecycle."""

import pytest

from repro.serving import DeviceSession, ServingConfig, SessionError

CHUNK = 2048


@pytest.fixture(scope="module")
def config():
    return ServingConfig(check_liveness=False)


def _feed(session, capture, chunk=CHUNK):
    events = []
    channels = capture.channels
    for start in range(0, channels.shape[1], chunk):
        event = session.push_audio(channels[:, start : start + chunk])
        if event is not None:
            events.append(event)
    return events


class TestGatedLifecycle:
    def test_rejected_wake_soft_mutes(self, trained_pipeline, backward_capture, config):
        session = DeviceSession("s1", trained_pipeline, config)
        wake = session.begin_wake(now=0.0)
        assert wake["gated"] is True
        events = _feed(session, backward_capture)
        assert len(events) == 1 and events[0]["event"] == "early"
        decision = session.end_wake(now=0.0)
        assert decision["kind"] == "soft-muted"
        assert decision["accepted"] is False
        assert decision["early"] is True
        assert decision["frames_to_decision"] < decision["frames_seen"]
        batch = trained_pipeline.evaluate(backward_capture, check_liveness=False)
        assert decision["fingerprint"] == list(batch.fingerprint())
        assert not session.controller.session_open_at(0.0)

    def test_status_counts_frames_after_the_early_event(
        self, trained_pipeline, backward_capture, config
    ):
        session = DeviceSession("s1b", trained_pipeline, config)
        session.begin_wake(now=0.0)
        channels = backward_capture.channels
        early_frame = None
        for start in range(0, channels.shape[1], CHUNK):
            event = session.push_audio(channels[:, start : start + CHUNK])
            if event is not None:
                early_frame = event["frame"]
            # Frame and hop are both CHUNK: one frame per full chunk.
            pushed = min(start + CHUNK, channels.shape[1])
            assert session.status()["frames_seen"] == pushed // CHUNK
        assert early_frame is not None
        decision = session.end_wake(now=0.0)
        assert decision["frames_seen"] == channels.shape[1] // CHUNK > early_frame

    def test_accepted_wake_opens_session(self, trained_pipeline, forward_capture, config):
        session = DeviceSession("s2", trained_pipeline, config)
        session.begin_wake(now=0.0)
        assert _feed(session, forward_capture) == []
        decision = session.end_wake(now=0.0)
        assert decision["kind"] == "uploaded"
        assert decision["accepted"] is True
        assert decision["early"] is False
        assert session.controller.session_open_at(10.0)
        # A follow-up command inside the session uploads without a gate.
        followup = session.followup(now=10.0)
        assert followup["kind"] == "session-command"

    def test_in_session_wake_skips_the_gate(self, trained_pipeline, forward_capture, config):
        session = DeviceSession("s3", trained_pipeline, config)
        session.begin_wake(now=0.0)
        _feed(session, forward_capture)
        assert session.end_wake(now=0.0)["accepted"] is True
        wake = session.begin_wake(now=1.0)
        assert wake["gated"] is False
        _feed(session, forward_capture)
        decision = session.end_wake(now=1.0)
        assert decision["gated"] is False
        assert decision["kind"] == "session-command"
        # After the session window expires, the gate is back.
        expired = session.begin_wake(now=1000.0)
        assert expired["gated"] is True
        _feed(session, forward_capture)
        assert session.end_wake(now=1000.0)["gated"] is True

    def test_ring_overflow_is_reported_not_fatal(self, trained_pipeline, forward_capture):
        tiny = ServingConfig(check_liveness=False, ring_seconds=0.2)
        session = DeviceSession("s4", trained_pipeline, tiny)
        session.begin_wake(now=0.0)
        _feed(session, forward_capture)
        decision = session.end_wake(now=0.0)
        assert decision["dropped_samples"] > 0
        assert decision["fingerprint"] is not None


    def test_band_pass_padlen_utterance_gets_a_decision(
        self, trained_pipeline, forward_capture, config
    ):
        """33 samples, exactly the band-pass padlen: the session decides
        (fail closed) instead of raising out of ``end_wake``."""
        session = DeviceSession("s5", trained_pipeline, config)
        session.begin_wake(now=0.0)
        assert session.push_audio(forward_capture.channels[:, 20_000:20_033]) is None
        decision = session.end_wake(now=0.0)
        assert decision["event"] == "decision"
        assert decision["accepted"] is False
        assert decision["reason"] == "degraded-input"

class TestModes:
    def test_mute_hard_blocks(self, trained_pipeline, forward_capture, config):
        session = DeviceSession("s5", trained_pipeline, config)
        assert session.mute(now=0.0)["mode"] == "mute"
        wake = session.begin_wake(now=1.0)
        assert wake["gated"] is False
        _feed(session, forward_capture)
        decision = session.end_wake(now=1.0)
        assert decision["kind"] == "hard-muted"
        assert decision["accepted"] is None
        assert decision["fingerprint"] is None

    def test_voice_command_switches_modes(self, trained_pipeline, config):
        session = DeviceSession("s6", trained_pipeline, config)
        assert session.command("exit headtalk mode", now=0.0)["mode"] == "normal"
        assert session.command("enter headtalk mode", now=1.0)["mode"] == "headtalk"
        with pytest.raises(SessionError):
            session.command("make me a sandwich", now=2.0)

    def test_normal_mode_uploads_ungated(self, trained_pipeline, forward_capture, config):
        from repro.core import Mode

        session = DeviceSession("s7", trained_pipeline, config, mode=Mode.NORMAL)
        wake = session.begin_wake(now=0.0)
        assert wake["gated"] is False
        _feed(session, forward_capture)
        decision = session.end_wake(now=0.0)
        assert decision["kind"] == "uploaded"
        assert decision["gated"] is False


class TestLifecycleErrors:
    def test_audio_outside_wake(self, trained_pipeline, forward_capture, config):
        session = DeviceSession("s8", trained_pipeline, config)
        with pytest.raises(SessionError):
            session.push_audio(forward_capture.channels[:, :CHUNK])

    def test_end_without_wake(self, trained_pipeline, config):
        session = DeviceSession("s9", trained_pipeline, config)
        with pytest.raises(SessionError):
            session.end_wake(now=0.0)

    def test_double_wake(self, trained_pipeline, config):
        session = DeviceSession("s10", trained_pipeline, config)
        session.begin_wake(now=0.0)
        with pytest.raises(SessionError):
            session.begin_wake(now=0.0)

    def test_close_abandons_the_utterance(self, trained_pipeline, forward_capture, config):
        session = DeviceSession("s11", trained_pipeline, config)
        session.begin_wake(now=0.0)
        session.push_audio(forward_capture.channels[:, :CHUNK])
        session.close()
        assert not session.streaming
        with pytest.raises(SessionError):
            session.end_wake(now=0.0)

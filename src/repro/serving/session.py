"""One connected device: controller + ring buffer + streaming decider.

A :class:`DeviceSession` is the paper's privacy state machine
(:class:`repro.core.controller.VoiceAssistantController`, default mode
HEADTALK) made streamable.  The wake/audio/end lifecycle maps onto it:

- ``begin_wake`` asks the controller whether this wake word must pass
  the HeadTalk gate (``needs_gate``: HEADTALK mode, no open session).
  Gated utterances get a :class:`~repro.core.streaming.StreamingDecider`
  writing into the session's bounded ring buffer, the one copy of the
  utterance its frame evidence, early checks and final decision read;
  ungated ones just buffer.
- ``push_audio`` feeds a chunk to the decider and surfaces its early
  verdict, if one fires, as an event the gateway pushes to the client.
- ``end_wake`` closes the utterance: the decider's audit-grade decision
  (byte-identical to batch evaluation of the buffered stream) is
  applied through ``on_wake_decision`` — the controller re-checks its
  mode/session guards at apply time, so a mute or an opened session
  that raced the stream wins.  If the mode flipped the *other* way
  (gating became necessary mid-stream), the buffered capture is judged
  whole via ``on_wake_word``.

Sessions are single-connection state driven by one gateway task; the
controller they wrap is independently thread-safe, so an operator
thread may mute a device while its stream is in flight.
"""

from __future__ import annotations

import time

from ..acoustics.propagation import Capture
from ..core.controller import Mode, VoiceAssistantController
from ..core.pipeline import HeadTalkPipeline
from ..core.streaming import StreamingDecider, StreamingResult
from ..obs import audit_record, counter_inc, histogram_observe, windowed_inc
from ..obs.correlate import correlated
from ..obs.slo import slo_observe_decision
from .config import ServingConfig
from .ring import RingBuffer


class SessionError(ValueError):
    """Protocol misuse on an otherwise healthy session.

    Raised for out-of-order lifecycle ops (audio outside a wake,
    double wake, end without wake) and malformed per-op payloads; the
    gateway answers with an error event and keeps the connection.
    """


class DeviceSession:
    """Server-side state of one connected device."""

    def __init__(
        self,
        session_id: str,
        pipeline: HeadTalkPipeline,
        config: ServingConfig | None = None,
        *,
        mode: Mode = Mode.HEADTALK,
        clock=time.monotonic,
    ):
        self.session_id = session_id
        self.pipeline = pipeline
        self.config = config or ServingConfig()
        self.clock = clock
        n_mics = pipeline.array.n_mics
        capacity = max(1, int(self.config.ring_seconds * pipeline.array.sample_rate))
        self.ring = RingBuffer(n_mics, capacity)
        self.controller = VoiceAssistantController(pipeline=pipeline, mode=mode)
        self.decider: StreamingDecider | None = None
        self.streaming = False
        self.utterances = 0
        self.utterance_id = ""
        self.last_result: StreamingResult | None = None
        self._wake_started = 0.0

    def begin_wake(self, now: float | None = None) -> dict:
        """Open an utterance; decides *now* whether it needs the gate."""
        if self.streaming:
            raise SessionError("wake while an utterance is already open")
        now = self.clock() if now is None else now
        self.streaming = True
        self.ring.clear()
        self._wake_started = time.perf_counter()
        self.utterance_id = f"{self.session_id}-u{self.utterances + 1:04d}"
        gated = self.controller.needs_gate(now)
        if gated:
            self.decider = StreamingDecider(
                self.pipeline,
                check_liveness=self.config.check_liveness,
                buffer=self.ring,
                call="serving",
                session_id=self.session_id,
                utterance_id=self.utterance_id,
            )
        else:
            self.decider = None
        counter_inc("serving.wakes", gated=gated)
        return {
            "event": "wake",
            "session": self.session_id,
            "utterance_id": self.utterance_id,
            "gated": gated,
            "mode": self.controller.mode.value,
        }

    def push_audio(self, chunk) -> dict | None:
        """Absorb one PCM chunk; returns an early event if one fired."""
        if not self.streaming:
            raise SessionError("audio outside an open utterance")
        if self.decider is not None:
            with correlated(self.utterance_id):
                early = self.decider.push(chunk)
            if early is not None:
                return {
                    "event": "early",
                    "session": self.session_id,
                    "reason": early.reason,
                    "frame": early.frame,
                    "score": early.score,
                    "detail": early.detail,
                }
            return None
        self.ring.append(chunk)
        return None

    def end_wake(
        self,
        now: float | None = None,
        truth: bool | None = None,
        slices: dict | None = None,
    ) -> dict:
        """Close the utterance and apply its decision to the controller."""
        if not self.streaming:
            raise SessionError("end without an open utterance")
        now = self.clock() if now is None else now
        self.streaming = False
        self.utterances += 1
        decider, self.decider = self.decider, None
        result: StreamingResult | None = None
        with correlated(self.utterance_id):
            if decider is not None:
                result = decider.finish(truth=truth, slices=slices)
                event = self.controller.on_wake_decision(result.decision, now)
            else:
                # Ungated at wake.  If gating became necessary while the
                # stream was in flight (e.g. a voice command entered
                # HeadTalk mode), the controller judges the buffered
                # capture whole: no early evidence was kept.
                capture = Capture(
                    channels=self.ring.snapshot(),
                    sample_rate=self.pipeline.array.sample_rate,
                )
                event = self.controller.on_wake_word(capture, now, truth=truth, slices=slices)
            self.last_result = result
            wall_ms = (time.perf_counter() - self._wake_started) * 1000.0
            decision = result.decision if result is not None else event.decision
            reply = {
                "event": "decision",
                "session": self.session_id,
                "utterance": self.utterances,
                "utterance_id": self.utterance_id,
                "kind": event.kind.value,
                "mode": self.controller.mode.value,
                "detail": event.detail,
                "gated": result is not None,
                "accepted": None if decision is None else decision.accepted,
                "reason": None if decision is None else decision.reason,
                "fingerprint": None if decision is None else list(decision.fingerprint()),
                "early": result.early_exited if result is not None else False,
                "early_reason": (
                    result.early.reason if result is not None and result.early else None
                ),
                "frames_seen": result.frames_seen if result is not None else None,
                "frames_to_decision": (
                    result.frames_to_decision if result is not None else None
                ),
                "dropped_samples": self.ring.dropped,
                "wall_ms": wall_ms,
            }
            histogram_observe("serving.decision_ms", wall_ms)
            counter_inc("serving.utterances", kind=event.kind.value)
            windowed_inc("serving.rps")
            slo_observe_decision(
                wall_ms, reason=None if decision is None else decision.reason
            )
            audit_record(
                "serving",
                session=self.session_id,
                utterance=self.utterances,
                utterance_id=self.utterance_id,
                kind=event.kind.value,
                mode=self.controller.mode.value,
                gated=result is not None,
                early=reply["early"],
                early_reason=reply["early_reason"],
                frames_to_decision=reply["frames_to_decision"],
                dropped_samples=self.ring.dropped,
                wall_ms=round(wall_ms, 3),
                # Scenario metadata from the client's `end` op, so the
                # serving-level audit trail carries the same labels the
                # decision records feed to the monitor (a load driver's
                # per-source analysis works from either stream).
                truth=truth,
                slices=slices,
                source=(slices or {}).get("source"),
            )
        return reply

    def followup(self, now: float | None = None) -> dict:
        """Post-wake command audio (no wake word)."""
        now = self.clock() if now is None else now
        event = self.controller.on_followup_audio(now)
        return {
            "event": "followup",
            "session": self.session_id,
            "kind": event.kind.value,
            "mode": self.controller.mode.value,
            "detail": event.detail,
        }

    def mute(self, now: float | None = None) -> dict:
        """Toggle the hardware mute button."""
        now = self.clock() if now is None else now
        mode = self.controller.press_mute_button(now)
        return {"event": "mode", "session": self.session_id, "mode": mode.value}

    def command(self, text: str, now: float | None = None) -> dict:
        """Apply a recognized mode-change voice command."""
        now = self.clock() if now is None else now
        try:
            mode = self.controller.voice_command(text, now)
        except ValueError as error:
            raise SessionError(str(error)) from error
        return {"event": "mode", "session": self.session_id, "mode": mode.value}

    def status(self) -> dict:
        """Point-in-time JSON view of this session (``/sessions`` endpoint)."""
        decider = self.decider
        ring = self.ring
        return {
            "session": self.session_id,
            "mode": self.controller.mode.value,
            "streaming": self.streaming,
            "gated": decider is not None,
            "utterances": self.utterances,
            "utterance_id": self.utterance_id or None,
            "frames_seen": decider.frames_seen if decider is not None else None,
            "early": (
                decider.early.reason
                if decider is not None and decider.early is not None
                else None
            ),
            "ring": {
                "length": ring.length,
                "capacity": ring.capacity,
                "occupancy": ring.length / ring.capacity if ring.capacity else 0.0,
                "dropped": ring.dropped,
            },
        }

    def close(self) -> None:
        """Abandon any in-flight utterance (connection went away)."""
        self.streaming = False
        self.decider = None

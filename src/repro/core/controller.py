"""Privacy-control state machine (Figure 1).

A VA runs in one of three modes:

- **NORMAL** — classic behaviour: every detected wake word opens a cloud
  session.
- **MUTE** — the hardware mute button: microphones off, nothing is
  processed (the speaker keeps playing media but cannot hear commands).
- **HEADTALK** — wake words are gated by the HeadTalk pipeline; a
  rejected wake word *soft mutes* (no audio leaves the device, media
  keeps playing), and an accepted one opens a session during which
  follow-up commands need no re-check ("once the wake word is detected
  while facing forward, the user does not need to continuously face the
  device for the remaining session").

Mode changes arrive as voice commands ("enter HeadTalk mode") or the
physical mute button.  Every event is recorded in an audit log so the
examples and the user-study simulation can show exactly what audio
would / would not have been uploaded.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from ..acoustics.propagation import Capture
from ..obs import audit_record
from .pipeline import Decision, HeadTalkPipeline


class Mode(enum.Enum):
    """Operating modes of the privacy control."""

    NORMAL = "normal"
    MUTE = "mute"
    HEADTALK = "headtalk"


class EventKind(enum.Enum):
    """What happened to a piece of audio (audit-log entries)."""

    UPLOADED = "uploaded"
    SOFT_MUTED = "soft-muted"
    HARD_MUTED = "hard-muted"
    SESSION_COMMAND = "session-command"
    MODE_CHANGE = "mode-change"


ENTER_HEADTALK = "enter headtalk mode"
EXIT_HEADTALK = "exit headtalk mode"
DELETE_HISTORY = "delete everything i said"


@dataclass(frozen=True)
class CloudRecording:
    """One piece of audio the cloud service retains."""

    time: float
    detail: str


@dataclass(frozen=True)
class AuditEvent:
    """One entry of the privacy audit log."""

    time: float
    kind: EventKind
    mode: Mode
    detail: str
    decision: Decision | None = None


@dataclass
class VoiceAssistantController:
    """A VA front-end with the HeadTalk privacy control installed.

    Time is injected (``now`` arguments) so sessions are deterministic in
    tests and simulations.

    Every public transition runs under a per-controller reentrant lock:
    a controller shared between threads (or between a gateway session
    and an operator thread) applies events one at a time, so its audit
    log is an interleaving of *whole* events, never of half-applied
    state.  Single-threaded callers pay one uncontended lock per event.
    """

    pipeline: HeadTalkPipeline
    mode: Mode = Mode.NORMAL
    audit_log: list[AuditEvent] = field(default_factory=list)
    cloud_recordings: list[CloudRecording] = field(default_factory=list)
    _session_expiry: float = field(default=float("-inf"), repr=False)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def session_open_at(self, now: float) -> bool:
        """Whether a session is open at the given time."""
        return now < self._session_expiry

    def press_mute_button(self, now: float = 0.0) -> Mode:
        """Toggle the hardware mute button."""
        with self._lock:
            self.mode = Mode.NORMAL if self.mode is Mode.MUTE else Mode.MUTE
            self._session_expiry = float("-inf")
            self._log(now, EventKind.MODE_CHANGE, f"mute button -> {self.mode.value}")
            return self.mode

    def voice_command(self, text: str, now: float = 0.0) -> Mode:
        """Apply a recognized mode-change voice command."""
        normalized = text.strip().lower()
        with self._lock:
            if self.mode is Mode.MUTE:
                self._log(now, EventKind.HARD_MUTED, f"ignored while muted: {text!r}")
                return self.mode
            if normalized == ENTER_HEADTALK:
                self.mode = Mode.HEADTALK
                self._session_expiry = float("-inf")
                self._log(now, EventKind.MODE_CHANGE, "entered HeadTalk mode")
            elif normalized == EXIT_HEADTALK:
                self.mode = Mode.NORMAL
                self._session_expiry = float("-inf")
                self._log(now, EventKind.MODE_CHANGE, "exited HeadTalk mode")
            elif normalized == DELETE_HISTORY:
                self.delete_history(now)
            else:
                raise ValueError(f"unrecognized mode command {text!r}")
            return self.mode

    def delete_history(self, now: float = 0.0) -> int:
        """The classic retroactive control: delete cloud recordings.

        This is the existing privacy mechanism the paper's user study
        compares HeadTalk against — it only helps *after* audio has
        already left the device.  Returns how many recordings were
        deleted.  The on-device audit log is untouched (it never left
        the device).
        """
        with self._lock:
            deleted = len(self.cloud_recordings)
            self.cloud_recordings.clear()
            self._log(
                now, EventKind.MODE_CHANGE, f"deleted {deleted} cloud recordings"
            )
            return deleted

    def needs_gate(self, now: float = 0.0) -> bool:
        """Whether a wake word right now must pass the HeadTalk gate.

        The streaming front-end asks this *before* spending work on a
        decider: only HEADTALK mode without an open facing-verified
        session evaluates orientation.  MUTE, NORMAL, and in-session
        wake words route straight through :meth:`on_wake_decision`.
        """
        with self._lock:
            return self.mode is Mode.HEADTALK and not self.session_open_at(now)

    def on_wake_word(
        self,
        capture: Capture,
        now: float = 0.0,
        truth: bool | None = None,
        slices: dict | None = None,
    ) -> AuditEvent:
        """Handle a detected wake-word capture according to the mode.

        The pipeline runs only when :meth:`needs_gate` says so; the
        result then goes through :meth:`on_wake_decision`, whose guard
        routes MUTE, NORMAL and in-session wake words.  ``truth`` /
        ``slices`` (known only in simulations and dataset replays) are
        forwarded to the pipeline so gate decisions made on the
        controller's behalf feed the decision-quality monitor with
        labels; both default to ``None`` and change nothing otherwise.
        """
        with self._lock:
            decision = None
            if self.needs_gate(now):
                decision = self.pipeline.evaluate(capture, truth=truth, slices=slices)
            return self.on_wake_decision(decision, now)

    def on_wake_decision(self, decision: Decision | None, now: float = 0.0) -> AuditEvent:
        """Apply an already-made gate decision to the state machine.

        The streaming path computes its decision incrementally
        (:class:`repro.core.streaming.StreamingDecider`) while audio is
        still arriving, then applies it here — same session bookkeeping
        and audit trail as :meth:`on_wake_word`, without re-evaluating.
        The mode/session guards re-run at apply time: if the device was
        muted or a session opened while the stream was in flight, the
        decision is routed accordingly instead of trusted blindly.
        ``decision`` may be ``None`` only for a wake word the guard
        routes, one that :meth:`needs_gate` does not send to the gate.
        """
        with self._lock:
            if self.mode is Mode.MUTE:
                return self._log(now, EventKind.HARD_MUTED, "microphones disabled")
            if self.mode is Mode.NORMAL:
                return self._log(
                    now, EventKind.UPLOADED, "normal mode: wake word uploaded"
                )
            if self.session_open_at(now):
                return self._log(
                    now, EventKind.SESSION_COMMAND, "within facing-verified session"
                )
            if decision.accepted:
                self._session_expiry = now + self.pipeline.config.session_seconds
                return self._log(
                    now,
                    EventKind.UPLOADED,
                    "facing live human: session opened",
                    decision,
                )
            return self._log(
                now,
                EventKind.SOFT_MUTED,
                f"rejected ({decision.reason}); device stays functional",
                decision,
            )

    def on_followup_audio(self, now: float = 0.0) -> AuditEvent:
        """Handle post-wake command audio (no wake word)."""
        with self._lock:
            if self.mode is Mode.MUTE:
                return self._log(now, EventKind.HARD_MUTED, "microphones disabled")
            if self.mode is Mode.NORMAL:
                return self._log(
                    now, EventKind.UPLOADED, "normal mode: command uploaded"
                )
            if self.session_open_at(now):
                return self._log(
                    now, EventKind.SESSION_COMMAND, "session command uploaded"
                )
            return self._log(
                now, EventKind.SOFT_MUTED, "no open session: command not uploaded"
            )

    def uploaded_count(self) -> int:
        """How many audit events sent audio to the cloud."""
        uploading = {EventKind.UPLOADED, EventKind.SESSION_COMMAND}
        with self._lock:
            return sum(1 for event in self.audit_log if event.kind in uploading)

    def _log(
        self,
        now: float,
        kind: EventKind,
        detail: str,
        decision: Decision | None = None,
    ) -> AuditEvent:
        event = AuditEvent(
            time=now, kind=kind, mode=self.mode, detail=detail, decision=decision
        )
        self.audit_log.append(event)
        if kind in (EventKind.UPLOADED, EventKind.SESSION_COMMAND):
            # Mirror what the manufacturer's cloud now retains.
            self.cloud_recordings.append(CloudRecording(time=now, detail=detail))
        # Mirror the event into the obs audit JSONL (no-op when obs is
        # off) so offline replays see gate context around decisions.
        audit_record(
            "gate",
            kind=kind.value,
            mode=self.mode.value,
            detail=detail,
            t=now,
            accepted=None if decision is None else decision.accepted,
            reason=None if decision is None else decision.reason,
        )
        return event

"""Frame-incremental HeadTalk decisions: the streaming gate.

:class:`StreamingDecider` is :meth:`HeadTalkPipeline.evaluate` unrolled
over a live PCM stream.  Audio arrives chunk by chunk; every chunk is
appended to the caller's sample store (the serving session's
:class:`~repro.serving.ring.RingBuffer`), and each newly complete frame
of that stored stream is health-screened and folded into the
accumulated per-frame GCC evidence
(:class:`repro.dsp.streaming.GccAccumulator`, over the pairs and lag
window of the pipeline's orientation extractor).  The store holds the
utterance's one copy of its samples: screening, the accumulator, the
early checks and the final decision all read it.
Once enough frames have arrived, the decider judges the buffered
*prefix* with the stage function behind ``pipeline.evaluate``
(``HeadTalkPipeline._judge``: validation, preprocessing, health
masking, no speech, liveness, orientation), its thresholds lowered by
the safety margins below, and emits an early verdict as soon as the
evidence crosses the decision threshold with margin, before end of
utterance.  The decider maps the prefix's Decision to strike effects;
it does not know the stage order.

Each check waits for the prefix to grow by half since the last one
(frames 4, 6, 10, 16, 24, 36, 54, …), so the scored prefixes sum to at
most three times the streamed frames and the cost of a streamed
utterance stays linear in its length.  A check is taken on schedule,
but its prefix is scored only when a verdict can read the result.  With
:data:`CONSECUTIVE` = 2 a check can reject only after the check before
it struck, so the first check is scored when it is taken, a later one
only if the latest earlier effect on a strike count is a strike, and a
check that waits is scored when the next check's test reads its effect,
or dropped by ``finish()``: the last check of an utterance that never
strikes twice is never scored.  The strike rule sees the same outcomes
in the same order as scoring every check would, because the store
returns a waiting prefix's bytes unchanged.  The accumulator is fed
only while a check can still fire: after an early verdict, once a
channel is voted out, or once the stream fails closed, it stops, and
the decider counts frames from the samples it has seen.  A stream
longer than the store's capacity keeps only its head, so screening,
the stability gate, the checks and the decision all judge that same
head.  The policy (frame geometry, check schedule, margins,
hysteresis) is the module constants below, one value each.

Two invariants keep early exit sound:

- **Reject-only.**  An early verdict never *opens* the cloud: the only
  early reasons are rejections (non-facing, mechanical, degraded
  input).  Accepting still requires the full utterance.
- **The final decision is the batch decision.**  ``finish()`` evaluates
  the reassembled full buffer through ``pipeline.evaluate`` — the
  returned :class:`Decision` fingerprint is byte-identical to offline
  evaluation of the same capture.  Early exit shortens the *latency* to
  a verdict (``frames_to_decision``), never changes the audit-grade
  outcome.

Hysteresis guards the early checks: a rejection fires only after
:data:`CONSECUTIVE` successive checks land below threshold minus margin,
and only while the accumulated SRP peak lag is stable between checks
(orientation evidence still moving means the frame sum has not settled
— don't trust a prefix score built on it).

Mid-stream channel death degrades instead of crashing: screening each
frame votes channels out after repeated failures, so how a client
chunks its audio cannot change the verdict; if fewer than two healthy
channels remain the session fails closed
(:data:`REJECT_DEGRADED_INPUT`) — the fail-closed verdict takes
precedence over the full-capture decision, matching the fault ladder's
rule that screening evidence may only ever remove permission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..acoustics.propagation import Capture
from ..dsp.streaming import GccAccumulator
from ..obs import counter_inc, histogram_observe, obs_enabled
from ..obs.audit import ACCEPT, REJECT_DEGRADED_INPUT, REJECT_MECHANICAL, REJECT_NON_FACING
from ..obs.correlate import correlated, correlation_id
from ..obs.spans import span
from .pipeline import _FEATURE_ERRORS, Decision, HeadTalkPipeline
from .preprocessing import screen_channels

FRAME_LENGTH = 2048
"""Evidence frame in samples (~43 ms at 48 kHz)."""

HOP_LENGTH = 2048
"""Non-overlapping frames: each sample is judged once."""

MIN_FRAMES = 4
"""Frames before the first early check."""

CHECK_EVERY = 2
"""Minimum frames between early checks.  After a check at frame ``n``
the next waits until frame ``n + CHECK_EVERY * ceil(n / (2 *
CHECK_EVERY))``: the prefix grows by half."""

CONSECUTIVE = 2
"""Below-margin checks before an early rejection fires."""

FACING_MARGIN = 0.10
"""Early facing rejection needs the facing probability below
``facing_threshold - FACING_MARGIN``: the safety band that keeps
borderline prefixes from rejecting utterances the full capture would
accept."""

LIVENESS_MARGIN = 0.25
"""The same safety band under ``liveness_threshold`` for early
liveness rejection."""

UNHEALTHY_VOTES = 3
"""Frames that must independently flag a channel before it is voted out."""


class _Effect(NamedTuple):
    """A scored check's effect on each strike count.

    ``True`` is a strike, ``False`` a pass that resets the count, and
    ``None`` leaves it as it was (no speech, a fail-closed prefix, or
    the facing count after a liveness strike).  ``score`` is the score
    a strike fires with.
    """

    liveness: bool | None
    facing: bool | None
    score: float = 0.0


_NO_EFFECT = _Effect(None, None)


@dataclass(frozen=True)
class EarlyVerdict:
    """A before-end-of-utterance rejection.

    ``frame`` is the number of accumulated frames when the verdict
    fired — the session's frames-to-decision.  ``score`` carries the
    offending model score (liveness or facing probability; 0.0 for
    fail-closed verdicts).
    """

    reason: str
    frame: int
    score: float
    detail: str = ""

    @property
    def accepted(self) -> bool:
        """Early verdicts are reject-only by construction."""
        return False


@dataclass(frozen=True)
class StreamingResult:
    """Outcome of one streamed utterance.

    ``decision`` is the audit-grade full-capture decision; ``early`` the
    mid-stream verdict, if one fired.  ``frames_to_decision`` is where
    the session's verdict became known: the early frame when one fired,
    otherwise all frames seen.
    """

    decision: Decision
    early: EarlyVerdict | None
    frames_seen: int
    frames_to_decision: int
    checks: int
    samples_seen: int
    wall_ms: float

    @property
    def early_exited(self) -> bool:
        """Whether a verdict was available before end of utterance."""
        return self.early is not None

    @property
    def consistent(self) -> bool:
        """Whether the early verdict agreed with the final accept bit."""
        return self.early is None or self.early.accepted == self.decision.accepted


class StreamingDecider:
    """One utterance's incremental decision state.

    Parameters
    ----------
    pipeline:
        The trained gate; its thresholds, extractor and models are the
        single source of truth for both early checks and the final
        decision.
    buffer:
        The utterance's sample store, empty at the start: a
        :class:`~repro.serving.ring.RingBuffer` (``append``, ``prefix``,
        ``snapshot``, ``dropped``).  Each chunk is appended to it;
        screening, the accumulator, the early checks and ``finish()``
        read it back.
    check_liveness:
        Forwarded to the final ``evaluate`` and mirrored by the early
        checks (liveness strikes are skipped when off).
    call, session_id, utterance_id:
        Audit-record naming: ``call`` labels the evaluate entry point,
        ``session_id`` and ``utterance_id`` ride along in the record's
        extra fields.  A non-empty ``utterance_id`` doubles as the
        correlation id bound around the final evaluation
        (:mod:`repro.obs.correlate`), so the decision audit record and
        its spans grep together with the gateway's serving record.
    """

    def __init__(
        self,
        pipeline: HeadTalkPipeline,
        *,
        buffer,
        check_liveness: bool = True,
        call: str = "streaming",
        session_id: str = "",
        utterance_id: str = "",
    ):
        self.pipeline = pipeline
        self.check_liveness = bool(check_liveness)
        self.call = call
        self.session_id = session_id
        self.utterance_id = utterance_id

        n_mics = pipeline.array.n_mics
        extractor = pipeline.extractor
        self.accumulator = GccAccumulator(
            n_mics, extractor.pairs, extractor.max_lag, FRAME_LENGTH, HOP_LENGTH
        )
        self.buffer = buffer
        self.early: EarlyVerdict | None = None
        self.checks = 0
        self.samples_seen = 0
        self._screened_frames = 0
        self._votes = np.zeros(n_mics, dtype=int)
        self._dead: tuple[int, ...] = ()
        self._fail_closed_detail = ""
        self._effects: list[_Effect] = []
        self._waiting: int | None = None
        self._last_srp_lag: int | None = None
        self._next_check_frame = max(MIN_FRAMES, CHECK_EVERY)
        self._started = time.perf_counter()
        self._result: StreamingResult | None = None

    @property
    def fail_closed(self) -> bool:
        """Whether mid-stream screening already forced a rejection."""
        return bool(self._fail_closed_detail)

    @property
    def degraded(self) -> bool:
        """Whether any channel has been voted out mid-stream."""
        return bool(self._dead)

    @property
    def frames_seen(self) -> int:
        """Complete evidence frames streamed so far.

        Counted from the samples streamed, because the accumulator stops
        once no further early check can fire and never reads past the
        store's capacity.
        """
        if self.samples_seen < FRAME_LENGTH:
            return 0
        return 1 + (self.samples_seen - FRAME_LENGTH) // HOP_LENGTH

    def push(self, chunk: np.ndarray) -> EarlyVerdict | None:
        """Absorb one PCM chunk; returns the early verdict when it fires.

        The verdict is returned exactly once (the push that crossed the
        threshold); later pushes keep buffering for the final decision
        and return ``None``.
        """
        if self._result is not None:
            raise RuntimeError("finish() was already called for this utterance")
        x = np.asarray(chunk, dtype=float)
        if x.ndim != 2 or x.shape[0] != self.pipeline.array.n_mics:
            raise ValueError(
                f"chunk must be ({self.pipeline.array.n_mics}, n_samples), got {x.shape}"
            )
        if x.shape[1] == 0:
            return None
        self.samples_seen += x.shape[1]
        self.buffer.append(x)
        self._screen_frames()
        if self.early is not None:
            return None
        if self.fail_closed:
            return self._fire(
                REJECT_DEGRADED_INPUT, score=0.0, detail=self._fail_closed_detail
            )
        if self.degraded:
            # Evidence from dying hardware is not worth an early call;
            # leave the verdict to the full-capture path, which screens
            # and masks for itself.
            return None
        # The frame GCC feeds only the stability gate of checks still to
        # come; past the returns above none can fire, so it stops there.
        self.accumulator.push(self.buffer.prefix(self.samples_seen))
        n_frames = self.frames_seen
        if n_frames >= self._next_check_frame:
            return self._early_check(n_frames)
        return None

    def finish(self, truth: bool | None = None, slices: dict | None = None) -> StreamingResult:
        """Close the utterance: full-capture decision plus stream stats.

        Idempotent; the first call evaluates, later calls return the
        same result.  A check still waiting for its score is dropped:
        no verdict reads it.  The full-capture decision is
        byte-identical to ``pipeline.evaluate`` on the reassembled
        buffer — unless the stream failed closed mid-way, in which case
        the fail-closed rejection takes precedence.  ``truth`` and
        ``slices`` (known
        only in simulations and dataset replays) label the decision
        for the quality monitor, as in ``pipeline.evaluate``.
        """
        if self._result is not None:
            return self._result
        frames_seen = self.frames_seen
        capture = Capture(
            channels=self.buffer.snapshot(),
            sample_rate=self.pipeline.array.sample_rate,
        )
        extra = {
            "streaming": True,
            "frames_seen": frames_seen,
            "frames_to_decision": self.early.frame if self.early else frames_seen,
            "early_exit": self.early is not None,
        }
        if self.early is not None:
            extra["early_reason"] = self.early.reason
        if self.session_id:
            extra["session_id"] = self.session_id
        if self.utterance_id:
            extra["utterance_id"] = self.utterance_id
        if self.buffer.dropped:
            extra["dropped_samples"] = int(self.buffer.dropped)
        with correlated(self.utterance_id or correlation_id()):
            if self.fail_closed:
                with span("pipeline.evaluate", streaming=True):
                    decision = self.pipeline._degraded_decision(self._fail_closed_detail)
                if obs_enabled():
                    self.pipeline._observe_decision(
                        self.call,
                        capture,
                        decision,
                        truth=truth,
                        slices=slices,
                        extra=extra,
                    )
            else:
                decision = self.pipeline.evaluate(
                    capture,
                    self.check_liveness,
                    truth=truth,
                    slices=slices,
                    call=self.call,
                    extra=extra,
                )
        result = StreamingResult(
            decision=decision,
            early=self.early,
            frames_seen=frames_seen,
            frames_to_decision=extra["frames_to_decision"],
            checks=self.checks,
            samples_seen=self.samples_seen,
            wall_ms=(time.perf_counter() - self._started) * 1000.0,
        )
        histogram_observe("streaming.frames_to_decision", result.frames_to_decision)
        if not result.consistent:
            # Margin mis-tuning: the early reject disagreed with the
            # full capture.  The final (batch-identical) decision wins;
            # the conflict is counted so drift shows up in metrics.
            counter_inc("streaming.early_conflicts", reason=result.early.reason)
        self._result = result
        return result

    def _fire(self, reason: str, score: float, detail: str = "") -> EarlyVerdict:
        self.early = EarlyVerdict(
            reason=reason, frame=self.frames_seen, score=score, detail=detail
        )
        counter_inc("streaming.early_exits", reason=reason)
        return self.early

    def _screen_frames(self) -> None:
        """Vote-based mid-stream channel-death tracking, one vote per frame.

        A single noisy frame must not kill a channel: each newly complete
        frame of the stored stream (the frames the accumulator reads) is
        screened on its own and only *votes*, and a channel is excluded
        after :data:`UNHEALTHY_VOTES` strikes.  Screening frames rather
        than client chunks keeps the votes independent of how the client
        frames its audio.  Fewer than two surviving channels fails the
        stream closed.
        """
        stream = self.buffer.prefix(self.samples_seen)
        while not self.fail_closed:
            start = self._screened_frames * HOP_LENGTH
            if stream.shape[1] < start + FRAME_LENGTH:
                return
            health = screen_channels(stream[:, start : start + FRAME_LENGTH])
            self._screened_frames += 1
            if health.unhealthy:
                self._votes[list(health.unhealthy)] += 1
            dead = tuple(int(k) for k in np.nonzero(self._votes >= UNHEALTHY_VOTES)[0])
            if dead and dead != self._dead:
                self._dead = dead
                counter_inc("streaming.channels_voted_out", n=len(dead))
            if len(self._votes) - len(dead) < 2:
                self._fail_closed_detail = "mid-stream-channel-death:dead=" + ",".join(
                    str(k) for k in dead
                )

    def _early_check(self, n_frames: int) -> EarlyVerdict | None:
        """Take the check due at ``n_frames``; score it if a verdict can read it.

        A check that passes the stability gate is recorded by its frame.
        The first is scored at once; a later one only if the latest
        effects on a strike count are strikes, so that a strike now
        fires (:meth:`_struck`).  Otherwise it waits, and is scored when
        the next check's test reads its effect, or dropped by
        ``finish()``.
        """
        # The next check waits until the prefix has grown by half, rounded
        # up to whole ``CHECK_EVERY`` steps: the scored prefixes then sum
        # to at most three times the frames streamed, not to their square.
        step = CHECK_EVERY
        self._next_check_frame = n_frames + step * -(-n_frames // (2 * step))
        self.checks += 1

        # Evidence-stability gate on the accumulated per-frame GCC: the
        # SRP peak lag must agree with the previous check before model
        # scores on the prefix are trusted.  The first check only seeds
        # the reference lag when evidence is still settling.
        lag = self.accumulator.srp_argmax_lag()
        stable = lag == self._last_srp_lag
        self._last_srp_lag = lag
        if not stable and self.checks > 1:
            return None
        if n_frames * HOP_LENGTH < self.pipeline.extractor.min_samples:
            return None

        if self._waiting is not None:
            # The strike test below reads the latest effect on each count.
            self._effects.append(self._score(self._waiting))
            self._waiting = None
        liveness_struck, facing_struck = self._struck("liveness"), self._struck("facing")
        if self._effects and not (liveness_struck or facing_struck):
            # Past the first check, one with no strike to follow cannot
            # fire: it waits.
            self._waiting = n_frames
            return None
        effect = self._score(n_frames)
        self._effects.append(effect)
        if effect.liveness and liveness_struck:
            return self._fire(REJECT_MECHANICAL, score=effect.score)
        if effect.facing and facing_struck:
            return self._fire(REJECT_NON_FACING, score=effect.score)
        return None

    def _struck(self, count: str) -> bool:
        """Whether the latest ``CONSECUTIVE - 1`` effects on ``count`` are strikes."""
        effects = [e for e in (getattr(effect, count) for effect in self._effects) if e is not None]
        need = CONSECUTIVE - 1
        return len(effects) >= need and all(effects[len(effects) - need :])

    def _score(self, n_frames: int) -> _Effect:
        """Judge the prefix of the check at ``n_frames``; map its Decision to strike effects.

        The prefix goes through the gate's own stage function with each
        threshold lowered by its safety band.  Mechanical source is a
        liveness strike; non-facing or accepted is a liveness pass (when
        liveness is checked) and a facing strike or pass.  A fail-closed
        decision whose liveness score reached the lowered threshold
        failed in orientation, after liveness passed: a liveness pass
        only.  No speech, any other fail-closed decision, or input
        trouble the judge raises has no effect.
        """
        prefix = Capture(
            channels=self.buffer.prefix(n_frames * HOP_LENGTH),
            sample_rate=self.pipeline.array.sample_rate,
        )
        with span("streaming.early_check", frame=n_frames):
            try:
                decision = self.pipeline._judge(
                    prefix, self.check_liveness, LIVENESS_MARGIN, FACING_MARGIN
                )
            except _FEATURE_ERRORS:
                return _NO_EFFECT
        live = False if self.check_liveness else None
        if decision.reason == REJECT_MECHANICAL:
            return _Effect(True, None, decision.liveness_score)
        if decision.reason in (ACCEPT, REJECT_NON_FACING):
            return _Effect(live, decision.reason == REJECT_NON_FACING, decision.facing_probability)
        # Every other fail-closed decision scores liveness 0.0, which
        # reaches the lowered threshold only when no liveness score can
        # strike, so a pass there changes no verdict.
        lowered = self.pipeline.config.liveness_threshold - LIVENESS_MARGIN
        if decision.reason == REJECT_DEGRADED_INPUT and decision.liveness_score >= lowered:
            return _Effect(live, None)
        return _NO_EFFECT

"""The HeadTalk decision pipeline (Figure 2).

``HeadTalkPipeline`` composes the preprocessing front-end, the liveness
detector and the orientation detector into a single
``evaluate(capture) -> Decision``:

1. denoise + trim + normalize;
2. reject if no speech activity;
3. reject ("mechanical") if the liveness score is below threshold;
4. reject ("non-facing") if the facing probability is below threshold;
5. otherwise accept — only then would audio go to the cloud.

One stage function judges one capture (``HeadTalkPipeline._judge``):
``evaluate`` calls it, ``evaluate_batch`` maps it over its captures on
one thread per usable CPU (:func:`repro.runtime.fanout.fan_out`), and
the streaming decider's early checks call it on a stream's prefix with
lowered thresholds.  A capture's decision is therefore byte-identical
whichever entry point, and whatever batch, it went through.  Each scored
utterance is correlated once (its pairwise GCC-PHAT matrix, Eq. 5-6),
and that matrix feeds both the fused detector's array cues and the
orientation features.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ..acoustics.propagation import Capture
from ..arrays.geometry import MicArray
from ..obs import audit_record, counter_inc, histogram_observe, obs_enabled
from ..obs.audit import (
    ACCEPT,
    REJECT_DEGRADED_INPUT,
    REJECT_MECHANICAL,
    REJECT_NO_SPEECH,
    REJECT_NON_FACING,
)
from ..obs.profile import profiled
from ..obs.spans import span
from ..runtime.fanout import fan_out
from .config import HeadTalkConfig
from .features import OrientationFeatureExtractor
from .liveness import LivenessDetector
from .orientation import OrientationDetector
from .preprocessing import ChannelHealth, preprocess

# Exceptions the degraded-input guard may convert into a fail-closed
# decision.  Anything else (untrained models, programming errors) still
# raises: fail closed is for *input* trouble, not for misconfiguration.
_FEATURE_ERRORS = (ValueError, FloatingPointError, ZeroDivisionError)


def _describe_health(health: ChannelHealth) -> str:
    """Compact audit detail for a degraded channel-health report."""
    parts = []
    if health.dead:
        parts.append("dead=" + ",".join(str(k) for k in health.dead))
    if health.clipped:
        parts.append("clipped=" + ",".join(str(k) for k in health.clipped))
    if health.non_finite:
        parts.append("non-finite=" + ",".join(str(k) for k in health.non_finite))
    return ";".join(parts)


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def capture_key(capture: Capture) -> str:
    """Short stable digest identifying one capture's audio content.

    The audit log's join key: the same rendered scene always hashes to
    the same key, so decisions can be correlated across runs without
    storing waveforms.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(np.ascontiguousarray(capture.channels).tobytes())
    digest.update(str(capture.channels.shape).encode())
    digest.update(str(capture.sample_rate).encode())
    return digest.hexdigest()


@dataclass(frozen=True)
class Decision:
    """Outcome of evaluating one wake-word capture.

    ``degraded`` marks decisions made on screened (partially faulty)
    input — including normal verdicts computed from the surviving
    microphone pairs; ``detail`` carries the fail-closed cause or the
    channel-health summary, and ``health`` the full screening report
    when one was taken.
    """

    accepted: bool
    reason: str
    liveness_score: float
    facing_probability: float
    liveness_ms: float
    orientation_ms: float
    preprocess_ms: float = 0.0
    degraded: bool = False
    detail: str = ""
    health: ChannelHealth | None = field(default=None, compare=False)

    @property
    def total_ms(self) -> float:
        """End-to-end decision latency in milliseconds.

        Matches the paper's end-to-end definition: preprocessing plus
        both inference stages (stages that were skipped or short-
        circuited contribute their measured 0).
        """
        return self.preprocess_ms + self.liveness_ms + self.orientation_ms

    def fingerprint(self) -> tuple:
        """The timing-free content of a decision.

        Two runs of the same capture produce equal fingerprints whenever
        the underlying math is bit-identical — the equivalence contract
        of the serial/parallel/cached paths (wall-clock fields can never
        reproduce).
        """
        return (
            self.accepted,
            self.reason,
            self.liveness_score,
            self.facing_probability,
            self.degraded,
            self.detail,
        )


@dataclass(frozen=True)
class BatchEvaluation:
    """Decisions plus the wall clock of one ``evaluate_batch`` call."""

    decisions: list[Decision]
    total_ms: float

    @property
    def per_capture_ms(self) -> float:
        """The call's wall clock divided by its captures."""
        return self.total_ms / len(self.decisions)

    def __iter__(self):
        return iter(self.decisions)

    def __len__(self) -> int:
        return len(self.decisions)


@dataclass
class HeadTalkPipeline:
    """Liveness + orientation gate over wake-word captures.

    Both detectors must be trained (see ``core.enrollment`` and
    ``LivenessDetector.fit``) before calling :meth:`evaluate`.
    """

    array: MicArray
    liveness: LivenessDetector
    orientation: OrientationDetector
    config: HeadTalkConfig = field(default_factory=HeadTalkConfig)
    extractor: OrientationFeatureExtractor | None = None

    def __post_init__(self) -> None:
        if self.extractor is None:
            self.extractor = OrientationFeatureExtractor(self.array)

    def _capture_problem(self, capture: Capture) -> str | None:
        """Up-front structural validation against the array geometry.

        Returns a short cause string (``None`` when the capture is
        well-formed).  The pipeline maps causes to fail-closed
        :data:`REJECT_DEGRADED_INPUT` decisions instead of raising — a
        privacy gate that crashes on a malformed capture is a gate that
        stopped gating.
        """
        if capture.n_mics != self.array.n_mics:
            return (
                f"channel-count:capture={capture.n_mics},array={self.array.n_mics}"
            )
        if capture.sample_rate != self.array.sample_rate:
            return (
                f"sample-rate:capture={capture.sample_rate},"
                f"array={self.array.sample_rate}"
            )
        if capture.n_samples == 0:
            return "empty-capture"
        return None

    def _degraded_decision(self, detail: str) -> Decision:
        """Fail-closed decision for input the gate cannot safely judge."""
        return Decision(
            accepted=False,
            reason=REJECT_DEGRADED_INPUT,
            liveness_score=0.0,
            facing_probability=0.0,
            liveness_ms=0.0,
            orientation_ms=0.0,
            degraded=True,
            detail=detail,
        )

    def _observe_decision(
        self,
        call: str,
        capture: Capture,
        decision: Decision,
        batch_size: int | None = None,
        batch_index: int | None = None,
        truth: bool | None = None,
        slices: dict | None = None,
        extra: dict | None = None,
    ) -> None:
        """Metrics + audit record for one decision (observability on only)."""
        # Lazy: keeps ``python -m repro.obs.monitor`` clean of runpy's
        # already-imported warning (repro's eager core import would
        # otherwise pull the monitor in first).
        from ..obs.monitor import monitor_record
        from ..runtime.cache import cache_counts

        counter_inc("pipeline.decisions", call=call, reason=decision.reason)
        if decision.degraded:
            counter_inc("faults.degraded_decisions", reason=decision.reason)
        if decision.reason == REJECT_DEGRADED_INPUT:
            cause = decision.detail.split(":", 1)[0].split(";", 1)[0] or "unknown"
            counter_inc("faults.fail_closed", cause=cause)
        histogram_observe("pipeline.stage_ms", decision.preprocess_ms, stage="preprocess")
        histogram_observe("pipeline.stage_ms", decision.liveness_ms, stage="liveness")
        histogram_observe("pipeline.stage_ms", decision.orientation_ms, stage="orientation")
        histogram_observe("pipeline.total_ms", decision.total_ms)
        record = {
            "call": call,
            "capture_key": capture_key(capture),
            "accepted": decision.accepted,
            "reason": decision.reason,
            "liveness_score": decision.liveness_score,
            "facing_probability": decision.facing_probability,
            "preprocess_ms": decision.preprocess_ms,
            "liveness_ms": decision.liveness_ms,
            "orientation_ms": decision.orientation_ms,
            "total_ms": decision.total_ms,
            "cache": cache_counts(),
        }
        if decision.degraded:
            record["degraded"] = True
        if decision.detail:
            record["detail"] = decision.detail
        if decision.health is not None and decision.health.is_degraded:
            record["health"] = decision.health.to_dict()
        if batch_size is not None:
            record["batch_size"] = batch_size
            record["batch_index"] = batch_index
        # Ground truth + slice labels ride along when the caller knows
        # them (experiments, dataset replays, scripted sessions), so the
        # quality monitor — live here, or offline replaying the JSONL —
        # can maintain sliced FAR/FRR and calibration state.
        if truth is not None:
            record["truth"] = bool(truth)
        if slices:
            record["slices"] = {str(axis): str(label) for axis, label in slices.items()}
        # Caller-level context (the serving layer's session id and
        # frames-to-decision, a replay's source tag, ...) rides along in
        # the same record so one JSONL line fully describes the decision.
        if extra:
            for key, value in extra.items():
                record.setdefault(str(key), value)
        audit_record("decision", **record)
        monitor_record(record)

    def evaluate(
        self,
        capture: Capture,
        check_liveness: bool = True,
        *,
        truth: bool | None = None,
        slices: dict | None = None,
        call: str = "evaluate",
        extra: dict | None = None,
    ) -> Decision:
        """Run the full gate for one capture.

        With observability enabled (:mod:`repro.obs`) the call is traced
        as a ``pipeline.evaluate`` span with one child span per stage,
        the stage latencies land in the ``pipeline.stage_ms`` histograms
        and the outcome is appended to the decision audit log.  ``truth``
        (the ground-truth should-accept bit, when the caller knows it)
        and ``slices`` (scene labels, e.g. from
        :func:`repro.obs.monitor.slices_from_meta`) annotate the audit
        record and feed the decision-quality monitor; both are ignored
        while observability is off.

        ``call`` names the entry point in the audit record (the serving
        layer evaluates through here with ``call="serving"`` so replays
        can separate streaming from batch decisions) and ``extra``
        attaches caller context fields (session id, frames-to-decision)
        to the same record.  Neither changes the decision.
        """
        with span("pipeline.evaluate"):
            decision = self._judge(capture, check_liveness)
        if obs_enabled():
            self._observe_decision(
                call, capture, decision, truth=truth, slices=slices, extra=extra
            )
        return decision

    def evaluate_batch(
        self,
        captures: list[Capture],
        check_liveness: bool = True,
        *,
        truths: list | None = None,
        slices: list | None = None,
    ) -> BatchEvaluation:
        """Run the gate over many captures, timing the whole call.

        Scores and decisions are byte-identical to calling
        :meth:`evaluate` per capture: each capture is judged by the same
        stage function, and the per-model calls are kept per-row
        precisely so no batched matmul can perturb a single float.  The
        captures are judged on one thread pool made for this call, one
        worker per usable CPU (:func:`repro.runtime.fanout.fan_out`); no
        thread outlives the call.  ``total_ms`` is the call's wall
        clock; each returned ``Decision`` carries its own stage times.

        ``truths`` / ``slices`` optionally carry one ground-truth label /
        slice-label dict per capture (``None`` entries allowed) for the
        decision-quality monitor; like the other observability hooks
        they cost nothing while observability is off.
        """
        if not captures:
            raise ValueError("captures must be non-empty")
        if truths is not None and len(truths) != len(captures):
            raise ValueError("truths must align with captures")
        if slices is not None and len(slices) != len(captures):
            raise ValueError("slices must align with captures")
        with profiled("pipeline.evaluate_batch"), span(
            "pipeline.evaluate_batch", n=len(captures)
        ):
            start = time.perf_counter()
            decisions = fan_out(partial(self._judge, check_liveness=check_liveness), captures)
            evaluation = BatchEvaluation(decisions, _ms_since(start))
        if obs_enabled():
            histogram_observe("pipeline.batch_per_capture_ms", evaluation.per_capture_ms)
            for index, (capture, decision) in enumerate(zip(captures, evaluation.decisions)):
                self._observe_decision(
                    "evaluate_batch",
                    capture,
                    decision,
                    batch_size=len(captures),
                    batch_index=index,
                    truth=None if truths is None else truths[index],
                    slices=None if slices is None else slices[index],
                )
        return evaluation

    def _judge(
        self,
        capture: Capture,
        check_liveness: bool,
        liveness_margin: float = 0.0,
        facing_margin: float = 0.0,
    ) -> Decision:
        """The gate's stage sequence on one capture, each stage timed and traced.

        Validation, preprocessing, channel-health masking (fail closed
        below two healthy channels), no speech, liveness, orientation.
        A scored utterance is correlated once, by the first stage that
        reads its GCC matrix (liveness when the detector is fused, else
        orientation).  A :data:`_FEATURE_ERRORS` raised while
        correlating or anywhere in the orientation stage fails closed,
        as does a non-finite liveness score; whatever else a stage
        raises (``preprocess`` and the liveness model included)
        propagates.  The margins lower the liveness and facing
        thresholds: final decisions take none, the streaming decider's
        early checks take its safety bands.
        """
        problem = self._capture_problem(capture)
        if problem is not None:
            return self._degraded_decision(problem)
        with span("pipeline.preprocess"):
            start = time.perf_counter()
            audio = preprocess(capture)
        health = audio.health
        masked = health is not None and health.is_degraded
        # The no-speech verdict; every later outcome is a replace() of it.
        judged = Decision(
            accepted=False,
            reason=REJECT_NO_SPEECH,
            liveness_score=0.0,
            facing_probability=0.0,
            liveness_ms=0.0,
            orientation_ms=0.0,
            preprocess_ms=_ms_since(start),
            degraded=masked,
            detail=_describe_health(health) if masked else "",
            health=health,
        )

        def fail(cause: str, **fields) -> Decision:
            return replace(
                judged, reason=REJECT_DEGRADED_INPUT, degraded=True, detail=cause, **fields
            )

        if masked and len(health.healthy) < 2:
            return fail(f"no-healthy-pair;{judged.detail}")
        if not audio.had_speech:
            return judged

        gcc = None
        score, liveness_ms = 1.0, 0.0
        if check_liveness:
            with span("pipeline.liveness"):
                start = time.perf_counter()
                # A fused detector gets the full multi-channel audio and
                # its GCC matrix so the array-side cues (TDoA coherence,
                # directivity consistency) join the blend; the plain
                # detector sees the reference channel only.
                if hasattr(self.liveness, "fused_scores"):
                    try:
                        gcc = self.extractor.correlate(audio)
                    except _FEATURE_ERRORS as error:
                        return fail(f"feature-error:{error}", liveness_ms=_ms_since(start))
                    scores = self.liveness.fused_scores([audio], self.extractor, [gcc])
                else:
                    scores = self.liveness.scores([audio.reference], audio.sample_rate)
                score = float(scores[0])
                liveness_ms = _ms_since(start)
            if not np.isfinite(score):
                return fail("non-finite-liveness-score", liveness_ms=liveness_ms)
            if score < self.config.liveness_threshold - liveness_margin:
                return replace(
                    judged, reason=REJECT_MECHANICAL, liveness_score=score, liveness_ms=liveness_ms
                )

        with span("pipeline.orientation"):
            start = time.perf_counter()
            try:
                if gcc is None:
                    gcc = self.extractor.correlate(audio)
                if masked:
                    features = self.extractor.extract_masked(audio, health.healthy, gcc)
                else:
                    features = self.extractor.extract(audio, gcc)
                # NaN/Inf escaping the extractor must never reach the SVM.
                if not np.all(np.isfinite(features)):
                    raise ValueError("non-finite-features")
                probability = float(
                    self.orientation.facing_probability(features.reshape(1, -1))[0]
                )
            except _FEATURE_ERRORS as error:
                return fail(
                    f"feature-error:{error}",
                    liveness_score=score,
                    liveness_ms=liveness_ms,
                    orientation_ms=_ms_since(start),
                )
            orientation_ms = _ms_since(start)
        accepted = probability >= self.config.facing_threshold - facing_margin
        return replace(
            judged,
            accepted=accepted,
            reason=ACCEPT if accepted else REJECT_NON_FACING,
            liveness_score=score,
            facing_probability=probability,
            liveness_ms=liveness_ms,
            orientation_ms=orientation_ms,
        )

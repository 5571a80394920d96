"""Span tracer for ``--trace`` runs, installed from outside ``src/``.

:class:`Tracer` wraps the public callables each layer exposes (listed in
:data:`TRACED`).  Methods are wrapped on their class; a module-level
function is rebound in every loaded module whose attribute *is* the
original, because callers import these functions by name.  Each call
records one span ``(name, start, end, parent, corr, n)``: ``parent`` is
the index of the enclosing traced span (-1 at top level), ``corr`` the
correlation id :mod:`repro.obs.correlate` has bound (``DeviceSession``
binds one per utterance) or, failing that, the ``utterance_id`` of the
traced instance, and ``n`` a size for the calls whose per-layer metrics
need one (samples, or captures per batch).

Traced callables are synchronous, so spans nest strictly even on an
asyncio loop and a plain stack gives each span its parent.  A span's
self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from repro.obs.correlate import correlation_id

TRACED = (
    ("repro.serving.session", "DeviceSession.begin_wake"),
    ("repro.serving.session", "DeviceSession.push_audio"),
    ("repro.serving.session", "DeviceSession.end_wake"),
    ("repro.serving.ring", "RingBuffer.append"),
    ("repro.serving.ring", "RingBuffer.prefix"),
    ("repro.serving.ring", "RingBuffer.snapshot"),
    ("repro.core.streaming", "StreamingDecider.push"),
    ("repro.core.streaming", "StreamingDecider.finish"),
    ("repro.core.pipeline", "HeadTalkPipeline.evaluate"),
    ("repro.core.pipeline", "HeadTalkPipeline.evaluate_batch"),
    ("repro.core.preprocessing", "preprocess"),
    ("repro.core.preprocessing", "screen_channels"),
    ("repro.dsp.filters", "BandpassFilter.apply"),
    ("repro.core.features", "OrientationFeatureExtractor.extract"),
    ("repro.core.features", "OrientationFeatureExtractor.extract_batch"),
    ("repro.core.features", "OrientationFeatureExtractor.extract_masked"),
    ("repro.core.features", "OrientationFeatureExtractor.array_cues"),
    ("repro.core.liveness", "LivenessDetector.scores"),
    ("repro.core.liveness", "FusedLivenessDetector.fused_scores"),
    ("repro.core.orientation", "OrientationDetector.facing_probability"),
    ("repro.dsp.gcc", "pairwise_gcc"),
    ("repro.dsp.gcc", "pairwise_gcc_batch"),
    ("repro.dsp.gcc", "pairwise_gcc_frames"),
    ("repro.dsp.gcc", "pairwise_gcc_framewise"),
    ("repro.dsp.streaming", "GccAccumulator.push"),
    ("repro.dsp.stft", "stft"),
)

SIZES = {
    "preprocess": lambda args: args[0].channels.shape[1],
    "StreamingDecider.push": lambda args: np.shape(args[1])[1],
    "HeadTalkPipeline.evaluate_batch": lambda args: len(args[1]),
}
"""Span sizes: samples preprocessed, samples streamed, captures per batch."""

FIELDS = ("name", "start", "end", "parent", "corr", "n")

SESSION_OPS = ("DeviceSession.begin_wake", "DeviceSession.push_audio", "DeviceSession.end_wake")


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self) -> "Tracer":
        for module_name, path in TRACED:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(path, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(path, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None) or {}
                for name, value in list(namespace.items()):
                    if value is original:
                        self._patch(loaded, name, original, wrapper)
        return self

    def uninstall(self) -> list:
        """Restore every wrapped callable; returns the recorded spans."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        return self.spans

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def _wrap(self, name: str, fn):
        spans, stack, size = self.spans, self._stack, SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                corr = correlation_id()
                if corr is None and args:
                    corr = getattr(args[0], "utterance_id", None)
                spans[index] = (name, start, end, parent, corr, size(args) if size else None)

        return traced


def layer_table(spans: list) -> dict:
    """Per-name ``{"calls", "total_ms", "self_ms"}`` over all spans."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    table: dict = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for index, (name, start, end, _, _, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total_ms"] += (end - start) * 1000.0
        row["self_ms"] += (end - start - child_s[index]) * 1000.0
    return dict(table)


def _under(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(
    spans: list,
    utterances: int,
    *,
    gateway_cpu_s: float | None,
    early_exits: int,
) -> dict:
    """The per-layer metrics of one traced phase (see README.md).

    ``gateway_cpu_s`` is the gateway child's CPU time over the phase
    (``None`` when no gateway ran); ``early_exits`` counts the phase's
    early verdicts.
    """
    n = max(utterances, 1)
    total_s: dict = defaultdict(float)
    calls: Counter = Counter()
    facing_s = []
    prefix_calls = prefix_samples = streamed_samples = 0
    for index, (name, start, end, _, _, size) in enumerate(spans):
        total_s[name] += end - start
        calls[name] += 1
        if name == "OrientationDetector.facing_probability":
            facing_s.append(end - start)
        elif name == "StreamingDecider.push":
            streamed_samples += size
        elif name == "preprocess" and _under(spans, index, "StreamingDecider.push"):
            prefix_calls += 1
            prefix_samples += size

    def ms(*names):
        return 1000.0 * sum(total_s[name] for name in names) / n

    session_s = sum(total_s[name] for name in SESSION_OPS)
    extract = ("OrientationFeatureExtractor.extract", "OrientationFeatureExtractor.extract_masked")
    return {
        "serving.gateway_self_ms_per_utt": (
            0.0 if gateway_cpu_s is None else 1000.0 * max(gateway_cpu_s - session_s, 0.0) / n
        ),
        "serving.push_audio_ms_per_utt": ms("DeviceSession.push_audio"),
        "serving.end_wake_ms_per_utt": ms("DeviceSession.end_wake"),
        "streaming.push_ms_per_utt": ms("StreamingDecider.push"),
        "streaming.prefix_preprocess_per_utt": prefix_calls / n,
        "streaming.prefix_samples_ratio": (
            prefix_samples / streamed_samples if streamed_samples else 0.0
        ),
        "streaming.finish_ms_per_utt": ms("StreamingDecider.finish"),
        "streaming.early_exit_frac": early_exits / n,
        "pipeline.evaluate_ms_per_utt": ms("HeadTalkPipeline.evaluate"),
        "pipeline.evaluate_calls_per_utt": calls["HeadTalkPipeline.evaluate"] / n,
        "pipeline.evaluate_batch_ms_per_utt": ms("HeadTalkPipeline.evaluate_batch"),
        "preprocess.calls_per_utt": calls["preprocess"] / n,
        "preprocess.ms_per_utt": ms("preprocess"),
        "preprocess.screen_ms_per_utt": ms("screen_channels"),
        "features.extract_calls_per_utt": sum(calls[name] for name in extract) / n,
        "features.extract_ms_per_utt": ms(*extract, "OrientationFeatureExtractor.extract_batch"),
        "features.array_cues_ms_per_utt": ms("OrientationFeatureExtractor.array_cues"),
        "liveness.fused_scores_ms_per_utt": ms("FusedLivenessDetector.fused_scores"),
        "liveness.net_scores_ms_per_utt": ms("LivenessDetector.scores"),
        "orientation.facing_probability_us_p50": (
            1e6 * float(np.median(facing_s)) if facing_s else 0.0
        ),
        "dsp.pairwise_gcc_calls_per_utt": calls["pairwise_gcc"] / n,
        "dsp.pairwise_gcc_ms_per_utt": ms("pairwise_gcc"),
        "dsp.pairwise_gcc_batch_ms_per_utt": ms("pairwise_gcc_batch"),
        "dsp.gcc_accumulator_ms_per_utt": ms("GccAccumulator.push"),
        "dsp.stft_calls_per_utt": calls["stft"] / n,
        "dsp.stft_ms_per_utt": ms("stft"),
        "dsp.bandpass_ms_per_utt": ms("BandpassFilter.apply"),
    }

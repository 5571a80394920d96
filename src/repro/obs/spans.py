"""Nestable tracing spans with monotonic-clock timings.

``span("stage")`` is a context manager that records the wall-clock
duration of its body.  Spans nest: each completed span knows its depth
and the name of its enclosing span, so a flat list of
:class:`SpanRecord` reconstructs the call tree.  Nesting state is
thread-local (concurrent threads trace independently) and the completed
record buffer is lock-guarded.  Work handed to another thread keeps its
place in the tree by running under :func:`spans_under` the submitting
thread's :func:`open_spans`.

When observability is disabled (:mod:`repro.obs.control`),
:func:`span` returns a shared no-op context manager: the instrumented
caller pays one function call and a global read, nothing else.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from .control import obs_enabled
from .correlate import correlation_id

MAX_SPANS = 100_000
"""Completed-span buffer bound (oldest records are dropped beyond it)."""

_EPOCH = time.perf_counter()
_RECORDS: deque = deque(maxlen=MAX_SPANS)
_RECORDS_LOCK = threading.Lock()
_LOCAL = threading.local()


def _stack() -> list:
    frames = getattr(_LOCAL, "frames", None)
    if frames is None:
        frames = _LOCAL.frames = []
    return frames


def open_spans() -> tuple[str, ...]:
    """Names of the calling thread's open spans, outermost first."""
    return tuple(_stack())


@contextmanager
def spans_under(parents: tuple[str, ...]):
    """Nest this thread's spans under ``parents`` for the body's duration.

    ``parents`` is another thread's :func:`open_spans`: a task that one
    thread submits to a pool thread then records the parent and depth
    it would have had on the submitting thread.
    """
    saved = getattr(_LOCAL, "frames", None)
    _LOCAL.frames = list(parents)
    try:
        yield
    finally:
        _LOCAL.frames = saved


@dataclass(frozen=True)
class SpanRecord:
    """One completed span, flat enough for a JSON trace."""

    name: str
    start_ms: float
    duration_ms: float
    depth: int
    parent: str | None
    thread: str
    error: str | None
    labels: tuple[tuple[str, str], ...] = ()

    def to_dict(self) -> dict:
        """JSON-serializable form (labels become a plain dict)."""
        return {
            "name": self.name,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "depth": self.depth,
            "parent": self.parent,
            "thread": self.thread,
            "error": self.error,
            "labels": dict(self.labels),
        }


class _NoopSpan:
    """Shared do-nothing span handed out while observability is off."""

    __slots__ = ()
    name = None
    duration_ms = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; created via :func:`span`, recorded on exit.

    ``duration_ms`` is populated when the body exits (including by
    exception — the record then carries the exception type in ``error``
    and the exception propagates untouched).
    """

    __slots__ = ("name", "labels", "duration_ms", "_start")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self.duration_ms = 0.0
        self._start = 0.0

    def __enter__(self) -> "Span":
        _stack().append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        stack = _stack()
        stack.pop()
        self.duration_ms = (end - self._start) * 1000.0
        record = SpanRecord(
            name=self.name,
            start_ms=(self._start - _EPOCH) * 1000.0,
            duration_ms=self.duration_ms,
            depth=len(stack),
            parent=stack[-1] if stack else None,
            thread=threading.current_thread().name,
            error=exc_type.__name__ if exc_type is not None else None,
            labels=tuple(sorted(self.labels.items())),
        )
        with _RECORDS_LOCK:
            _RECORDS.append(record)
        return False


def span(name: str, **labels):
    """Context manager timing one named stage (no-op when disabled).

    A bound correlation id (:mod:`repro.obs.correlate`) becomes a
    ``corr`` label, so an utterance's spans filter out of the trace by
    the same id its audit records carry.
    """
    if not obs_enabled():
        return NOOP_SPAN
    labels = {key: str(value) for key, value in labels.items()}
    cid = correlation_id()
    if cid is not None:
        labels.setdefault("corr", cid)
    return Span(name, labels)


def span_records(name: str | None = None) -> list[SpanRecord]:
    """Completed spans in completion order (children before parents)."""
    with _RECORDS_LOCK:
        records = list(_RECORDS)
    if name is None:
        return records
    return [record for record in records if record.name == name]


def clear_spans() -> None:
    """Drop every completed span record."""
    with _RECORDS_LOCK:
        _RECORDS.clear()


def export_trace(path=None) -> list[dict]:
    """The flat JSON trace; optionally written to ``path`` as JSON."""
    trace = [record.to_dict() for record in span_records()]
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return trace

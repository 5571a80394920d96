"""JSONL decision audit log.

Every gate outcome (:meth:`HeadTalkPipeline.evaluate` /
``evaluate_batch``) is recorded here while observability is on: one
JSON object per line with the capture key, verdicts, per-stage
latencies and the runtime cache counters at decision time.  Records
land in a bounded in-memory ring (inspectable in tests and notebooks)
and, when a path is configured — ``REPRO_AUDIT_LOG`` or
:func:`configure_audit` — are appended to a JSONL file as they happen.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
import time
from collections import deque

from .control import obs_enabled
from .correlate import correlation_id

DEFAULT_CAPACITY = 4096

# The decision record's ``reason`` vocabulary: the gate's verdicts.
ACCEPT = "accepted"
REJECT_NO_SPEECH = "no-speech"
REJECT_MECHANICAL = "mechanical-source"
REJECT_NON_FACING = "non-facing"
REJECT_DEGRADED_INPUT = "degraded-input"


class AuditLog:
    """Bounded in-memory record ring with an optional JSONL file sink.

    The sink is a persistent line-buffered append handle, opened lazily
    on the first write and kept open across records (re-opening the file
    per record while holding the lock dominated sink cost at audit
    rates).  ``line.write() + "\\n"`` happens as one string so concurrent
    writers never interleave partial lines; :meth:`configure` closes and
    re-points the handle, :meth:`flush`/:meth:`close` expose explicit
    durability control.
    """

    def __init__(self, path=None, capacity: int = DEFAULT_CAPACITY) -> None:
        self._records: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._path = str(path) if path else None
        self._handle = None

    @property
    def path(self) -> str | None:
        """The JSONL sink path (``None`` keeps records in memory only)."""
        return self._path

    def _sink(self):
        """The open sink handle (lazily opened; caller holds the lock)."""
        if self._handle is None and self._path:
            parent = os.path.dirname(self._path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._handle = open(self._path, "a", encoding="utf-8", buffering=1)
        return self._handle

    def log(self, record: dict) -> dict:
        """Append one record (a ``ts`` epoch field is added if missing)."""
        record = dict(record)
        record.setdefault("ts", time.time())
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self._records.append(record)
            if self._path:
                self._sink().write(line + "\n")
        return record

    def records(self) -> list[dict]:
        """The in-memory ring, oldest first."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop the in-memory ring (the file sink is left untouched)."""
        with self._lock:
            self._records.clear()

    def flush(self) -> None:
        """Flush the sink handle to disk (no-op without an open sink)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        """Close the sink handle; the next :meth:`log` re-opens it."""
        with self._lock:
            self._close_handle()

    def _close_handle(self) -> None:
        """Close the open handle if any (caller holds the lock)."""
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None

    def configure(self, path=None, capacity: int | None = None) -> None:
        """Re-point the file sink and/or resize the ring.

        Closes any open handle; the new sink opens on the next write.
        """
        with self._lock:
            self._close_handle()
            self._path = str(path) if path else None
            if capacity is not None:
                self._records = deque(self._records, maxlen=capacity)


_LOG = AuditLog(path=os.environ.get("REPRO_AUDIT_LOG") or None)
# Records are line-buffered, so closing at exit loses nothing; it only
# keeps the open handle from surfacing as an unclosed-file warning.
atexit.register(_LOG.close)


def audit_log() -> AuditLog:
    """The process-global audit log."""
    return _LOG


def configure_audit(path=None, capacity: int | None = None) -> AuditLog:
    """Configure the global audit log's file sink / ring capacity."""
    _LOG.configure(path=path, capacity=capacity)
    return _LOG


def audit_record(event: str, **fields) -> None:
    """Record one audit event; no-op while observability is off.

    ``fields`` must be JSON-serializable (instrumentation converts
    numpy scalars to plain floats before calling).  When a correlation
    id is bound (:mod:`repro.obs.correlate`) it is attached as the
    record's ``corr`` field, so one grep of the log reconstructs an
    utterance end to end; an explicit ``corr`` field wins.
    """
    if not obs_enabled():
        return
    record = {"event": event, **fields}
    cid = correlation_id()
    if cid is not None:
        record.setdefault("corr", cid)
    _LOG.log(record)


def read_jsonl(path) -> list[dict]:
    """Parse a JSONL audit file back into records (blank lines skipped)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records

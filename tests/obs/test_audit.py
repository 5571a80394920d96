"""Audit log: in-memory ring, JSONL sink round-trip, no-op mode."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro

from repro.obs import (
    audit_log,
    audit_record,
    configure_audit,
    read_jsonl,
    set_obs_enabled,
)
from repro.obs.audit import AuditLog


@pytest.fixture
def file_log():
    """Build file-backed ``AuditLog``s that are closed after the test."""
    logs = []

    def make(path):
        logs.append(AuditLog(path=path))
        return logs[-1]

    yield make
    for log in logs:
        log.close()


class TestRing:
    def test_records_kept_in_order(self):
        log = AuditLog()
        log.log({"event": "a"})
        log.log({"event": "b"})
        assert [r["event"] for r in log.records()] == ["a", "b"]

    def test_ts_added_once(self):
        log = AuditLog()
        stamped = log.log({"event": "x"})
        assert stamped["ts"] > 0
        fixed = log.log({"event": "y", "ts": 123.0})
        assert fixed["ts"] == 123.0

    def test_capacity_bounds_ring(self):
        log = AuditLog(capacity=3)
        for k in range(5):
            log.log({"event": str(k)})
        assert [r["event"] for r in log.records()] == ["2", "3", "4"]

    def test_clear_leaves_sink_alone(self, tmp_path, file_log):
        path = tmp_path / "audit.jsonl"
        log = file_log(path)
        log.log({"event": "kept-on-disk"})
        log.clear()
        assert log.records() == []
        assert len(read_jsonl(path)) == 1


class TestJsonlSink:
    def test_file_round_trip(self, tmp_path, file_log):
        path = tmp_path / "audit.jsonl"
        log = file_log(path)
        records = [
            {"event": "decision", "accepted": True, "total_ms": 12.5},
            {"event": "decision", "accepted": False, "reason": "non-facing"},
        ]
        for record in records:
            log.log(record)
        loaded = read_jsonl(path)
        assert len(loaded) == 2
        for original, back in zip(records, loaded):
            for key, value in original.items():
                assert back[key] == value
            assert "ts" in back

    def test_append_across_instances(self, tmp_path, file_log):
        path = tmp_path / "audit.jsonl"
        file_log(path).log({"event": "first"})
        file_log(path).log({"event": "second"})
        assert [r["event"] for r in read_jsonl(path)] == ["first", "second"]

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        path.write_text('{"event": "a"}\n\n{"event": "b"}\n')
        assert [r["event"] for r in read_jsonl(path)] == ["a", "b"]


class TestPersistentHandle:
    def test_handle_opened_once_and_reused(self, tmp_path, file_log):
        log = file_log(tmp_path / "audit.jsonl")
        assert log._handle is None  # lazy: nothing opened before a write
        log.log({"event": "a"})
        handle = log._handle
        assert handle is not None
        log.log({"event": "b"})
        assert log._handle is handle
        assert len(read_jsonl(log.path)) == 2

    def test_close_then_log_reopens(self, tmp_path, file_log):
        log = file_log(tmp_path / "audit.jsonl")
        log.log({"event": "a"})
        log.close()
        assert log._handle is None
        log.log({"event": "b"})  # appends, never truncates
        assert [r["event"] for r in read_jsonl(log.path)] == ["a", "b"]

    def test_flush_without_sink_is_noop(self):
        AuditLog().flush()  # memory-only log: must not raise

    def test_configure_closes_old_handle_and_repoints(self, tmp_path, file_log):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        log = file_log(first)
        log.log({"event": "a"})
        old_handle = log._handle
        log.configure(path=second)
        assert old_handle.closed
        assert log._handle is None
        log.log({"event": "b"})
        assert [r["event"] for r in read_jsonl(first)] == ["a"]
        assert [r["event"] for r in read_jsonl(second)] == ["b"]

    def test_configure_to_memory_only_closes_sink(self, tmp_path):
        log = AuditLog(path=tmp_path / "audit.jsonl")
        log.log({"event": "a"})
        log.configure(path=None)
        assert log._handle is None and log.path is None
        log.log({"event": "b"})  # memory only now
        assert len(read_jsonl(tmp_path / "audit.jsonl")) == 1

    def test_interleaved_writers_never_interleave_lines(self, tmp_path, file_log):
        """Concurrent writers share one line-buffered handle: every line
        in the sink must parse as exactly one record."""
        path = tmp_path / "audit.jsonl"
        log = file_log(path)
        n_threads, n_records = 8, 50
        payload = "x" * 500  # long enough that torn writes would show

        def writer(thread_id):
            for k in range(n_records):
                log.log({"event": f"t{thread_id}-{k}", "payload": payload})

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == n_threads * n_records
        events = set()
        for line in lines:
            record = json.loads(line)  # raises on a torn/interleaved line
            assert record["payload"] == payload
            events.add(record["event"])
        assert len(events) == n_threads * n_records  # nothing lost or doubled


class TestGlobalLog:
    def test_disabled_records_nothing(self):
        audit_record("decision", accepted=True)
        assert audit_log().records() == []

    def test_enabled_records_event(self):
        set_obs_enabled(True)
        audit_record("decision", accepted=True, reason="accepted")
        (record,) = audit_log().records()
        assert record["event"] == "decision"
        assert record["accepted"] is True

    def test_configure_points_sink(self, tmp_path):
        set_obs_enabled(True)
        path = tmp_path / "global.jsonl"
        configure_audit(path=path)
        audit_record("decision", accepted=False)
        assert read_jsonl(path)[0]["accepted"] is False

    def test_configure_capacity_preserves_tail(self):
        log = audit_log()
        for k in range(4):
            log.log({"event": str(k)})
        log.configure(capacity=2)
        assert [r["event"] for r in log.records()] == ["2", "3"]


def test_env_sink_closed_at_exit(tmp_path):
    path = tmp_path / "exit.jsonl"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        REPRO_OBS="1",
        REPRO_AUDIT_LOG=str(path),
    )
    result = subprocess.run(
        [
            sys.executable,
            "-W",
            "always::ResourceWarning",
            "-c",
            "from repro.obs import audit_record; audit_record('probe', n=1)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr
    (record,) = read_jsonl(path)
    assert record["event"] == "probe" and record["n"] == 1

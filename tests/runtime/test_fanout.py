"""The per-call thread fan-out behind the batch renderer and decision entry points."""

import os
import threading
import time

import pytest

from repro.obs import clear_spans, observed, span, span_records
from repro.obs.correlate import correlated, correlation_id
from repro.runtime import fanout
from repro.runtime.fanout import fan_out, usable_cpus


def _thread_name(_item) -> str:
    return threading.current_thread().name


class TestFanOut:
    def test_results_keep_input_order(self, two_workers):
        # Later items finish first; results still come back in input order.
        def slow_first(item):
            time.sleep(0.002 * (5 - item))
            return item * item

        assert fan_out(slow_first, range(5)) == [0, 1, 4, 9, 16]

    def test_runs_on_named_worker_threads(self, two_workers):
        names = fan_out(_thread_name, range(4))
        assert all(name.startswith("repro-fan-out") for name in names)

    def test_inline_below_two_workers(self, monkeypatch):
        caller = threading.current_thread().name
        assert fan_out(_thread_name, ["one"]) == [caller]
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 4)
        assert fan_out(_thread_name, range(4), max_workers=1) == [caller] * 4
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
        assert fan_out(_thread_name, range(4)) == [caller] * 4

    def test_empty(self, two_workers):
        assert fan_out(_thread_name, []) == []

    def test_no_thread_outlives_the_call(self, two_workers):
        before = threading.active_count()
        fan_out(_thread_name, range(8))
        assert threading.active_count() == before

    def test_first_error_in_input_order_propagates(self, two_workers):
        def boom(item):
            if item in (1, 3):
                raise ValueError(f"item {item}")
            return item

        before = threading.active_count()
        with pytest.raises(ValueError, match="item 1"):
            fan_out(boom, range(4))
        assert threading.active_count() == before

    def test_tasks_see_the_callers_correlation_id(self, two_workers):
        with correlated("s000001-u0001"):
            seen = fan_out(lambda _: correlation_id(), range(4))
        assert seen == ["s000001-u0001"] * 4

    def test_worker_spans_nest_under_the_callers(self, two_workers):
        def work(_item):
            with span("task"):
                pass

        with observed(True):
            clear_spans()
            with span("outer"):
                fan_out(work, range(4))
            tasks = span_records("task")
            clear_spans()
        assert len(tasks) == 4
        assert {(r.parent, r.depth) for r in tasks} == {("outer", 1)}
        assert all(r.thread.startswith("repro-fan-out") for r in tasks)


class TestUsableCpus:
    def test_affinity_mask_where_the_os_has_one(self):
        if hasattr(os, "sched_getaffinity"):
            assert usable_cpus() == len(os.sched_getaffinity(0))
        else:
            assert usable_cpus() == (os.cpu_count() or 1)

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

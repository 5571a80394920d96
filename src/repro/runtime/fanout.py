"""Per-call thread fan-out for the batch renderer and decision entry points.

:func:`fan_out` maps a per-item function over a thread pool created for
that one call and returns the results in input order.  The pool has
``min(len(items), n_cpus)`` workers, ``n_cpus`` being the CPUs this
process may run on (:func:`usable_cpus`), or fewer when the caller caps
it; below two workers the map runs inline on the calling thread.  No
thread outlives the call, so there is no module state and no idle pool
for a forked child to inherit.

The per-capture work of a render (image-source RIRs, convolution FFTs)
and of a decision (band-pass, GCC, STFT, model scoring) spends most of
its time in numpy/scipy kernels that release the GIL, so the captures
of one batch run side by side.  A batch decision is one map per call,
each task judging one capture through every stage
(``HeadTalkPipeline._judge``).  Splitting one capture's decision across
threads measured no faster and cost more CPU per decision; fan out
across captures, not inside one.

Each task runs under a copy of the caller's :mod:`contextvars` context
(which carries the correlation id) and with the caller's open spans as
its parents (:func:`repro.obs.spans.spans_under`), so worker telemetry
nests exactly where the inline run would record it.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable

from ..obs.spans import open_spans, spans_under


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fan_out(fn: Callable, items: Iterable, max_workers: int | None = None) -> list:
    """``[fn(item) for item in items]``, one pool thread per usable CPU.

    ``max_workers`` caps the pool below that (``1`` runs inline).  An
    exception raised by ``fn`` propagates from the first failing item in
    input order, after every task has finished.
    """
    items = list(items)
    workers = min(len(items), usable_cpus())
    if max_workers is not None:
        workers = min(workers, max_workers)
    if workers < 2:
        return [fn(item) for item in items]
    parents = open_spans()

    def task(item):
        with spans_under(parents):
            return fn(item)

    with ThreadPoolExecutor(workers, thread_name_prefix="repro-fan-out") as pool:
        futures = [pool.submit(contextvars.copy_context().run, task, item) for item in items]
        return [future.result() for future in futures]

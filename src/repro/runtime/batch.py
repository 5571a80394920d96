"""Process-pool batch rendering of capture scenes.

A :class:`RenderTask` freezes everything one capture render needs —
scene, emission, loudness, noise layers and the *exact* random-generator
state the serial path would have used — so the same task list produces
byte-identical captures whether executed in order in this process
(``workers=1``) or fanned out over a process pool.  Tasks are immutable
and re-executable: the generator state is stored (not a live generator),
so re-running a task list is how warm-cache benchmarks measure
memoization.

Worker processes are plain ``ProcessPoolExecutor`` workers; each holds
its own render cache (:mod:`repro.runtime.cache`).  The default worker
count comes from ``REPRO_RENDER_WORKERS`` (serial when unset) and can be
overridden per call or via :func:`worker_pool`.

Large arrays (emission waveforms out, rendered channels back) travel
through shared memory, not pickles — see :mod:`repro.runtime.shm`.
Disable with ``REPRO_SHM=0``; outputs are byte-identical either way.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ..acoustics.image_source import RirConfig
from ..acoustics.noise import NoiseSource
from ..acoustics.propagation import (
    Capture,
    DEFAULT_N_BANDS,
    render_capture,
    render_interference,
)
from ..acoustics.scene import Scene
from ..acoustics.sources import SourceRendering
from ..faults import chaos as faults_chaos
from ..faults.control import active_scenario
from ..faults.scenario import FaultScenario
from ..obs import workers as obs_workers
from ..obs.control import env_float, env_int, obs_enabled
from ..obs.metrics import counter_inc
from ..obs.profile import profiled
from ..obs.spans import span
from . import shm as shm_mod

_WORKER_OVERRIDE: int | None = None
_ACTIVE_POOL: ProcessPoolExecutor | None = None
_ACTIVE_POOL_WORKERS: int = 0
_WARNED_BAD_WORKERS = False


class RenderDispatchError(RuntimeError):
    """A render task kept failing after every configured retry."""


def default_workers() -> int:
    """Worker count used when ``render_captures`` is not told explicitly.

    Resolution order: :func:`worker_pool` override, then the
    ``REPRO_RENDER_WORKERS`` environment variable, then 1 (serial).  A
    malformed environment value falls back to serial with a one-time
    :class:`RuntimeWarning` naming the bad value — a typo must not
    silently discard the requested parallelism.
    """
    global _WARNED_BAD_WORKERS
    if _WORKER_OVERRIDE is not None:
        return _WORKER_OVERRIDE
    raw = os.environ.get("REPRO_RENDER_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        if not _WARNED_BAD_WORKERS:
            _WARNED_BAD_WORKERS = True
            warnings.warn(
                f"REPRO_RENDER_WORKERS={raw!r} is not an integer; "
                "falling back to serial rendering",
                RuntimeWarning,
                stacklevel=2,
            )
        return 1
    return max(1, workers)


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs for pool dispatch (see ``docs/ROBUSTNESS.md``).

    - ``retries`` — re-dispatches allowed per task after its first
      failure before :class:`RenderDispatchError` is raised;
    - ``backoff_s`` / ``backoff_cap_s`` — capped exponential sleep
      between retry rounds (transient faults get a beat to clear);
    - ``timeout_s`` — wall-clock budget for any single dispatch round;
      a hung worker trips it and is treated like a broken pool
      (``None``/0 disables);
    - ``pool_rebuilds`` — broken-pool rebuilds attempted before the
      remaining tasks fall back to in-process serial rendering.
    """

    retries: int = 2
    backoff_s: float = 0.05
    backoff_cap_s: float = 1.0
    timeout_s: float | None = None
    pool_rebuilds: int = 1

    def backoff_for(self, round_index: int) -> float:
        """Sleep before retry round ``round_index`` (0 = first retry)."""
        if self.backoff_s <= 0.0:
            return 0.0
        return min(self.backoff_cap_s, self.backoff_s * (2.0**round_index))


def retry_policy() -> RetryPolicy:
    """The :class:`RetryPolicy` described by the environment.

    ``REPRO_RENDER_RETRIES``, ``REPRO_RENDER_BACKOFF_S``,
    ``REPRO_RENDER_TIMEOUT_S`` (0 or unset disables) and
    ``REPRO_RENDER_POOL_REBUILDS`` override the defaults; malformed
    values warn once and keep the default (the render must not lose its
    fault tolerance to a typo).
    """
    timeout = env_float("REPRO_RENDER_TIMEOUT_S", 0.0)
    return RetryPolicy(
        retries=max(0, env_int("REPRO_RENDER_RETRIES", 2)),
        backoff_s=max(0.0, env_float("REPRO_RENDER_BACKOFF_S", 0.05)),
        timeout_s=timeout if timeout > 0.0 else None,
        pool_rebuilds=max(0, env_int("REPRO_RENDER_POOL_REBUILDS", 1)),
    )


@contextmanager
def worker_pool(workers: int | None):
    """Scoped default worker count (``None`` leaves the default alone)."""
    global _WORKER_OVERRIDE
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    previous = _WORKER_OVERRIDE
    _WORKER_OVERRIDE = workers if workers is None else int(workers)
    try:
        yield
    finally:
        _WORKER_OVERRIDE = previous


def _worker_pid(_: int) -> int:
    """Trivial pool task used to force worker-process spawn at warmup."""
    return os.getpid()


def _pool_is_broken(pool: ProcessPoolExecutor) -> bool:
    """Whether an executor can no longer accept work.

    ``ProcessPoolExecutor`` flips a private ``_broken`` flag when a
    worker dies; stdlib has kept it stable across 3.8-3.13 and there is
    no public probe short of submitting a doomed task.
    """
    return bool(getattr(pool, "_broken", False))


def _new_pool(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=obs_workers.init_worker,
        initargs=(obs_workers.current_context(),),
    )


def active_pool() -> ProcessPoolExecutor | None:
    """The executor a :func:`persistent_pool` scope has open, if any.

    Never hands out a broken executor: if the registered pool has lost
    a worker process since the last check, it is shut down and
    unregistered here, and the caller sees ``None`` (the next render
    builds a fresh pool).
    """
    global _ACTIVE_POOL, _ACTIVE_POOL_WORKERS
    pool = _ACTIVE_POOL
    if pool is not None and _pool_is_broken(pool):
        counter_inc("runtime.retry.broken_pool_cleared")
        _ACTIVE_POOL, _ACTIVE_POOL_WORKERS = None, 0
        pool.shutdown(wait=False, cancel_futures=True)
        return None
    return pool


def pool_health() -> dict:
    """Read-only view of the scope-registered pool for health endpoints.

    Unlike :func:`active_pool` this never shuts down or unregisters a
    broken pool — a health probe must observe state, not mutate it.
    ``{"pool": "none"}`` when no persistent pool is registered (the
    normal serving configuration: renders build per-call pools),
    ``"ok"``/``"broken"`` otherwise with the registered worker count.
    """
    pool = _ACTIVE_POOL
    if pool is None:
        return {"pool": "none", "workers": 0}
    return {
        "pool": "broken" if _pool_is_broken(pool) else "ok",
        "workers": _ACTIVE_POOL_WORKERS,
    }


def _register_active_pool(pool: ProcessPoolExecutor | None, workers: int) -> None:
    """Swap the scope-registered pool (used after an in-scope rebuild)."""
    global _ACTIVE_POOL, _ACTIVE_POOL_WORKERS
    _ACTIVE_POOL, _ACTIVE_POOL_WORKERS = pool, workers


@contextmanager
def persistent_pool(workers: int, warmup: bool = True):
    """Scoped reusable process pool shared by all renders inside it.

    ``render_captures`` normally spins up a fresh ``ProcessPoolExecutor``
    per call, which charges the one-time worker spawn (interpreter boot,
    numpy/scipy import) to whatever happens to be the first parallel
    batch — exactly the cost that used to pollute the parallel row of
    the runtime benchmark.  Inside this scope the pool is created (and,
    with ``warmup``, its workers force-spawned by trivial tasks) up
    front, every ``render_captures`` call with ``workers`` up to the
    pool size reuses it, and the scope also sets the default worker
    count (like :func:`worker_pool`) so ``workers=None`` callers fan
    out too.

    If the pool breaks inside the scope (a worker crashed), the next
    render's recovery path rebuilds it and re-registers the
    replacement; the scope's exit shuts down whichever pool is current,
    so a broken executor is never left registered.
    """
    if workers < 2:
        raise ValueError("persistent pool needs workers >= 2")
    previous = (_ACTIVE_POOL, _ACTIVE_POOL_WORKERS)
    pool = _new_pool(workers)
    try:
        if warmup:
            with span("runtime.pool_warmup", workers=workers):
                list(pool.map(_worker_pid, range(2 * workers), chunksize=1))
        _register_active_pool(pool, workers)
        with worker_pool(workers):
            yield pool
    finally:
        current = _ACTIVE_POOL
        _register_active_pool(previous[0], previous[1])
        if current is not None and current is not pool:
            # A recovery rebuilt the scope's pool; reap the replacement.
            current.shutdown(wait=False, cancel_futures=True)
        pool.shutdown()


def generator_state(rng: np.random.Generator) -> dict:
    """Snapshot of a generator's bit-stream position (picklable)."""
    return rng.bit_generator.state


def restore_generator(state: dict) -> np.random.Generator:
    """Generator resumed at a snapshotted bit-stream position."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class InterferenceSpec:
    """A coherent point-source interferer mixed into a capture."""

    scene: Scene
    kind: str
    level_db_spl: float


@dataclass(frozen=True)
class RenderTask:
    """One capture render, frozen for (re-)execution anywhere.

    ``rng_state`` is the state of the caller's per-utterance generator at
    the moment the serial path would call ``render_capture`` — i.e. after
    pose sampling and emission synthesis consumed from it.  Executing the
    task never mutates the stored state, so task lists can be re-run.
    """

    scene: Scene
    rendering: SourceRendering
    rng_state: dict
    loudness_db_spl: float = 70.0
    rir_config: RirConfig | None = None
    ambient: NoiseSource | None = None
    extra_noise: tuple[NoiseSource, ...] = ()
    n_bands: int = DEFAULT_N_BANDS
    self_noise_db_spl: float | None = None
    interference: tuple[InterferenceSpec, ...] = ()
    faults: FaultScenario | None = None

    @classmethod
    def from_rng(
        cls, scene: Scene, rendering: SourceRendering, rng: np.random.Generator, **kwargs
    ) -> "RenderTask":
        """Task capturing ``rng``'s current state (the serial hand-off point)."""
        return cls(scene=scene, rendering=rendering, rng_state=generator_state(rng), **kwargs)


def execute_render_task(task: RenderTask) -> Capture:
    """Render one task exactly as the serial path would.

    The restored generator is threaded through the capture render and
    then each interference layer in order, reproducing the sequential
    random stream of the original in-line code path.

    A task that carries no :class:`FaultScenario` of its own picks up
    the ambient one (:func:`repro.faults.control.active_scenario`) here;
    pool dispatch pre-attaches the parent's scenario to every task, so
    in-memory overrides survive the process boundary and the corruption
    is applied exactly once on every path.
    """
    if task.faults is None:
        scenario = active_scenario()
        if scenario is not None:
            task = replace(task, faults=scenario)
    with span("runtime.render_task"):
        return _execute_render_task(task)


def _execute_task_with_sidecar(task: RenderTask) -> tuple[Capture, "obs_workers.WorkerSidecar"]:
    """Pool-worker task function on the observed path.

    Wraps :func:`execute_render_task` in worker-side telemetry and ships
    a :class:`~repro.obs.workers.WorkerSidecar` back with the capture.
    The render itself is untouched — the returned bytes are identical to
    the plain path for any observability state.
    """
    with obs_workers.task_telemetry() as telemetry:
        capture = execute_render_task(task)
    return capture, telemetry.sidecar


def _pool_chunk(tasks: tuple[RenderTask, ...], attempts: tuple[int, ...], observe: bool) -> list:
    """Worker-side execution of one dispatched chunk of tasks.

    The chaos hooks (:mod:`repro.faults.chaos`) run here — and only
    here: simulated worker faults exercise the pool retry/rebuild
    machinery, never the in-process serial path it falls back to.
    """
    results = []
    for task, attempt in zip(tasks, attempts):
        key = task_key(task)
        faults_chaos.maybe_crash(key, attempt)
        faults_chaos.maybe_fail(key, attempt)
        results.append(_execute_task_with_sidecar(task) if observe else execute_render_task(task))
    return results


_EMPTY_WAVEFORM = np.zeros(0)
"""Placeholder for waveforms traveling through shared memory instead."""


@dataclass(frozen=True)
class _ShmChunkResult:
    """A chunk's captures shipped by reference instead of by pickle.

    ``items`` holds ``(ref, sample_rate, sidecar_or_None)`` per task of
    the chunk, in dispatch order; ``segment`` names the worker-created
    shared-memory block holding the channel arrays.  The parent copies
    the arrays out and unlinks the segment.
    """

    segment: str
    items: tuple


def _pool_chunk_shm(
    segment_name: str,
    tasks: tuple[RenderTask, ...],
    refs: tuple[shm_mod.ShmArrayRef, ...],
    attempts: tuple[int, ...],
    observe: bool,
) -> object:
    """Shared-memory variant of :func:`_pool_chunk`.

    Tasks arrive with placeholder waveforms and are rehydrated from
    read-only views of the parent's arena (``task_key`` ignores the
    waveform, so the chaos hooks fire identically on both paths).  An
    attach failure raises — the dispatch machinery retries and finally
    falls back to serial execution of the *original* tasks, which still
    carry their waveforms.
    """
    segment = shm_mod.attach(segment_name)
    try:
        results = []
        for task, ref, attempt in zip(tasks, refs, attempts):
            key = task_key(task)
            faults_chaos.maybe_crash(key, attempt)
            faults_chaos.maybe_fail(key, attempt)
            waveform = shm_mod.read_array(segment, ref)
            task = replace(task, rendering=replace(task.rendering, waveform=waveform))
            results.append(
                _execute_task_with_sidecar(task) if observe else execute_render_task(task)
            )
    finally:
        segment.close()
    return _pack_chunk_results(results, observe)


def _pack_chunk_results(results: list, observe: bool) -> object:
    """Move a chunk's rendered channels into a transferable segment.

    Falls back to returning the plain (pickled) results if the segment
    cannot be created; the parent accepts both shapes.
    """
    captures = [r[0] for r in results] if observe else results
    try:
        segment, refs = shm_mod.pack_arrays([c.channels for c in captures])
    except Exception:
        return results
    items = tuple(
        (ref, capture.sample_rate, (results[i][1] if observe else None))
        for i, (ref, capture) in enumerate(zip(refs, captures))
    )
    name = segment.name
    segment.close()
    return _ShmChunkResult(segment=name, items=items)


def _unpack_chunk(chunk_results: object, observe: bool) -> list:
    """Parent-side inverse of :func:`_pack_chunk_results`.

    Copies each capture's channels out of the worker's segment and
    unlinks it; plain (non-shm) chunk results pass through untouched.
    """
    if not isinstance(chunk_results, _ShmChunkResult):
        return chunk_results
    segment = shm_mod.attach(chunk_results.segment)
    try:
        out = []
        for ref, sample_rate, sidecar in chunk_results.items:
            capture = Capture(
                channels=np.array(shm_mod.read_array(segment, ref)),
                sample_rate=sample_rate,
            )
            out.append((capture, sidecar) if observe else capture)
    finally:
        shm_mod.dispose(segment)
    return out


def _discard_chunk_segment(future) -> None:
    """Unlink the result segment of a completed-but-unread future.

    When a broken pool aborts a round, futures that finished before the
    break would otherwise leak their worker-created segments (their
    results are deliberately dropped to keep recovery semantics
    unchanged).
    """
    if not future.done():
        return
    try:
        result = future.result(timeout=0)
    except Exception:
        return
    if isinstance(result, _ShmChunkResult):
        try:
            shm_mod.dispose(shm_mod.attach(result.segment))
        except Exception:
            pass


def _execute_render_task(task: RenderTask) -> Capture:
    rng = restore_generator(task.rng_state)
    capture = render_capture(
        task.scene,
        task.rendering,
        loudness_db_spl=task.loudness_db_spl,
        rng=rng,
        rir_config=task.rir_config,
        ambient=task.ambient,
        extra_noise=task.extra_noise,
        n_bands=task.n_bands,
        self_noise_db_spl=task.self_noise_db_spl,
    )
    if task.interference:
        channels = capture.channels.copy()
        for spec in task.interference:
            channels += render_interference(
                spec.scene,
                spec.kind,
                spec.level_db_spl,
                capture.n_samples,
                rng,
                task.rir_config,
            )
        capture = Capture(channels=channels, sample_rate=capture.sample_rate)
    if task.faults is not None:
        # Post-render corruption: the fault stream is derived from the
        # scenario seed and the clean capture's content, so the result
        # is byte-identical wherever (and in whatever order) the task
        # runs — see repro.faults.scenario.
        capture = task.faults.apply(capture)
    return capture


def task_key(task: RenderTask) -> str:
    """Short stable digest identifying one render task.

    The per-task handle for retry bookkeeping and the deterministic
    chaos hooks: the frozen ``rng_state`` uniquely positions the task
    in its batch's random stream, so its repr is a cheap content key
    (no rendering required).
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(repr(task.rng_state).encode())
    digest.update(str(task.loudness_db_spl).encode())
    return digest.hexdigest()


def render_captures(
    tasks: list[RenderTask],
    workers: int | None = None,
    chunksize: int | None = None,
) -> list[Capture]:
    """Render a batch of tasks, serially or over a process pool.

    Results are returned in task order and are byte-identical for any
    ``workers`` value: each task carries its own random-stream state, and
    render memoization never consumes randomness (see
    :mod:`repro.runtime.cache`).

    Parameters
    ----------
    workers:
        Process count; ``None`` uses :func:`default_workers`, ``1`` runs
        in-process (and therefore shares this process's warm caches).
        Inside a :func:`persistent_pool` scope whose pool is at least
        this large, the scope's already-spawned workers are reused.
    chunksize:
        Tasks per pool dispatch; defaults to a value that balances
        scheduling overhead against load balance.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    workers = default_workers() if workers is None else int(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, len(tasks))
    scenario = active_scenario()
    if scenario is not None:
        # Attach the ambient fault scenario before the serial/pool split,
        # so both execution paths corrupt identically.  Tasks that carry
        # their own scenario keep it.
        tasks = [
            task if task.faults is not None else replace(task, faults=scenario)
            for task in tasks
        ]
    with profiled("runtime.render_captures"), span(
        "runtime.render_captures", workers=workers, n=len(tasks)
    ):
        if workers == 1:
            counter_inc("runtime.captures_rendered", amount=len(tasks), mode="serial")
            return [execute_render_task(task) for task in tasks]
        if chunksize is None:
            chunksize = max(1, len(tasks) // (4 * workers))
        counter_inc("runtime.captures_rendered", amount=len(tasks), mode="pool")
        # With observability on, workers return (capture, sidecar) pairs
        # and the parent folds the sidecars into its registry and trace
        # on completion; the disabled path ships plain captures.
        observe = obs_enabled()
        results = _render_with_pool(tasks, workers, chunksize, observe)
        if not observe:
            return results
        obs_workers.merge_sidecars(sidecar for _, sidecar in results if sidecar is not None)
        return [capture for capture, _ in results]


def _render_with_pool(
    tasks: list[RenderTask], workers: int, chunksize: int, observe: bool
) -> list:
    """Dispatch tasks over a process pool with fail-closed recovery.

    Each round submits the still-unresolved tasks as chunks and collects
    results under the :func:`retry_policy` in effect:

    - an ordinary chunk failure re-dispatches its tasks as singletons,
      so one poisoned task cannot take its chunk-mates down with it; a
      *singleton* failure charges that task an attempt, and a task past
      ``retries`` attempts raises :class:`RenderDispatchError`;
    - a broken pool (worker killed) or a round past ``timeout_s`` (a
      hung worker) tears the executor down and rebuilds it, up to
      ``pool_rebuilds`` times — a rebuilt :func:`persistent_pool`
      executor is re-registered so the scope keeps working;
    - past the rebuild budget, the remaining tasks fall back to
      in-process serial rendering, which cannot lose a worker.

    Results are byte-identical to the serial path in every case: tasks
    are pure functions of their frozen state, so re-execution anywhere
    reproduces the same capture.
    """
    policy = retry_policy()
    n = len(tasks)
    results: list = [None] * n
    attempts = [0] * n
    pool = active_pool()
    owned = pool is None or _ACTIVE_POOL_WORKERS < workers
    if owned:
        pool = _new_pool(workers)
    rebuilds = 0
    retry_round = 0
    pending = list(range(n))
    single = False  # retry rounds dispatch singletons to isolate blame
    # Outbound zero-copy: pack every task's waveform into one parent-
    # owned arena and dispatch placeholder tasks + references.  Any
    # failure here degrades to plain pickled dispatch.
    arena = None
    arena_refs: list = []
    light_tasks: list = []
    if shm_mod.shm_enabled():
        try:
            arena, arena_refs = shm_mod.pack_arrays([task.rendering.waveform for task in tasks])
            light_tasks = [
                replace(task, rendering=replace(task.rendering, waveform=_EMPTY_WAVEFORM))
                for task in tasks
            ]
        except Exception:
            counter_inc("runtime.shm.fallbacks")
            if arena is not None:
                shm_mod.dispose(arena)
            arena = None
    try:
        while pending:
            size = 1 if single else chunksize
            chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
            pool_failed = False
            retry_next: list[int] = []
            futures: dict = {}
            try:
                for chunk in chunks:
                    if arena is not None:
                        future = pool.submit(
                            _pool_chunk_shm,
                            arena.name,
                            tuple(light_tasks[k] for k in chunk),
                            tuple(arena_refs[k] for k in chunk),
                            tuple(attempts[k] for k in chunk),
                            observe,
                        )
                    else:
                        future = pool.submit(
                            _pool_chunk,
                            tuple(tasks[k] for k in chunk),
                            tuple(attempts[k] for k in chunk),
                            observe,
                        )
                    futures[future] = chunk
            except BrokenProcessPool:
                pool_failed = True
            deadline = None if policy.timeout_s is None else time.monotonic() + policy.timeout_s
            for future, chunk in futures.items():
                if pool_failed:
                    if not future.cancel():
                        _discard_chunk_segment(future)
                    continue
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                try:
                    chunk_results = _unpack_chunk(future.result(timeout=remaining), observe)
                except FuturesTimeoutError:
                    counter_inc("runtime.retry.timeouts")
                    pool_failed = True
                except BrokenProcessPool:
                    counter_inc("runtime.retry.pool_broken")
                    pool_failed = True
                except Exception as error:
                    counter_inc("runtime.retry.task_failures", amount=len(chunk))
                    if len(chunk) == 1:
                        k = chunk[0]
                        attempts[k] += 1
                        if attempts[k] > policy.retries:
                            raise RenderDispatchError(
                                f"render task {task_key(tasks[k])} failed after "
                                f"{attempts[k]} dispatches: {error!r}"
                            ) from error
                    retry_next.extend(chunk)
                else:
                    for k, result in zip(chunk, chunk_results):
                        results[k] = result
            if pool_failed:
                pool.shutdown(wait=False, cancel_futures=True)
                if _ACTIVE_POOL is pool:
                    _register_active_pool(None, 0)
                unresolved = [k for k in range(n) if results[k] is None]
                # The dispatch died under every in-flight task; charging
                # each one an attempt keeps the deterministic chaos hooks
                # from re-killing the rebuilt pool with the same task.
                for k in unresolved:
                    attempts[k] += 1
                if rebuilds >= policy.pool_rebuilds:
                    counter_inc("runtime.retry.serial_fallbacks", amount=len(unresolved))
                    for k in unresolved:
                        capture = execute_render_task(tasks[k])
                        results[k] = (capture, None) if observe else capture
                    pool = None
                    break
                rebuilds += 1
                counter_inc("runtime.retry.pool_rebuilds")
                replacement = _new_pool(workers)
                if not owned:
                    # Keep the persistent_pool scope serviced: register
                    # the replacement so later renders (and the scope's
                    # exit) see a live executor, never the broken one.
                    _register_active_pool(replacement, workers)
                pool = replacement
                pending = unresolved
                continue
            pending = retry_next
            if pending:
                single = True
                counter_inc("runtime.retry.attempts", amount=len(pending))
                time.sleep(policy.backoff_for(retry_round))
                retry_round += 1
    finally:
        if owned and pool is not None:
            pool.shutdown()
        if arena is not None:
            shm_mod.dispose(arena)
    return results

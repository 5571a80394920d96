"""Runtime layer: render memoization and batch/parallel execution.

``repro.runtime`` makes the simulator serve batch workloads at hardware
speed without changing a single output byte:

- :mod:`repro.runtime.cache` memoizes band-split RIRs (keyed by room,
  source pose, array geometry, band set and :class:`RirConfig`) and
  noise-free scene renders, so repeated renders of the same placement
  skip the image-source model and the large convolution FFTs;
- :mod:`repro.runtime.batch` fans :class:`RenderTask` lists out over a
  process pool with deterministic per-task random-stream state, falling
  back to serial (and in-process cache reuse) at ``workers=1``; large
  waveforms travel through shared memory, not pickles (``REPRO_SHM``);
- :mod:`repro.runtime.plan` memoizes per-``(geometry, fs)`` decision
  plans: pair lists, lag windows, FFT sizing and steering lags;
- :mod:`repro.runtime.fanout` maps the batch decision entry points'
  per-capture work over a thread pool made for that one call.

Invariant: serial, parallel, cold-cache and warm-cache paths all produce
byte-identical captures.  See DESIGN.md ("Runtime layer").
"""

from .batch import (
    InterferenceSpec,
    RenderDispatchError,
    RenderTask,
    RetryPolicy,
    active_pool,
    default_workers,
    execute_render_task,
    generator_state,
    persistent_pool,
    render_captures,
    restore_generator,
    retry_policy,
    task_key,
    worker_pool,
)
from .cache import (
    CacheStats,
    cache_counts,
    cache_enabled,
    cache_sizes,
    cache_stats,
    cached_band_rirs,
    clear_caches,
    deterministic_rir,
    rir_key,
    set_cache_enabled,
)
from .fanout import fan_out, usable_cpus
from .plan import ArrayPlan, clear_plans, plan_for, plan_stats
from .shm import ShmArrayRef, set_shm_enabled, shm_enabled

__all__ = [
    "ArrayPlan",
    "CacheStats",
    "InterferenceSpec",
    "ShmArrayRef",
    "clear_plans",
    "plan_for",
    "plan_stats",
    "set_shm_enabled",
    "shm_enabled",
    "RenderDispatchError",
    "RenderTask",
    "RetryPolicy",
    "active_pool",
    "cache_counts",
    "cache_enabled",
    "cache_sizes",
    "cache_stats",
    "cached_band_rirs",
    "clear_caches",
    "default_workers",
    "deterministic_rir",
    "execute_render_task",
    "fan_out",
    "generator_state",
    "persistent_pool",
    "render_captures",
    "restore_generator",
    "retry_policy",
    "rir_key",
    "set_cache_enabled",
    "task_key",
    "usable_cpus",
    "worker_pool",
]

"""Runtime layer: render memoization and batch/parallel execution.

``repro.runtime`` makes the simulator serve batch workloads at hardware
speed without changing a single output byte:

- :mod:`repro.runtime.cache` memoizes band-split RIRs (keyed by room,
  source pose, array geometry, band set and :class:`RirConfig`) and
  noise-free scene renders, so repeated renders of the same placement
  skip the image-source model and the large convolution FFTs;
- :mod:`repro.runtime.batch` renders :class:`RenderTask` lists, each
  task carrying its own frozen random-stream state, over threads
  (inline on the calling thread at ``workers=1``);
- :mod:`repro.runtime.fanout` maps the batch renderer's and the batch
  decision entry points' per-capture work over a thread pool made for
  that one call.

Invariant: serial, parallel, cold-cache and warm-cache paths all produce
byte-identical captures.  See DESIGN.md ("Runtime layer").
"""

from .batch import (
    InterferenceSpec,
    RenderTask,
    execute_render_task,
    generator_state,
    render_captures,
    restore_generator,
)
from .cache import (
    CacheStats,
    cache_counts,
    cache_enabled,
    cache_stats,
    cached_band_rirs,
    clear_caches,
    deterministic_rir,
    rir_key,
    set_cache_enabled,
)
from .fanout import fan_out, usable_cpus

__all__ = [
    "CacheStats",
    "InterferenceSpec",
    "RenderTask",
    "cache_counts",
    "cache_enabled",
    "cache_stats",
    "cached_band_rirs",
    "clear_caches",
    "deterministic_rir",
    "execute_render_task",
    "fan_out",
    "generator_state",
    "render_captures",
    "restore_generator",
    "rir_key",
    "set_cache_enabled",
    "usable_cpus",
]

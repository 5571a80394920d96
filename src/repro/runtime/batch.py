"""Batch rendering of capture scenes over threads.

A :class:`RenderTask` freezes everything one capture render needs —
scene, emission, loudness, noise layers and the *exact* random-generator
state the serial path would have used — so the same task list produces
byte-identical captures whether executed in order on the calling thread
(``workers=1``) or fanned out over threads
(:func:`repro.runtime.fanout.fan_out`).  Tasks are immutable and
re-executable: the generator state is stored (not a live generator), so
re-running a task list is how warm-cache benchmarks measure memoization.

Every thread renders through this process's lock-guarded render caches
(:mod:`repro.runtime.cache`).  The image-source model and the large
convolution FFTs spend most of their time in numpy/scipy kernels that
release the GIL, so the tasks of one batch render side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from ..obs.metrics import counter_inc
from ..obs.profile import profiled
from ..obs.spans import span
from .fanout import fan_out


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
    """
    with span("runtime.render_task"):
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
        return capture


def render_captures(tasks: list[RenderTask], workers: int | None = None) -> list[Capture]:
    """Render a batch of tasks over threads, returning them in task order.

    Results are byte-identical for any ``workers`` value: each task
    carries its own random-stream state, and render memoization never
    consumes randomness (see :mod:`repro.runtime.cache`).

    ``workers`` caps the render threads: ``None`` runs one per usable
    CPU (:func:`repro.runtime.fanout.fan_out`), ``1`` renders inline on
    the calling thread.  A task that raises re-raises here, the first
    failure in task order, once every task has finished.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    with profiled("runtime.render_captures"), span("runtime.render_captures", n=len(tasks)):
        counter_inc("runtime.captures_rendered", amount=len(tasks))
        return fan_out(execute_render_task, tasks, workers)

"""Equivalence tests for the runtime layer (cache + batch renderer).

The runtime layer's single invariant: serial, parallel, cold-cache and
warm-cache paths all produce byte-identical captures — and therefore
identical pipeline ``Decision``s.
"""

import sys

import numpy as np
import pytest

from repro.datasets import CollectionSpec
from repro.datasets.collection import collect, render_tasks
from repro.obs import REGISTRY, clear_spans, observed, span_records
from repro.runtime import (
    RenderTask,
    cache_stats,
    clear_caches,
    execute_render_task,
    fanout,
    render_captures,
    set_cache_enabled,
)

SPEC = CollectionSpec(
    room="lab",
    device="D2",
    wake_word="computer",
    locations=((1.0, 0.0),),
    angles=(0.0, 180.0),
    repetitions=1,
)

NOISE_SPEC = CollectionSpec(
    room="lab",
    device="D2",
    wake_word="computer",
    locations=((1.0, 0.0),),
    angles=(0.0,),
    repetitions=1,
    noise=(("white", 45.0),),
)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _tasks(spec=SPEC):
    return [task for _, task in render_tasks(spec)]


class TestRenderTask:
    def test_reexecution_is_identical(self):
        """Tasks store generator *state*, so they can be re-run."""
        task = _tasks()[0]
        first = execute_render_task(task)
        second = execute_render_task(task)
        assert np.array_equal(first.channels, second.channels)

    def test_matches_inline_collect(self):
        inline = [capture for _, capture in collect(SPEC)]
        from_tasks = [execute_render_task(t) for t in _tasks()]
        for a, b in zip(inline, from_tasks):
            assert np.array_equal(a.channels, b.channels)


class TestSerialParallelEquivalence:
    def test_parallel_bytes_identical(self, two_workers):
        tasks = _tasks()
        serial = render_captures(tasks, workers=1)
        parallel = render_captures(tasks, workers=2)
        assert len(serial) == len(parallel) == len(tasks)
        for a, b in zip(serial, parallel):
            assert a.sample_rate == b.sample_rate
            assert np.array_equal(a.channels, b.channels)

    def test_parallel_with_interference_identical(self, two_workers):
        tasks = _tasks(NOISE_SPEC)
        serial = render_captures(tasks, workers=1)
        parallel = render_captures(tasks, workers=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.channels, b.channels)

    def test_collect_workers_identical(self, two_workers):
        serial = [c.channels for _, c in collect(SPEC, workers=1)]
        parallel = [c.channels for _, c in collect(SPEC, workers=2)]
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_empty_and_invalid(self):
        assert render_captures([]) == []
        with pytest.raises(ValueError, match="workers"):
            render_captures(_tasks(), workers=0)


class TestColdWarmEquivalence:
    def test_warm_cache_bytes_identical(self):
        tasks = _tasks()
        cold = render_captures(tasks, workers=1)
        stats = cache_stats()
        assert stats["dry"].misses == len(tasks)
        warm = render_captures(tasks, workers=1)
        stats = cache_stats()
        assert stats["dry"].hits == len(tasks)
        for a, b in zip(cold, warm):
            assert np.array_equal(a.channels, b.channels)

    def test_rir_cache_shared_across_emissions(self, lab_scene, speaker):
        """Same scene, different utterances: RIR hits even as dry misses."""
        from tests.conftest import COLLECT_RIR

        tasks = []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            emission = speaker.emit("computer", 48_000, rng)
            tasks.append(RenderTask.from_rng(lab_scene, emission, rng, rir_config=COLLECT_RIR))
        render_captures(tasks, workers=1)
        stats = cache_stats()
        assert stats["rir"].hits > 0
        assert stats["dry"].hits == 0 and stats["dry"].misses == 2

    def test_disabled_cache_identical(self):
        tasks = _tasks()
        cached = render_captures(tasks, workers=1)
        clear_caches()
        set_cache_enabled(False)
        try:
            uncached = render_captures(tasks, workers=1)
            stats = cache_stats()
            assert stats["rir"].hits == stats["rir"].misses == 0
        finally:
            set_cache_enabled(True)
        for a, b in zip(cached, uncached):
            assert np.array_equal(a.channels, b.channels)


class TestDecisionEquivalence:
    """Identical Decisions across render paths (satellite 4)."""

    @pytest.fixture()
    def pipeline(self, d2_subset, trained_detector):
        from repro.core import HeadTalkPipeline
        from repro.core.liveness import LivenessDetector

        liveness = LivenessDetector(epochs=1, random_state=0)
        rng = np.random.default_rng(0)
        waveforms = [rng.standard_normal(24_000) for _ in range(4)]
        labels = np.array([0, 1, 0, 1])
        liveness.fit(waveforms, labels, 48_000)
        return HeadTalkPipeline(array=d2_subset, liveness=liveness, orientation=trained_detector)

    def test_all_paths_same_decisions(self, pipeline, two_workers):
        tasks = _tasks()
        serial_cold = render_captures(tasks, workers=1)
        serial_warm = render_captures(tasks, workers=1)
        parallel = render_captures(tasks, workers=2)

        reference = [pipeline.evaluate(c) for c in serial_cold]
        for captures in (serial_warm, parallel):
            for ref, capture in zip(reference, captures):
                assert pipeline.evaluate(capture).fingerprint() == ref.fingerprint()

        batch = pipeline.evaluate_batch(serial_cold)
        for ref, got in zip(reference, batch):
            assert got.fingerprint() == ref.fingerprint()


class TestRenderOnThreads:
    """Threaded renders stay byte-identical to serial under contention.

    More threads than cores, switching every microsecond, from cold
    caches: every scene renders twice, so threads race to miss and fill
    the same RIR and dry-render entries.
    """

    @pytest.mark.parametrize("obs", [False, True], ids=["obs-off", "obs-on"])
    def test_many_threads_at_a_short_switch_interval(self, obs, monkeypatch):
        tasks = _tasks() + _tasks(NOISE_SPEC)
        tasks = tasks + tasks[::-1]
        serial = render_captures(tasks, workers=1)
        clear_caches()
        monkeypatch.setattr(fanout, "usable_cpus", lambda: 8)
        with observed(obs):
            REGISTRY.reset()
            clear_spans()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = render_captures(tasks)
            finally:
                sys.setswitchinterval(interval)
            snapshot = REGISTRY.snapshot()
            records = span_records("runtime.render_task")
            clear_spans()
        assert [c.channels.tobytes() for c in threaded] == [c.channels.tobytes() for c in serial]
        if obs:
            assert len(records) == len(tasks)
            assert {r.parent for r in records} == {"runtime.render_captures"}
        else:
            # The disabled path records nothing, on any thread.
            assert snapshot == {}
            assert records == []

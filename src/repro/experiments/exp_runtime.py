"""E18 — Section IV-B15: run-time performance.

Wall-clock of the two inference stages on this machine.  The paper
measures 42 ms (liveness) and 136 ms (orientation) on an i7-2600 PC and
527 ms (orientation) on the ReSpeaker's Cortex-A7 — absolute numbers are
hardware-bound; the reproducible claims are (a) orientation costs a few
times more than liveness and (b) both fit comfortably inside a VA's
wake-word response window.
"""

from __future__ import annotations

import numpy as np

from ..core.config import DEFAULT_DEFINITION
from ..datasets.catalog import BENCH, Scale, TINY
from ..datasets.collection import CollectionSpec, collect
from ..core.liveness import LIVE_HUMAN, MECHANICAL, LivenessDetector
from ..core.pipeline import HeadTalkPipeline
from ..core.preprocessing import preprocess
from ..arrays.devices import default_channel_subset, get_device
from ..obs.monitor import slices_from_meta
from ..obs.profile import profiled
from ..reporting import ExperimentResult
from .common import default_dataset, fit_detector


def run(
    scale: Scale = BENCH, seed: int = 0, n_trials: int = 10, warmup: int = 1
) -> ExperimentResult:
    """Millisecond latency of preprocessing, liveness and orientation.

    ``warmup`` full pipeline passes run before the measured region: the
    first evaluate of a process pays one-time costs (scipy FFT plan and
    filter-design caches, BLAS thread spin-up, liveness-net buffer
    allocation) that are not per-utterance latency and must not land in
    the recorded rows — or in ``BENCH_runtime.json``, where they would
    masquerade as regressions.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    train = default_dataset(TINY, seed)
    detector = fit_detector(train, DEFAULT_DEFINITION)

    device = get_device("D2")
    array = device.subset(default_channel_subset(device))
    liveness = LivenessDetector(epochs=3, random_state=seed)

    # A minimal liveness fit so inference timing runs on a trained net.
    spec = CollectionSpec(room="lab", device="D2", locations=((1.0, 0.0),), angles=(0.0, 180.0), repetitions=2)
    waveforms, labels = [], []
    for meta, capture in collect(spec, seed):
        audio = preprocess(capture)
        waveforms.append(audio.reference)
        labels.append(LIVE_HUMAN)
    for meta, capture in collect(CollectionSpec(**{**spec.__dict__, "source": "replay"}), seed):
        audio = preprocess(capture)
        waveforms.append(audio.reference)
        labels.append(MECHANICAL)
    liveness.fit(waveforms, np.asarray(labels), array.sample_rate)

    pipeline = HeadTalkPipeline(array=array, liveness=liveness, orientation=detector)
    capture_meta, capture = next(
        iter(collect(CollectionSpec(**{**spec.__dict__, "source": "human"}), seed + 1))
    )
    # The measured capture is a facing (0°) live human, so the decisions
    # carry ground truth + scene slices into the quality monitor when
    # observability is on (the BENCH report embeds the snapshot).
    truth = True
    capture_slices = slices_from_meta(capture_meta)

    for _ in range(max(0, warmup)):
        pipeline.evaluate(capture)
        pipeline.evaluate(capture, check_liveness=False)
        pipeline.evaluate_batch([capture])

    # Stage latencies come straight off the Decision, whose total_ms is
    # the paper's end-to-end definition (preprocess + both inferences).
    preprocess_ms, liveness_ms, orientation_ms = [], [], []
    with profiled("e18.stages"):
        for _ in range(n_trials):
            with_liveness = pipeline.evaluate(capture, truth=truth, slices=capture_slices)
            preprocess_ms.append(with_liveness.preprocess_ms)
            liveness_ms.append(with_liveness.liveness_ms)
            # Time the orientation stage unconditionally (a rejected
            # liveness check would otherwise short-circuit it).
            orientation_only = pipeline.evaluate(capture, check_liveness=False)
            orientation_ms.append(orientation_only.orientation_ms)

    batch = pipeline.evaluate_batch(
        [capture] * n_trials,
        truths=[truth] * n_trials,
        slices=[capture_slices] * n_trials,
    )
    batch_matches_serial = all(
        decision.fingerprint() == with_liveness.fingerprint() for decision in batch
    )
    rows = [
        {"stage": "preprocess", "mean_ms": float(np.mean(preprocess_ms)), "p95_ms": float(np.percentile(preprocess_ms, 95))},
        {"stage": "liveness", "mean_ms": float(np.mean(liveness_ms)), "p95_ms": float(np.percentile(liveness_ms, 95))},
        {"stage": "orientation", "mean_ms": float(np.mean(orientation_ms)), "p95_ms": float(np.percentile(orientation_ms, 95))},
        {"stage": "batch-per-capture", "mean_ms": batch.per_capture_ms, "p95_ms": batch.per_capture_ms},
    ]
    total = sum(r["mean_ms"] for r in rows[:3])
    return ExperimentResult(
        experiment_id="E18",
        title="Run-time performance (Section IV-B15)",
        headers=["stage", "mean_ms", "p95_ms"],
        rows=rows,
        paper="PC: 42 ms liveness, 136 ms orientation; ReSpeaker: 527 ms orientation",
        summary={
            "total_ms": total,
            "batch_per_capture_ms": batch.per_capture_ms,
            "batch_matches_serial": batch_matches_serial,
        },
    )

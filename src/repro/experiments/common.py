"""Shared evaluation plumbing for the experiment modules.

The paper's standard protocol (Section IV-A): label collected angles
under a facing definition, train on one session, test on the other,
report the average of both directions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.config import DEFAULT_DEFINITION, FACING, FacingDefinition
from ..core.orientation import OrientationDetector
from ..datasets.store import OrientationDataset
from ..ml.metrics import BinaryReport, binary_report
from ..reporting import ExperimentResult


def labeled_arrays(
    dataset: OrientationDataset,
    definition: FacingDefinition = DEFAULT_DEFINITION,
) -> tuple[np.ndarray, np.ndarray]:
    """(X, labels) under a facing definition, excluded angles dropped."""
    raw = [definition.training_label(a) for a in dataset.angles]
    keep = np.asarray([label is not None for label in raw])
    if not keep.any():
        raise ValueError("definition excludes every angle in the dataset")
    labels = np.asarray([label for label in raw if label is not None])
    return dataset.X[keep], labels


def fit_detector(
    train: OrientationDataset,
    definition: FacingDefinition = DEFAULT_DEFINITION,
    backend: str = "svm",
    random_state: int = 0,
) -> OrientationDetector:
    """Train an orientation detector on a dataset under a definition."""
    X, y = labeled_arrays(train, definition)
    return OrientationDetector(backend=backend, random_state=random_state).fit(X, y)


def evaluate_detector(
    detector: OrientationDetector,
    test: OrientationDataset,
    definition: FacingDefinition = DEFAULT_DEFINITION,
) -> BinaryReport:
    """Binary report of a detector on a dataset's definition-labelled angles."""
    X, y = labeled_arrays(test, definition)
    predictions = detector.predict(X)
    return binary_report(y, predictions, positive_label=FACING)


@dataclass(frozen=True)
class CrossSessionOutcome:
    """Average of both cross-session directions plus the per-direction reports."""

    mean_accuracy: float
    mean_f1: float
    mean_far: float
    mean_frr: float
    reports: tuple[BinaryReport, ...]


def cross_session_evaluation(
    dataset: OrientationDataset,
    definition: FacingDefinition = DEFAULT_DEFINITION,
    backend: str = "svm",
    train_definition: FacingDefinition | None = None,
) -> CrossSessionOutcome:
    """Train on each session, test on the other, average the metrics.

    ``train_definition`` lets Table III train under one definition while
    always *scoring* under another (the paper scores every definition on
    its own trained arcs, so the default scores with ``definition``).
    """
    sessions = np.unique(dataset.field("session"))
    if sessions.size < 2:
        raise ValueError("cross-session evaluation needs >= 2 sessions")
    train_definition = train_definition or definition
    reports: list[BinaryReport] = []
    for train_session in sessions:
        train, test = dataset.session_split(int(train_session))
        detector = fit_detector(train, train_definition, backend)
        reports.append(evaluate_detector(detector, test, definition))
    return CrossSessionOutcome(
        mean_accuracy=float(np.mean([r.accuracy for r in reports])),
        mean_f1=float(np.mean([r.f1 for r in reports])),
        mean_far=float(np.mean([r.far for r in reports])),
        mean_frr=float(np.mean([r.frr for r in reports])),
        reports=tuple(reports),
    )


def default_dataset(scale=None, seed: int = 0) -> OrientationDataset:
    """The paper's default slice: lab room, device D2, "Computer".

    Most sensitivity experiments train on this and probe one factor.
    """
    from ..datasets.catalog import BENCH, dataset1

    return dataset1(
        scale=scale or BENCH,
        rooms=("lab",),
        devices=("D2",),
        wake_words=("computer",),
        seed=seed,
    )


def factor_f1_cells(
    scale=None,
    seed: int = 0,
    rooms: tuple[str, ...] = ("lab", "home"),
    devices: tuple[str, ...] = ("D1", "D2", "D3"),
    wake_words: tuple[str, ...] = ("hey assistant", "computer", "amazon"),
) -> list[dict]:
    """Cross-session F1 for every (room, device, word, direction) cell.

    Figures 12-14 are box plots over these cells grouped by one factor.
    """
    from ..datasets.catalog import BENCH, dataset1

    scale = scale or BENCH
    cells: list[dict] = []
    for room in rooms:
        for device in devices:
            for word in wake_words:
                dataset = dataset1(
                    scale=scale,
                    rooms=(room,),
                    devices=(device,),
                    wake_words=(word,),
                    seed=seed,
                )
                outcome = cross_session_evaluation(dataset, DEFAULT_DEFINITION)
                for direction, report in enumerate(outcome.reports):
                    cells.append(
                        {
                            "room": room,
                            "device": device,
                            "wake_word": word,
                            "direction": direction,
                            "f1": report.f1,
                            "accuracy": report.accuracy,
                        }
                    )
    return cells


def write_run_manifest(
    result: ExperimentResult,
    *,
    seed: int | None = None,
    config: dict | None = None,
    stages: dict | None = None,
    manifest_dir: Path | str | None = None,
    run_id: str | None = None,
) -> Path:
    """Write the schema-versioned run manifest for an experiment result.

    Builds a :class:`repro.obs.runlog.RunManifest` named after
    ``result.experiment_id`` (environment fingerprint and git SHA are
    auto-detected), snapshots the live metrics registry, any captured
    profiles and the decision-quality monitor into it, and writes
    ``RUN_<id>.json`` under ``manifest_dir``
    (default ``benchmarks/manifests/``).  Returns the written path.
    """
    from ..obs.metrics import REGISTRY
    from ..obs.monitor import monitor_snapshot
    from ..obs.profile import profile_snapshot
    from ..obs.runlog import RunManifest

    manifest = RunManifest(
        name=result.experiment_id,
        seed=seed,
        config=config or {},
        run_id=run_id,
    )
    manifest.stages.update(stages or {})
    manifest.metrics = REGISTRY.snapshot()
    manifest.profile = profile_snapshot()
    manifest.quality = monitor_snapshot()
    manifest.summary = {
        "title": result.title,
        "paper": result.paper,
        "summary": result.summary,
        "rows": result.rows,
        "headers": result.headers,
    }
    return manifest.write(directory=manifest_dir)


def run_with_manifest(
    experiment_id: str,
    runner=None,
    manifest_dir: Path | str | None = None,
    **kwargs,
) -> tuple[ExperimentResult, Path]:
    """Run one experiment and persist its run manifest.

    ``runner`` defaults to the ``ALL_EXPERIMENTS`` entry for
    ``experiment_id``; ``kwargs`` (``scale``, ``seed``, ...) are passed
    through to it and recorded as the manifest config.  Returns the
    result together with the manifest path.
    """
    if runner is None:
        from . import ALL_EXPERIMENTS

        if experiment_id not in ALL_EXPERIMENTS:
            raise ValueError(f"unknown experiment id {experiment_id!r}")
        runner = ALL_EXPERIMENTS[experiment_id]
    start = time.perf_counter()
    result = runner(**kwargs)
    total_ms = (time.perf_counter() - start) * 1000.0
    path = write_run_manifest(
        result,
        seed=kwargs.get("seed"),
        config={k: v for k, v in kwargs.items() if k != "seed"},
        stages={"run": total_ms},
        manifest_dir=manifest_dir,
    )
    return result, path

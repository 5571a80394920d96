"""Shared fixtures: small, session-scoped simulated datasets.

Rendering audio is the expensive part of this codebase, so everything a
test might reuse (captures, tiny orientation datasets, a trained
detector) is built once per session at TINY scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics import (
    HumanSpeaker,
    LAB_PLACEMENTS,
    LoudspeakerSource,
    RirConfig,
    Scene,
    SpeakerPose,
    lab_room,
    render_capture,
)
from repro.arrays import get_device
from repro.core import OrientationDetector, preprocess
from repro.core.features import OrientationFeatureExtractor
from repro.datasets import CollectionSpec, build_orientation_dataset, stable_seed

# The same RIR settings the dataset collection path uses, so fixture
# captures and dataset-trained models share one acoustic distribution.
COLLECT_RIR = RirConfig(max_order=2, tail_seed=stable_seed("tail", "lab", "A"))


@pytest.fixture(scope="session")
def d2_subset():
    """The default 4-channel slice of D2."""
    device = get_device("D2")
    return device.subset([0, 1, 3, 4])


@pytest.fixture(scope="session")
def lab_scene(d2_subset):
    """A 1 m, head-on scene in the lab (matches the tiny dataset grid)."""
    return Scene(
        room=lab_room(),
        device=d2_subset,
        placement=LAB_PLACEMENTS["A"],
        pose=SpeakerPose(distance_m=1.0, head_angle_deg=0.0),
    )


@pytest.fixture(scope="session")
def speaker():
    """The same simulated user the tiny dataset is collected from."""
    from repro.datasets import speaker_profile

    return HumanSpeaker(profile=speaker_profile(0), name="test-user")


@pytest.fixture(scope="session")
def forward_capture(lab_scene, speaker):
    """One forward-facing capture (deterministic)."""
    rng = np.random.default_rng(25)
    emission = speaker.emit("computer", lab_scene.device.sample_rate, rng)
    return render_capture(lab_scene, emission, rng=rng, rir_config=COLLECT_RIR)


@pytest.fixture(scope="session")
def backward_capture(lab_scene, speaker):
    """One backward-facing capture (deterministic)."""
    rng = np.random.default_rng(22)
    scene = lab_scene.with_pose(SpeakerPose(distance_m=1.0, head_angle_deg=180.0))
    emission = speaker.emit("computer", scene.device.sample_rate, rng)
    return render_capture(scene, emission, rng=rng, rir_config=COLLECT_RIR)


@pytest.fixture(scope="session")
def replay_capture(lab_scene, speaker):
    """One loudspeaker-replay capture (deterministic)."""
    rng = np.random.default_rng(23)
    source = LoudspeakerSource(voice=speaker)
    emission = source.emit("computer", lab_scene.device.sample_rate, rng)
    return render_capture(lab_scene, emission, rng=rng, rir_config=COLLECT_RIR)


@pytest.fixture(scope="session")
def side_capture(lab_scene, speaker):
    """One 90-degree (side-facing) capture (deterministic)."""
    rng = np.random.default_rng(24)
    scene = lab_scene.with_pose(SpeakerPose(distance_m=1.0, head_angle_deg=90.0))
    emission = speaker.emit("computer", scene.device.sample_rate, rng)
    return render_capture(scene, emission, rng=rng, rir_config=COLLECT_RIR)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A two-session TINY orientation dataset (28 utterances)."""
    specs = tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=((1.0, 0.0),),
            repetitions=1,
            session=session,
        )
        for session in (0, 1)
    )
    return build_orientation_dataset(specs, seed=0)


@pytest.fixture(scope="session")
def trained_detector(lab_scene, speaker, d2_subset) -> OrientationDetector:
    """An SVM detector trained on fixture-style captures at 1 m.

    Trained on the same nominal scene the capture fixtures use, so
    pipeline tests see in-distribution inputs.
    """
    from repro.core import FACING, NON_FACING

    extractor = OrientationFeatureExtractor(d2_subset)
    rows, labels = [], []
    rng = np.random.default_rng(31)
    training_angles = {
        FACING: (0.0, 15.0, -15.0, 30.0, -30.0),
        NON_FACING: (90.0, -90.0, 135.0, -135.0, 180.0),
    }
    for label, angles in training_angles.items():
        for angle in angles:
            for _ in range(2):
                scene = lab_scene.with_pose(
                    SpeakerPose(distance_m=1.0, head_angle_deg=angle)
                )
                emission = speaker.emit("computer", 48_000, rng)
                capture = render_capture(scene, emission, rng=rng, rir_config=COLLECT_RIR)
                rows.append(extractor.extract(preprocess(capture)))
                labels.append(label)
    return OrientationDetector(backend="svm").fit(np.stack(rows), np.asarray(labels))


@pytest.fixture(scope="session")
def extractor(d2_subset):
    """The orientation feature extractor for the D2 subset."""
    return OrientationFeatureExtractor(d2_subset)


@pytest.fixture(scope="session")
def trained_pipeline(d2_subset, trained_detector, lab_scene, speaker):
    """A fully trained gate (300-epoch liveness + fixture-trained SVM).

    Session-scoped because the liveness fit is the most expensive model
    in the suite; the pipeline is stateless across evaluations, so
    sharing one instance between test modules is safe.
    """
    from repro.core import (
        HeadTalkConfig,
        HeadTalkPipeline,
        LIVE_HUMAN,
        LivenessDetector,
        MECHANICAL,
    )

    fs = 48_000
    rng = np.random.default_rng(0)
    replay_source = LoudspeakerSource(voice=speaker)
    waveforms, labels = [], []
    for angle in (0.0, 90.0, 180.0):
        scene = lab_scene.with_pose(SpeakerPose(distance_m=1.0, head_angle_deg=angle))
        for _ in range(6):
            for source, label in ((speaker, LIVE_HUMAN), (replay_source, MECHANICAL)):
                emission = source.emit("computer", fs, rng)
                capture = render_capture(scene, emission, rng=rng, rir_config=COLLECT_RIR)
                waveforms.append(preprocess(capture).reference)
                labels.append(label)
    liveness = LivenessDetector(epochs=300, random_state=0)
    liveness.network.batch_size = 8
    liveness.fit(waveforms, np.asarray(labels), fs)
    return HeadTalkPipeline(
        array=d2_subset,
        liveness=liveness,
        orientation=trained_detector,
        config=HeadTalkConfig(),
    )


@pytest.fixture
def two_workers(monkeypatch):
    """Batch fan-out over two pool threads on any runner, one-CPU included.

    :func:`repro.runtime.fanout.fan_out` sizes its pool from
    ``usable_cpus()``; pinning that to 2 makes every batch of two or
    more items run on worker threads.
    """
    from repro.runtime import fanout

    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)

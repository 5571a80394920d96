"""Deterministic attack-capture rendering (the adversarial corpus).

One entry point, :func:`attack_render_tasks`, turns an
:class:`~repro.attacks.scenario.AttackScenario` into frozen
:class:`~repro.runtime.batch.RenderTask`\\ s aimed at a device — the
same shape the dataset layer produces, so the runtime batch renderer
(inline or over threads) executes them byte-identically.
E30, the attacks benchmark, the byte-determinism tests and the traffic
capture bank all build their adversarial captures here; item 5's model
lifecycle gets its adversarial replay corpus from the same place.

Determinism: every per-utterance stream derives from
``stable_seed(base_seed, "attack", scenario.name, index)`` and the
attack channel itself is content-keyed (:mod:`repro.attacks.models`),
so the rendered bytes are a pure function of (seed, scenario, victim
voice) — no ambient state, no execution-order dependence.
"""

from __future__ import annotations

import numpy as np

from ..acoustics.image_source import RirConfig
from ..acoustics.noise import NoiseSource
from ..acoustics.room import get_room
from ..acoustics.scene import HOME_PLACEMENT, LAB_PLACEMENTS, Scene, SpeakerPose
from ..acoustics.sources import SONY_SRS_X5, HumanSpeaker, LoudspeakerModel
from ..arrays.devices import default_channel_subset, get_device
from ..datasets.collection import stable_seed
from .scenario import AttackScenario

__all__ = ["ATTACK_LOCATIONS", "attack_render_tasks", "render_attack_captures"]

ATTACK_LOCATIONS = ((1.0, 0.0), (1.5, 10.0), (2.0, -10.0))
"""(distance m, radial deg) rotation — attackers set up close and aim
straight at the device, like the replay archetypes."""

_RIG_HEIGHT = 1.0
"""Loudspeakers on stands: diaphragm height ~1 m."""


def attack_render_tasks(
    scenario: AttackScenario,
    *,
    room: str = "lab",
    device: str = "D2",
    n_utterances: int = 4,
    base_seed: int = 0,
    wake_word: str = "computer",
    model: LoudspeakerModel = SONY_SRS_X5,
    loudness_db_spl: float = 70.0,
) -> list:
    """Frozen render tasks for one attacker's session against a device.

    Each utterance draws its own victim voice (the attacker replays
    recordings of whoever they captured) and its own pose from the
    :data:`ATTACK_LOCATIONS` rotation, angle 0 — an attacker aims at
    the device.  Returns ``RenderTask`` objects ready for
    :func:`repro.runtime.batch.render_captures`.
    """
    from ..runtime.batch import RenderTask

    if n_utterances < 1:
        raise ValueError("n_utterances must be >= 1")
    dev = get_device(device)
    array = dev.subset(default_channel_subset(dev))
    room_model = get_room(room)
    placement = HOME_PLACEMENT if room == "home" else LAB_PLACEMENTS["A"]
    ambient = NoiseSource(kind="household", level_db_spl=room_model.ambient_noise_db_spl)
    rir_config = RirConfig(max_order=2, tail_seed=stable_seed("tail", room, "A"))
    tasks = []
    for index in range(n_utterances):
        rng = np.random.default_rng(
            stable_seed(base_seed, "attack", scenario.name, scenario.seed, room, index)
        )
        voice = HumanSpeaker.random(rng, name=f"victim{index}")
        source = scenario.source_for(voice, model=model)
        distance, radial = ATTACK_LOCATIONS[index % len(ATTACK_LOCATIONS)]
        pose = SpeakerPose(
            distance_m=distance,
            radial_deg=radial,
            head_angle_deg=0.0,
            mouth_height=_RIG_HEIGHT,
        )
        scene = Scene(room=room_model, device=array, placement=placement, pose=pose)
        emission = source.emit(wake_word, array.sample_rate, rng)
        tasks.append(
            RenderTask.from_rng(
                scene,
                emission,
                rng,
                loudness_db_spl=loudness_db_spl,
                rir_config=rir_config,
                ambient=ambient,
            )
        )
    return tasks


def render_attack_captures(scenario: AttackScenario, **kwargs) -> list:
    """Rendered captures for one attacker session (over threads)."""
    from ..runtime.batch import render_captures

    return render_captures(attack_render_tasks(scenario, **kwargs))

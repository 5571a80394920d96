"""Misactivation-source recipes and the rendered capture bank.

Every traffic event plays one capture from a finite bank of archetypes
keyed ``(room, source, variant)``.  Rendering is the expensive part of
the simulator, so the bank renders each archetype exactly once through
the runtime batch renderer (scene-keyed caches, rendered over threads)
and the million-event stream replays bank entries — the same trade
real load generators make when they loop a corpus of recorded traffic.

The recipes encode the taxonomy's acoustics:

- ``live-facing`` — a person addressing the device head-on (within the
  paper's ±30° facing zone): the only source whose ground truth is
  *accept*.
- ``live-averted`` — live speech aimed well away from the device (the
  paper's non-facing zone); the orientation gate should reject it.
- ``conversation`` — inter-person speech at conversational loudness,
  side-on to the device: live, but not for the assistant.
- ``loudspeaker`` — a TV/radio (the Sony replay channel) facing into
  the room: mechanical, so the liveness gate should reject it even
  when its TDoA pattern looks device-directed.
- ``replay`` — a close-range phone-speaker replay attack aimed at the
  device.
- ``noise`` — wideband household noise (vacuum, clatter) radiated from
  an appliance position; no wake word at all, but loud enough to have
  tripped a far-field wake detector.

Variants within a source rotate speakers, positions and angles so a
city's traffic is not one waveform repeated; all randomness derives
from ``stable_seed`` so the same config yields byte-identical banks
for any worker count (the :func:`repro.runtime.batch.render_captures`
guarantee).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..acoustics.directivity import loudspeaker_directivity
from ..acoustics.image_source import RirConfig
from ..acoustics.noise import NoiseSource
from ..acoustics.propagation import Capture
from ..acoustics.room import get_room
from ..acoustics.scene import HOME_PLACEMENT, LAB_PLACEMENTS, Scene, SpeakerPose
from ..acoustics.sources import SourceRendering
from ..arrays.devices import default_channel_subset, get_device
from ..datasets.collection import CollectionSpec, render_tasks, stable_seed
from .config import (
    ATTACK_FAMILY_BY_SOURCE,
    ATTACK_SOURCES,
    SOURCES,
    TRUTH_BY_SOURCE,
    TrafficConfig,
)

BankKey = tuple  # (room, source, variant)

# Location/angle rotations per source; variant k uses entry k % len.
_LIVE_LOCATIONS = ((1.0, 0.0), (2.0, 15.0), (3.0, -15.0))
_FACING_ANGLES = (0.0, 15.0, -15.0)
_AVERTED_ANGLES = (180.0, 135.0, -135.0)
_CONVERSATION_LOCATIONS = ((2.0, 0.0), (3.0, 15.0), (4.0, -15.0))
_CONVERSATION_ANGLES = (90.0, -90.0, 120.0)
# Radials stay within ±25°: the home room is only 3 m wide, so wider
# off-axis placements at these distances would leave the room.
_TV_LOCATIONS = ((2.5, -20.0), (3.0, 20.0), (3.5, 0.0))
_REPLAY_LOCATIONS = ((1.0, 0.0), (1.5, 10.0), (1.0, -10.0))


def _pick(options, variant: int):
    return options[variant % len(options)]


def _speech_spec(room: str, source: str, variant: int) -> CollectionSpec:
    """The one-capture collection sweep for a speech-borne source."""
    if source == "live-facing":
        return CollectionSpec(
            room=room,
            locations=(_pick(_LIVE_LOCATIONS, variant),),
            angles=(_pick(_FACING_ANGLES, variant),),
            repetitions=1,
            session=variant,
            speaker_seed=600 + variant,
            loudness_db=68.0,
        )
    if source == "live-averted":
        return CollectionSpec(
            room=room,
            locations=(_pick(_LIVE_LOCATIONS, variant),),
            angles=(_pick(_AVERTED_ANGLES, variant),),
            repetitions=1,
            session=variant,
            speaker_seed=200 + variant,
            loudness_db=68.0,
        )
    if source == "conversation":
        return CollectionSpec(
            room=room,
            locations=(_pick(_CONVERSATION_LOCATIONS, variant),),
            angles=(_pick(_CONVERSATION_ANGLES, variant),),
            repetitions=1,
            session=variant,
            speaker_seed=300 + variant,
            loudness_db=62.0,
        )
    if source == "loudspeaker":
        return CollectionSpec(
            room=room,
            locations=(_pick(_TV_LOCATIONS, variant),),
            angles=(0.0,),  # a TV faces into the room, device included
            repetitions=1,
            session=variant,
            source="replay",
            replay_model="sony",
            speaker_seed=400 + variant,
            loudness_db=64.0,
        )
    if source == "replay":
        return CollectionSpec(
            room=room,
            locations=(_pick(_REPLAY_LOCATIONS, variant),),
            angles=(0.0,),  # the attacker aims the phone at the device
            repetitions=1,
            session=variant,
            source="replay",
            replay_model="phone",
            speaker_seed=500 + variant,
            loudness_db=70.0,
        )
    raise ValueError(f"unknown speech source {source!r}")


def _noise_task(room: str, variant: int, seed: int):
    """A wideband household-noise burst from an appliance position.

    Not built through :class:`CollectionSpec` because the emission is
    noise, not a wake word; the scene and random-stream handling mirror
    the collection path so the render stays pool-deterministic.
    """
    from ..runtime.batch import RenderTask

    rng = np.random.default_rng(stable_seed(seed, "traffic-noise", room, variant))
    device = get_device("D2")
    array = device.subset(default_channel_subset(device))
    room_model = get_room(room)
    placement = HOME_PLACEMENT if room == "home" else LAB_PLACEMENTS["A"]
    pose = SpeakerPose(
        distance_m=2.0 + 0.5 * (variant % 3),
        radial_deg=_pick((-25.0, 0.0, 25.0), variant),
        head_angle_deg=0.0,
        mouth_height=0.5,  # an appliance radiates near the floor
    )
    scene = Scene(room=room_model, device=array, placement=placement, pose=pose)
    n = int(1.2 * array.sample_rate)
    waveform = NoiseSource(kind="household", level_db_spl=70.0).render(
        n, array.sample_rate, rng
    )
    rendering = SourceRendering(
        waveform=waveform,
        sample_rate=array.sample_rate,
        directivity=loudspeaker_directivity(),
        is_live_human=False,
        label=f"noise{variant}",
    )
    rir_config = RirConfig(max_order=2, tail_seed=stable_seed("tail", room, "A"))
    ambient = NoiseSource(kind="household", level_db_spl=room_model.ambient_noise_db_spl)
    return RenderTask.from_rng(
        scene,
        rendering,
        rng,
        loudness_db_spl=66.0,
        rir_config=rir_config,
        ambient=ambient,
    )


def capture_fingerprint(capture: Capture) -> str:
    """Stable content hash of one capture's audio (blake2b-128 hex)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(capture.sample_rate).encode())
    digest.update(np.ascontiguousarray(capture.channels).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class BankEntry:
    """One archetype: its key, scenario truth and frozen render task."""

    key: BankKey
    source: str
    truth: bool
    task: object  # RenderTask (typed loosely: runtime imports stay lazy)


class CaptureBank:
    """The rendered capture per ``(room, source, variant)`` archetype."""

    def __init__(self, config: TrafficConfig):
        self.config = config
        self.entries: list[BankEntry] = []
        for room in config.rooms:
            for source in SOURCES:
                for variant in range(config.variants):
                    key = (room, source, variant)
                    if source == "noise":
                        task = _noise_task(room, variant, config.seed)
                    else:
                        spec = _speech_spec(room, source, variant)
                        seed = stable_seed(config.seed, "bank", room, source, variant)
                        (_, task), *rest = list(render_tasks(spec, seed))
                        assert not rest, "bank specs must render exactly one capture"
                    self.entries.append(
                        BankEntry(
                            key=key,
                            source=source,
                            truth=TRUTH_BY_SOURCE[source],
                            task=task,
                        )
                    )
            if config.attack_mix > 0.0:
                self.entries.extend(self._attack_entries(room))
        self.captures: dict[BankKey, Capture] = {}

    def _attack_entries(self, room: str) -> list[BankEntry]:
        """Adversarial archetypes for one room (``attack_mix > 0`` only).

        Tasks come straight from :func:`repro.attacks.attack_render_tasks`
        — variant ``k`` is the scenario's ``k``-th utterance, so bank
        bytes inherit the attack layer's content-keyed determinism and
        match :mod:`repro.experiments.exp_attacks` renders exactly.
        """
        from ..attacks import attack_render_tasks, preset_attack

        config = self.config
        entries = []
        for source in ATTACK_SOURCES:
            scenario = preset_attack(
                ATTACK_FAMILY_BY_SOURCE[source],
                sophistication=config.attack_sophistication,
                seed=config.seed,
            )
            tasks = attack_render_tasks(
                scenario,
                room=room,
                n_utterances=config.variants,
                base_seed=stable_seed(config.seed, "bank-attack", room, source),
            )
            entries.extend(
                BankEntry(
                    key=(room, source, variant),
                    source=source,
                    truth=TRUTH_BY_SOURCE[source],
                    task=task,
                )
                for variant, task in enumerate(tasks)
            )
        return entries

    def render(self, workers: int | None = None) -> dict:
        """Render every archetype over threads (byte-identical for any ``workers``)."""
        from ..runtime.batch import render_captures

        captures = render_captures([e.task for e in self.entries], workers=workers)
        self.captures = {
            entry.key: capture for entry, capture in zip(self.entries, captures)
        }
        return self.captures

    def fingerprints(self) -> dict:
        """Content hash per rendered archetype (determinism checks)."""
        if not self.captures:
            raise RuntimeError("bank is not rendered; call render() first")
        return {key: capture_fingerprint(c) for key, c in sorted(self.captures.items())}

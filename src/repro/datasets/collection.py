"""Simulated data-collection protocol (Section IV, "Data Collection Process").

Reproduces the paper's procedure: for a given room, device, wake word
and session, the speaker stands at grid locations (distance x radial
direction), utters the wake word at each of 14 head angles, twice,
rotating clockwise.  A :class:`CollectionSpec` pins down one such sweep;
:func:`collect` deterministically renders the captures.

Session realism: the paper trains on one session and tests on another,
and finds week/month-old models degrade.  We model what actually changes
between sessions — small device/speaker placement shifts, head-angle
aiming error, room-absorption drift (furniture/clothing), vocal-profile
drift and ambient-level changes — with perturbation scales that grow
with the ``timeframe`` (day < week < month).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from ..acoustics.image_source import RirConfig
from ..acoustics.noise import NoiseSource
from ..acoustics.propagation import Capture
from ..acoustics.room import Material, Room, get_room
from ..acoustics.scene import (
    ANGLE_GRID_DEG,
    FULL_BLOCK,
    HOME_PLACEMENT,
    LAB_PLACEMENTS,
    NO_OCCLUSION,
    PARTIAL_BLOCK,
    DevicePlacement,
    Scene,
    SpeakerPose,
    raised_placement,
)
from ..acoustics.sources import (
    GALAXY_S21,
    HumanSpeaker,
    LoudspeakerSource,
    SONY_SRS_X5,
)
from ..acoustics.speech import VocalProfile, random_profile
from ..arrays.devices import default_channel_subset, get_device
from ..obs.metrics import counter_inc
from ..obs.spans import span
from .store import UtteranceMeta

DEFAULT_LOCATIONS: tuple[tuple[float, float], ...] = (
    (1.0, 0.0),
    (3.0, 0.0),
    (5.0, 0.0),
)
"""The M column of the grid (M1/M3/M5) — most single-factor datasets."""

ALL_LOCATIONS: tuple[tuple[float, float], ...] = tuple(
    (distance, radial) for distance in (1.0, 3.0, 5.0) for radial in (-15.0, 0.0, 15.0)
)
"""All nine grid intersections (Dataset-1/2)."""

_TIMEFRAME_DRIFT = {"day": 1.0, "week": 3.2, "month": 5.5}

_OCCLUSIONS = {
    "open": NO_OCCLUSION,
    "partial": PARTIAL_BLOCK,
    "full": FULL_BLOCK,
    "raised": NO_OCCLUSION,  # raised device: occlusion cleared, height raised
}

_REPLAY_MODELS = {"sony": SONY_SRS_X5, "phone": GALAXY_S21}


@dataclass(frozen=True)
class CollectionSpec:
    """One data-collection sweep (room x device x word x session x ...)."""

    room: str = "lab"
    device: str = "D2"
    wake_word: str = "computer"
    locations: tuple[tuple[float, float], ...] = DEFAULT_LOCATIONS
    angles: tuple[float, ...] = ANGLE_GRID_DEG
    repetitions: int = 2
    session: int = 0
    loudness_db: float = 70.0
    source: str = "human"
    replay_model: str = "sony"
    speaker_seed: int = 0
    posture: str = "standing"
    placement: str = "A"
    occlusion: str = "open"
    timeframe: str = "day"
    noise: tuple[tuple[str, float], ...] = ()
    channels: tuple[int, ...] | None = None
    max_order: int = 2
    aim_error_scale: float = 1.0
    """How precisely the speaker hits the nominal head angle.  1.0 is the
    paper's marked-floor protocol; larger values model uninstructed users
    (each also gets a systematic per-session aiming bias)."""

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.source not in ("human", "replay"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.replay_model not in _REPLAY_MODELS:
            raise ValueError(f"unknown replay model {self.replay_model!r}")
        if self.posture not in ("standing", "sitting"):
            raise ValueError(f"unknown posture {self.posture!r}")
        if self.occlusion not in _OCCLUSIONS:
            raise ValueError(f"unknown occlusion {self.occlusion!r}")
        if self.timeframe not in _TIMEFRAME_DRIFT:
            raise ValueError(f"unknown timeframe {self.timeframe!r}")
        if self.aim_error_scale <= 0:
            raise ValueError("aim_error_scale must be positive")

    @property
    def n_utterances(self) -> int:
        """Captures this sweep produces."""
        return len(self.locations) * len(self.angles) * self.repetitions


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from arbitrary printable parts."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def speaker_profile(speaker_seed: int) -> VocalProfile:
    """The fixed vocal profile of simulated user ``speaker_seed``."""
    rng = np.random.default_rng(stable_seed("speaker", speaker_seed))
    return random_profile(rng)


def _perturb_material(material: Material, drift: float, rng: np.random.Generator) -> Material:
    factors = 1.0 + 0.05 * drift * rng.standard_normal(len(material.absorption))
    absorption = tuple(
        float(np.clip(a * f, 0.02, 0.95))
        for a, f in zip(material.absorption, factors)
    )
    return replace(material, absorption=absorption)


def _perturb_placement(
    placement: DevicePlacement, drift: float, rng: np.random.Generator
) -> DevicePlacement:
    dx, dy = 0.012 * drift * rng.standard_normal(2)
    dz = 0.004 * drift * rng.standard_normal()
    # A re-placed device rarely comes back at the same rotation; within a
    # day it is barely touched, after a month it has been moved around.
    rotation = 3.5 * drift * rng.standard_normal()
    return replace(
        placement,
        position_xy=(placement.position_xy[0] + dx, placement.position_xy[1] + dy),
        height=max(0.2, placement.height + dz),
        rotation_deg=placement.rotation_deg + rotation,
    )


def _drift_directivity(directivity, drift: float, rng: np.random.Generator):
    """Person-level directivity drift (clothing, hair, vocal effort).

    Orientation features key on the head's radiation pattern; over weeks
    that pattern shifts (a hooded sweater absorbs rear HF, a haircut
    changes diffraction), which is what ages an enrolled model.
    """
    from ..acoustics.directivity import DirectivityModel, human_head_directivity

    base = directivity or human_head_directivity()
    rear = float(np.clip(base.rear_floor * np.exp(0.12 * drift * rng.standard_normal()), 0.02, 0.5))
    above = float(
        np.clip(base.directional_above_hz * (1.0 + 0.08 * drift * rng.standard_normal()), 2000.0, 12_000.0)
    )
    below = float(np.clip(base.omni_below_hz * (1.0 + 0.05 * drift * rng.standard_normal()), 100.0, above / 2))
    sharp = float(np.clip(base.max_sharpness * (1.0 + 0.06 * drift * rng.standard_normal()), 1.1, 4.0))
    return DirectivityModel(
        omni_below_hz=below,
        directional_above_hz=above,
        max_sharpness=sharp,
        rear_floor=rear,
    )


def _drift_profile(
    profile: VocalProfile, drift: float, rng: np.random.Generator
) -> VocalProfile:
    f0 = float(np.clip(profile.f0 * (1.0 + 0.015 * drift * rng.standard_normal()), 50.5, 399.5))
    tempo = float(np.clip(profile.tempo * (1.0 + 0.02 * drift * rng.standard_normal()), 0.7, 1.4))
    tilt = profile.tilt_db_per_octave + 0.2 * drift * rng.standard_normal()
    return replace(profile, f0=f0, tempo=tempo, tilt_db_per_octave=float(np.clip(tilt, -8.0, -1.5)))


@dataclass(frozen=True)
class SessionContext:
    """Per-session perturbed environment and speaker."""

    room: Room
    placement: DevicePlacement
    profile: VocalProfile
    ambient_db_spl: float
    angle_error_deg: float
    angle_bias_deg: float
    position_jitter_m: float
    drift: float
    drift_seed: int


def build_session_context(spec: CollectionSpec, base_seed: int) -> SessionContext:
    """Perturbed room/placement/profile for one (spec, session)."""
    drift = _TIMEFRAME_DRIFT[spec.timeframe]
    if spec.room == "home":
        # Homes are lived in: furniture, doors and clutter move between
        # sessions far more than in the static lab, which is a large
        # part of why the paper's home accuracy trails the lab's.
        drift *= 1.7
    rng = np.random.default_rng(
        stable_seed(
            base_seed,
            "session",
            spec.room,
            spec.placement,
            spec.session,
            spec.timeframe,
            spec.speaker_seed,
        )
    )
    room = get_room(spec.room)
    room = replace(room, material=_perturb_material(room.material, drift, rng))
    if spec.room == "home":
        placement = HOME_PLACEMENT
    else:
        placement = LAB_PLACEMENTS[spec.placement]
    placement = _perturb_placement(placement, drift, rng)
    if spec.occlusion == "raised":
        placement = raised_placement(placement)
    profile = _drift_profile(speaker_profile(spec.speaker_seed), drift, rng)
    ambient = room.ambient_noise_db_spl + 1.5 * rng.standard_normal()
    return SessionContext(
        room=room,
        placement=placement,
        profile=profile,
        ambient_db_spl=float(np.clip(ambient, 20.0, 60.0)),
        angle_error_deg=4.0 * spec.aim_error_scale,
        angle_bias_deg=float(
            (spec.aim_error_scale - 1.0) * 8.0 * rng.standard_normal()
        ),
        position_jitter_m=0.05,
        drift=drift,
        drift_seed=stable_seed(
            base_seed, "person-drift", spec.session, spec.timeframe, spec.speaker_seed
        ),
    )


def render_tasks(
    spec: CollectionSpec, base_seed: int = 0
) -> Iterator[tuple[UtteranceMeta, "RenderTask"]]:
    """Frozen render tasks for one collection sweep, deterministically.

    Does every per-utterance setup step of the protocol — session
    context, pose jitter, emission synthesis — and freezes the remaining
    (expensive) acoustic render as a :class:`repro.runtime.RenderTask`
    carrying the exact random-stream state the in-line path would use.
    ``collect`` executes these tasks over threads, with byte-identical
    results in any order.
    """
    from ..runtime.batch import InterferenceSpec, RenderTask

    context = build_session_context(spec, base_seed)
    device = get_device(spec.device)
    channels = (
        list(spec.channels)
        if spec.channels is not None
        else default_channel_subset(device)
    )
    array = device.subset(channels) if len(channels) < device.n_mics else device

    # The person: fixed physical traits per speaker seed, with the
    # session's vocal drift applied on top.
    person = HumanSpeaker.random(
        np.random.default_rng(stable_seed("speaker", spec.speaker_seed)),
        name=f"user{spec.speaker_seed}",
    )
    human = replace(
        person,
        profile=context.profile,
        directivity=_drift_directivity(
            person.directivity,
            context.drift,
            np.random.default_rng(context.drift_seed),
        ),
    )
    mouth = (
        human.sitting_mouth_height
        if spec.posture == "sitting"
        else human.standing_mouth_height
    )
    if spec.source == "replay":
        source = LoudspeakerSource(voice=human, model=_REPLAY_MODELS[spec.replay_model])
        # A loudspeaker on a stand: diaphragm height ~1 m.
        mouth = 1.0
    else:
        source = human

    occlusion = _OCCLUSIONS[spec.occlusion]
    ambient = NoiseSource(kind="household", level_db_spl=context.ambient_db_spl)
    # The diffuse tail is a property of the room + placement (fixed
    # furniture and surfaces), NOT of the utterance or session.  Over a
    # week or month, furniture and clutter DO move, which rearranges the
    # late reflections — the dominant cause of the paper's temporal
    # accuracy drop — so the tail drifts with the timeframe.
    tail_drift = {"day": 0.0, "week": 0.55, "month": 0.75}[spec.timeframe]
    rir_config = RirConfig(
        max_order=spec.max_order,
        tail_seed=stable_seed("tail", spec.room, spec.placement),
        tail_drift=tail_drift,
        tail_drift_seed=stable_seed("tail-drift", spec.room, spec.placement, spec.timeframe),
    )
    # Injected interference (white noise / TV series) is played through
    # a loudspeaker in the room — a coherent point source, per the
    # paper's protocol — sitting on a TV stand off to the side.
    interferer_pose = SpeakerPose(
        distance_m=2.2, radial_deg=-40.0, head_angle_deg=0.0, mouth_height=0.9
    )

    for distance, radial in spec.locations:
        for angle in spec.angles:
            for repetition in range(spec.repetitions):
                rng = np.random.default_rng(
                    stable_seed(
                        base_seed, "utt", spec, distance, radial, angle, repetition
                    )
                )
                pose = SpeakerPose(
                    distance_m=max(
                        0.3, distance + context.position_jitter_m * rng.standard_normal()
                    ),
                    radial_deg=radial,
                    head_angle_deg=angle
                    + context.angle_bias_deg
                    + context.angle_error_deg * rng.standard_normal(),
                    mouth_height=mouth,
                )
                try:
                    scene = Scene(
                        room=context.room,
                        device=array,
                        placement=context.placement,
                        pose=pose,
                        occlusion=occlusion,
                    )
                except ValueError:
                    # Jitter pushed the speaker through a wall; fall back
                    # to the nominal grid position.
                    scene = Scene(
                        room=context.room,
                        device=array,
                        placement=context.placement,
                        pose=SpeakerPose(
                            distance_m=distance,
                            radial_deg=radial,
                            head_angle_deg=angle,
                            mouth_height=mouth,
                        ),
                        occlusion=occlusion,
                    )
                emission = source.emit(spec.wake_word, array.sample_rate, rng)
                interference: tuple[InterferenceSpec, ...] = ()
                if spec.noise:
                    noise_scene = Scene(
                        room=context.room,
                        device=array,
                        placement=context.placement,
                        pose=interferer_pose,
                    )
                    interference = tuple(
                        InterferenceSpec(scene=noise_scene, kind=kind, level_db_spl=level)
                        for kind, level in spec.noise
                    )
                task = RenderTask.from_rng(
                    scene,
                    emission,
                    rng,
                    loudness_db_spl=spec.loudness_db,
                    rir_config=rir_config,
                    ambient=ambient,
                    interference=interference,
                )
                meta = UtteranceMeta(
                    room=spec.room,
                    device=spec.device,
                    wake_word=spec.wake_word,
                    angle_deg=float(angle),
                    distance_m=float(distance),
                    radial_deg=float(radial),
                    session=spec.session,
                    repetition=repetition,
                    source=spec.source,
                    speaker=human.name,
                    loudness_db=spec.loudness_db,
                    placement=spec.placement,
                    occlusion=spec.occlusion,
                    timeframe=spec.timeframe,
                    posture=spec.posture,
                )
                yield meta, task


def collect(
    spec: CollectionSpec,
    base_seed: int = 0,
    workers: int | None = None,
) -> Iterator[tuple[UtteranceMeta, Capture]]:
    """Render every capture of one collection sweep, deterministically.

    The same ``(spec, base_seed)`` always yields identical audio — for
    any ``workers`` value; any field change (session, timeframe, ...)
    re-derives every random stream.

    The whole sweep renders through
    :func:`repro.runtime.render_captures` before the first capture is
    yielded; ``workers`` caps its threads (``None``: one per usable
    CPU, ``1``: inline on the calling thread).
    """
    from ..runtime.batch import render_captures

    with span("datasets.collect", room=spec.room, device=spec.device):
        metas_tasks = list(render_tasks(spec, base_seed))
        captures = render_captures([task for _, task in metas_tasks], workers)
    counter_inc(
        "datasets.captures", amount=len(metas_tasks), room=spec.room, device=spec.device
    )
    for (meta, _), capture in zip(metas_tasks, captures):
        yield meta, capture

"""Dataset builders mirroring Table II.

Every builder composes :class:`CollectionSpec` sweeps, renders them
through the acoustic simulator, runs the preprocessing front-end and the
orientation feature extractor, and returns an
:class:`~repro.datasets.store.OrientationDataset` (or a
:class:`~repro.datasets.store.LivenessDataset`).

**Scale policy** (DESIGN.md section 7): ``PAPER`` reproduces the full
Table II factor grid (9,072 utterances for Dataset-1); ``BENCH`` keeps
every factor but trims locations to the M column and repetitions to 1 so
benches complete in minutes.  Builders are deterministic in
``(scale, seed)`` and cached per process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays.devices import default_channel_subset, get_device
from ..core.features import GccOnlyFeatureExtractor, OrientationFeatureExtractor
from ..core.liveness import LIVE_HUMAN, MECHANICAL, LivenessDetector
from ..core.preprocessing import preprocess
from .collection import (
    ALL_LOCATIONS,
    CollectionSpec,
    DEFAULT_LOCATIONS,
    collect,
)
from .store import LivenessDataset, OrientationDataset, UtteranceMeta

_EXTRACT_CHUNK = 64
"""Captures per stacked-FFT feature extraction call.

Bounds the transient memory of the batched GCC (one rfft buffer per
capture in the chunk) while keeping the FFT large enough to amortize."""

WAKE_WORDS = ("hey assistant", "computer", "amazon")
DEVICES = ("D1", "D2", "D3")
ROOMS = ("lab", "home")


@dataclass(frozen=True)
class Scale:
    """How much of the Table II factor grid to render."""

    name: str
    locations: tuple[tuple[float, float], ...]
    repetitions: int
    sessions: int

    def __post_init__(self) -> None:
        if self.repetitions < 1 or self.sessions < 1:
            raise ValueError("repetitions and sessions must be >= 1")


BENCH = Scale(name="bench", locations=DEFAULT_LOCATIONS, repetitions=2, sessions=2)
PAPER = Scale(name="paper", locations=ALL_LOCATIONS, repetitions=2, sessions=2)
TINY = Scale(name="tiny", locations=((1.0, 0.0),), repetitions=1, sessions=2)
"""TINY exists for unit tests only — one location, one repetition."""

_ORIENTATION_CACHE: dict = {}
_LIVENESS_CACHE: dict = {}


def clear_cache() -> None:
    """Drop all cached datasets (tests use this to bound memory)."""
    _ORIENTATION_CACHE.clear()
    _LIVENESS_CACHE.clear()


def _extractor_for(spec: CollectionSpec, gcc_only: bool = False):
    device = get_device(spec.device)
    channels = (
        list(spec.channels)
        if spec.channels is not None
        else default_channel_subset(device)
    )
    array = device.subset(channels) if len(channels) < device.n_mics else device
    if gcc_only:
        return GccOnlyFeatureExtractor(array)
    return OrientationFeatureExtractor(array)


def build_orientation_dataset(
    specs: tuple[CollectionSpec, ...],
    seed: int = 0,
    gcc_only: bool = False,
) -> OrientationDataset:
    """Render sweeps and extract orientation features (cached).

    Each sweep renders over threads (see
    :func:`repro.datasets.collection.collect`), then feature extraction
    runs the chunked stacked-FFT path.
    """
    key = ("orient", specs, seed, gcc_only)
    if key in _ORIENTATION_CACHE:
        return _ORIENTATION_CACHE[key]
    rows: list[np.ndarray] = []
    metas: list[UtteranceMeta] = []
    for spec in specs:
        extractor = _extractor_for(spec, gcc_only)
        pending: list = []
        for meta, capture in collect(spec, seed):
            pending.append(preprocess(capture))
            metas.append(meta)
            if len(pending) >= _EXTRACT_CHUNK:
                rows.append(extractor.extract_batch(pending))
                pending = []
        if pending:
            rows.append(extractor.extract_batch(pending))
    if not rows:
        raise ValueError("no utterances rendered")
    dataset = OrientationDataset(
        X=np.concatenate(rows, axis=0),
        meta=metas,
        extractor_name="gcc-only" if gcc_only else "headtalk",
    )
    _ORIENTATION_CACHE[key] = dataset
    return dataset


def build_liveness_dataset(
    specs: tuple[CollectionSpec, ...],
    seed: int = 0,
    n_bands: int = 40,
) -> LivenessDataset:
    """Render sweeps and extract liveness log-filterbank features (cached)."""
    key = ("live", specs, seed, n_bands)
    if key in _LIVENESS_CACHE:
        return _LIVENESS_CACHE[key]
    featurizer = LivenessDetector(n_bands=n_bands)
    features: list[np.ndarray] = []
    labels: list[int] = []
    metas: list[UtteranceMeta] = []
    for spec in specs:
        for meta, capture in collect(spec, seed):
            audio = preprocess(capture)
            features.append(featurizer.featurize(audio.reference, audio.sample_rate))
            labels.append(LIVE_HUMAN if meta.is_live_human else MECHANICAL)
            metas.append(meta)
    dataset = LivenessDataset(features=features, labels=np.asarray(labels), meta=metas)
    _LIVENESS_CACHE[key] = dataset
    return dataset


def _sessions(scale: Scale) -> range:
    return range(scale.sessions)


def _m_column(scale: Scale) -> tuple[tuple[float, float], ...]:
    """Datasets 3-7 are collected on the M column only (M1/M3/M5 in
    Table II); smaller test scales may trim it further."""
    if len(scale.locations) < len(DEFAULT_LOCATIONS):
        return scale.locations
    return DEFAULT_LOCATIONS


def dataset1_specs(
    scale: Scale = BENCH,
    rooms: tuple[str, ...] = ROOMS,
    devices: tuple[str, ...] = DEVICES,
    wake_words: tuple[str, ...] = WAKE_WORDS,
) -> tuple[CollectionSpec, ...]:
    """Dataset-1 (Table II): the full factor grid of live-human sweeps."""
    return tuple(
        CollectionSpec(
            room=room,
            device=device,
            wake_word=word,
            locations=scale.locations,
            repetitions=scale.repetitions,
            session=session,
            placement="A",
        )
        for room in rooms
        for device in devices
        for word in wake_words
        for session in _sessions(scale)
    )


def dataset1(
    scale: Scale = BENCH,
    rooms: tuple[str, ...] = ROOMS,
    devices: tuple[str, ...] = DEVICES,
    wake_words: tuple[str, ...] = WAKE_WORDS,
    seed: int = 0,
) -> OrientationDataset:
    """Dataset-1 orientation features (slices via keyword arguments)."""
    return build_orientation_dataset(dataset1_specs(scale, rooms, devices, wake_words), seed)


def dataset2_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """Dataset-2 (Replay): Sony loudspeaker sweeps, 2 wake words."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word=word,
            locations=scale.locations,
            repetitions=scale.repetitions,
            session=session,
            source="replay",
            replay_model="sony",
        )
        for word in ("computer", "hey assistant")
        for session in _sessions(scale)
    )


def dataset3_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """Dataset-3 (Temporal): week- and month-later sweeps."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=_m_column(scale),
            repetitions=scale.repetitions,
            session=session,
            timeframe=timeframe,
        )
        for timeframe in ("week", "month")
        for session in _sessions(scale)
    )


def dataset4_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """Dataset-4 (Ambient): white-noise and TV interference at 45 dB."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=_m_column(scale),
            repetitions=scale.repetitions,
            session=0,
            noise=((kind, 45.0),),
        )
        for kind in ("white", "tv")
    )


def dataset5_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """Dataset-5 (Sitting): seated speaker sweeps."""
    return (
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=_m_column(scale),
            repetitions=scale.repetitions,
            session=0,
            posture="sitting",
        ),
    )


def dataset6_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """Dataset-6 (Loudness): 60 and 80 dB SPL sweeps."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=_m_column(scale),
            repetitions=scale.repetitions,
            session=0,
            loudness_db=loudness,
        )
        for loudness in (60.0, 80.0)
    )


def dataset7_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """Dataset-7 (Nearby objects): partial / full block / raised device."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=_m_column(scale),
            repetitions=scale.repetitions,
            session=0,
            occlusion=occlusion,
        )
        for occlusion in ("partial", "full", "raised")
    )


def placement_specs(
    placements: tuple[str, ...] = ("B", "C"), scale: Scale = BENCH
) -> tuple[CollectionSpec, ...]:
    """Device-placement sweeps (Section IV-B7), 3 m / 0 deg column."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=((3.0, 0.0),),
            repetitions=scale.repetitions,
            session=session,
            placement=placement,
        )
        for placement in placements
        for session in _sessions(scale)
    )


def border_angle_specs(scale: Scale = BENCH) -> tuple[CollectionSpec, ...]:
    """The extra +-75 deg sweeps collected for Table III."""
    return tuple(
        CollectionSpec(
            room="lab",
            device="D2",
            wake_word="computer",
            locations=scale.locations,
            angles=(75.0, -75.0),
            repetitions=scale.repetitions,
            session=session,
        )
        for session in _sessions(scale)
    )

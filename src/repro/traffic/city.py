"""Deterministic household "days": occupants, schedules, Poisson events.

A city is ``config.households`` independent households, each drawn
deterministically from ``stable_seed(seed, "household", index)``: a
room type, one or two devices, a handful of occupants (mapped onto the
capture bank's speaker variants) and a TV.  Each household then emits
a Poisson stream of wake-like events over the simulated day, with an
hourly activity profile (quiet nights, morning and evening peaks) and
per-source daypart weighting (TVs mostly in the evening, cleaning
noise mid-day, replay attackers indifferent to the clock).

Every :class:`TrafficEvent` carries its misactivation-source label,
the scenario ground truth (only ``live-facing`` should be accepted)
and the bank key of the capture it plays.  With ``config.shift`` the
mix changes mid-day — the TV turns on citywide at ``shift_hour`` —
which is the seeded drift scenario the monitor's PSI/KS/Page–Hinkley
alarms must catch.

Event streams are pure functions of the config: same seed, same city,
same events, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..datasets.collection import stable_seed
from .config import TRUTH_BY_SOURCE, TrafficConfig

# Relative city activity per hour of day (normalized to mean 1.0 below):
# quiet nights, a morning ramp, steady daytime, a tall evening peak.
_ACTIVITY_BY_HOUR = (
    0.20, 0.10, 0.10, 0.10, 0.20, 0.40,  # 00-05
    0.90, 1.30, 1.50,                    # 06-08
    1.10, 1.00, 1.00, 1.10, 1.00, 1.00, 1.10, 1.20,  # 09-16
    1.60, 1.80, 1.90, 1.80, 1.60, 1.20,  # 17-22
    0.60,                                # 23
)
_ACTIVITY = tuple(a * 24.0 / sum(_ACTIVITY_BY_HOUR) for a in _ACTIVITY_BY_HOUR)


def _daypart(hour: int) -> str:
    if hour < 6 or hour >= 23:
        return "night"
    if hour < 9:
        return "morning"
    if hour < 17:
        return "day"
    return "evening"


# How each source's share of traffic moves through the day: people talk
# to (and near) the device in the morning and evening, TVs dominate the
# evening, cleaning happens mid-day, replay attacks ignore the clock.
_SOURCE_DAYPART = {
    "live-facing": {"night": 0.3, "morning": 1.3, "day": 1.0, "evening": 1.2},
    "live-averted": {"night": 0.3, "morning": 1.1, "day": 1.0, "evening": 1.2},
    "conversation": {"night": 0.2, "morning": 0.9, "day": 1.1, "evening": 1.5},
    "loudspeaker": {"night": 0.2, "morning": 0.7, "day": 0.9, "evening": 1.8},
    "replay": {"night": 1.0, "morning": 1.0, "day": 1.0, "evening": 1.0},
    "noise": {"night": 0.1, "morning": 0.8, "day": 1.7, "evening": 0.6},
    # Adaptive attackers prefer the night (nobody home to notice the
    # horn rig) but probe around the clock like the naive replayer.
    "attack-eq": {"night": 1.4, "morning": 0.9, "day": 1.0, "evening": 0.9},
    "attack-horn": {"night": 1.4, "morning": 0.9, "day": 1.0, "evening": 0.9},
    "attack-tdoa": {"night": 1.4, "morning": 0.9, "day": 1.0, "evening": 0.9},
    "attack-speakear": {"night": 1.0, "morning": 1.0, "day": 1.0, "evening": 1.0},
}

SHIFT_SOURCE = "loudspeaker"
"""The source whose weight ``config.shift`` multiplies from
``shift_hour`` on: the TV turning on citywide."""

_HUMAN_SOURCES = frozenset({"live-facing", "live-averted", "conversation"})


@dataclass(frozen=True)
class Household:
    """One simulated home, fixed for the whole day."""

    index: int
    room: str
    devices: int
    occupants: tuple[int, ...]  # bank variant index per occupant
    has_tv: bool
    rate_scale: float


@dataclass(frozen=True)
class TrafficEvent:
    """One wake-like event: when, where, what, and the ground truth."""

    time_s: float
    household: int
    device: int
    room: str
    source: str
    variant: int
    truth: bool

    @property
    def key(self) -> tuple:
        """The capture-bank key this event plays."""
        return (self.room, self.source, self.variant)

    def slices(self) -> dict:
        """Monitor slice labels carried on the wire (``end`` op)."""
        return {"source": self.source, "room": self.room}


def generate_households(config: TrafficConfig) -> list[Household]:
    """The city's households, deterministically from the seed."""
    households = []
    for index in range(config.households):
        rng = np.random.default_rng(stable_seed(config.seed, "household", index))
        room = config.rooms[int(rng.integers(len(config.rooms)))]
        occupants = tuple(
            int(v) for v in rng.integers(0, config.variants, size=int(rng.integers(1, 4)))
        )
        households.append(
            Household(
                index=index,
                room=room,
                devices=1 + int(rng.random() < 0.3),
                occupants=occupants,
                has_tv=bool(rng.random() < 0.8),
                rate_scale=float(0.5 + rng.random()),  # uniform 0.5–1.5
            )
        )
    return households


def _source_weights(
    config: TrafficConfig, household: Household, hour: int, t: float, mix=None
):
    daypart = _daypart(hour % 24)
    weights = []
    for source, weight in config.event_mix() if mix is None else mix:
        weight = weight * _SOURCE_DAYPART[source][daypart]
        if source == "loudspeaker" and not household.has_tv:
            weight *= 0.1  # radio only — far less loudspeaker traffic
        if (
            config.shift
            and t >= config.shift_hour * 3600.0
            and source == SHIFT_SOURCE
        ):
            weight *= config.shift_factor
        weights.append(weight)
    return weights


def generate_events(
    config: TrafficConfig, households: list[Household] | None = None
) -> list[TrafficEvent]:
    """The city's full day of events, sorted by event time.

    Each household consumes its own seeded random stream, so the event
    list is independent of household iteration order and stable under
    any later change to how other households are drawn.
    """
    households = generate_households(config) if households is None else households
    events: list[TrafficEvent] = []
    mix = config.event_mix()
    sources = [name for name, _ in mix]
    for household in households:
        rng = np.random.default_rng(stable_seed(config.seed, "events", household.index))
        for hour in range(math.ceil(config.hours)):
            span = min(1.0, config.hours - hour)
            lam = (
                config.rate_per_household
                / 24.0
                * _ACTIVITY[hour % 24]
                * household.rate_scale
                * span
            )
            for _ in range(int(rng.poisson(lam))):
                t = (hour + float(rng.random()) * span) * 3600.0
                weights = _source_weights(config, household, hour, t, mix)
                total = sum(weights)
                if total <= 0:
                    continue
                draw = float(rng.random()) * total
                cumulative = 0.0
                source = sources[-1]
                for name, weight in zip(sources, weights):
                    cumulative += weight
                    if draw < cumulative:
                        source = name
                        break
                if source in _HUMAN_SOURCES:
                    variant = household.occupants[
                        int(rng.integers(len(household.occupants)))
                    ]
                else:
                    variant = int(rng.integers(config.variants))
                events.append(
                    TrafficEvent(
                        time_s=t,
                        household=household.index,
                        device=int(rng.integers(household.devices)),
                        room=household.room,
                        source=source,
                        variant=variant,
                        truth=TRUTH_BY_SOURCE[source],
                    )
                )
    events.sort(key=lambda e: (e.time_s, e.household, e.device))
    return events


def generate_city(config: TrafficConfig):
    """``(households, events)`` for one config — the whole simulated day."""
    households = generate_households(config)
    return households, generate_events(config, households)


def event_stream_fingerprint(events: list[TrafficEvent]) -> str:
    """Stable content hash of an event stream (determinism checks)."""
    import hashlib

    digest = hashlib.blake2b(digest_size=16)
    for event in events:
        digest.update(
            (
                f"{event.time_s:.6f}|{event.household}|{event.device}|"
                f"{event.room}|{event.source}|{event.variant}|{event.truth}\n"
            ).encode()
        )
    return digest.hexdigest()

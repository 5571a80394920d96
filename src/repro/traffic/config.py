"""City parameters: one frozen :class:`TrafficConfig` per simulated city.

A :class:`TrafficConfig` pins down one simulated city: how many
households, how long the day runs, how often wake-like events occur,
and the *mix* — what fraction of those events come from each
misactivation source of the taxonomy (:data:`SOURCES`).  Everything is
derived deterministically from ``seed``, so the same config always
yields the same city, the same Poisson event stream and the same
rendered capture bytes.

Every parameter is a constructor field, and ``__post_init__`` rejects
an invalid value with ``ValueError``.  ``python -m repro.traffic.drive``
starts from the defaults and sets the fields its CLI flags name
(docs/TRAFFIC.md).
"""

from __future__ import annotations

from dataclasses import dataclass

SOURCES = (
    "live-facing",
    "live-averted",
    "conversation",
    "loudspeaker",
    "replay",
    "noise",
)
"""The misactivation-source taxonomy every traffic event is labelled with."""

ATTACK_SOURCES = (
    "attack-eq",
    "attack-horn",
    "attack-tdoa",
    "attack-speakear",
)
"""Adversarial sources (the :mod:`repro.attacks` families) that join the
city's traffic only when ``attack_mix`` is positive; each is a
``source=`` quality slice like the base sources."""

ATTACK_FAMILY_BY_SOURCE = {
    "attack-eq": "eq-replay",
    "attack-horn": "horn-replay",
    "attack-tdoa": "tdoa-replay",
    "attack-speakear": "speakear",
}
"""Traffic label → :data:`repro.attacks.ATTACK_SOURCE_CLASSES` kind."""

TRUTH_BY_SOURCE = {source: source == "live-facing" for source in SOURCES}
TRUTH_BY_SOURCE.update({source: False for source in ATTACK_SOURCES})
"""Ground truth per source: only live, device-directed speech should be
accepted — everything else is a misactivation the gate must thwart."""

DEFAULT_MIX = (
    ("live-facing", 0.30),
    ("live-averted", 0.15),
    ("conversation", 0.20),
    ("loudspeaker", 0.20),
    ("replay", 0.05),
    ("noise", 0.10),
)
"""Default stationary mix: most wake-like events are *not* directed at
the device (TVs, conversations, noise) — the production regime the
paper's curated datasets do not cover."""

ROOMS = ("lab", "home")


@dataclass(frozen=True)
class TrafficConfig:
    """One simulated city (see the module docstring)."""

    households: int = 200
    seed: int = 0
    hours: float = 24.0
    rate_per_household: float = 12.0
    variants: int = 3
    rooms: tuple[str, ...] = ROOMS
    mix: tuple[tuple[str, float], ...] = DEFAULT_MIX
    shift: bool = False
    shift_hour: float = 12.0
    shift_factor: float = 8.0
    attack_mix: float = 0.0
    attack_sophistication: float = 1.0

    def __post_init__(self) -> None:
        if self.households < 1:
            raise ValueError("households must be >= 1")
        if self.hours <= 0:
            raise ValueError("hours must be positive")
        if self.rate_per_household <= 0:
            raise ValueError("rate_per_household must be positive")
        if self.variants < 1:
            raise ValueError("variants must be >= 1")
        if not self.rooms or any(room not in ROOMS for room in self.rooms):
            raise ValueError(f"rooms must be a non-empty subset of {ROOMS}")
        labels = [name for name, _ in self.mix]
        if sorted(labels) != sorted(set(labels)) or any(
            name not in SOURCES for name in labels
        ):
            raise ValueError(f"mix labels must be unique members of {SOURCES}")
        if any(weight < 0 for _, weight in self.mix) or not any(
            weight > 0 for _, weight in self.mix
        ):
            raise ValueError("mix weights must be >= 0 with a positive total")
        if self.shift_hour < 0 or self.shift_factor <= 0:
            raise ValueError("shift_hour must be >= 0 and shift_factor positive")
        if not 0.0 <= self.attack_mix < 1.0:
            raise ValueError("attack_mix must be in [0, 1)")
        if self.attack_sophistication < 0:
            raise ValueError("attack_sophistication must be >= 0")

    def event_mix(self) -> tuple[tuple[str, float], ...]:
        """The mix events are actually drawn from: base + attack labels.

        ``attack_mix`` is the *fraction of total traffic* that is
        adversarial, split evenly over the four attack families: with
        base weights summing to ``W``, each family gets weight
        ``attack_mix / (1 - attack_mix) * W / 4`` so attacks land at
        ``attack_mix`` of the event stream regardless of the base
        normalization.  ``attack_mix == 0`` returns :attr:`mix`
        unchanged, leaving the clean-city event stream byte-identical.
        """
        if self.attack_mix <= 0.0:
            return self.mix
        base_total = sum(weight for _, weight in self.mix)
        per_family = (
            self.attack_mix / (1.0 - self.attack_mix) * base_total / len(ATTACK_SOURCES)
        )
        return self.mix + tuple((source, per_family) for source in ATTACK_SOURCES)

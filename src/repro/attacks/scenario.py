"""Attack scenarios: named, seeded, sophistication-scaled attackers.

An :class:`AttackScenario` is the adversarial analogue of
:class:`repro.faults.scenario.FaultScenario`: a small frozen, picklable
description — attacker family, sophistication tier, seed — from which
:meth:`AttackScenario.source_for` builds a concrete ``emit()``-capable
source for any voice.  All randomness inside the built sources is
content-keyed (see :mod:`repro.attacks.models`), so a scenario is a
pure recipe: same scenario + same recording → same attack bytes.

Sophistication is an open-ended multiplier like fault severity.  The
benchmark sweeps :data:`SOPHISTICATION_TIERS` (1 = commodity gear,
2 = practiced attacker, 3 = the practical ceiling of each family).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..acoustics.sources import SONY_SRS_X5, HumanSpeaker, LoudspeakerModel
from .models import (
    DirectionalHornReplay,
    EqCompensatedReplay,
    MultiSpeakerTdoaAttack,
    SpeakeARChannel,
    _clamped_sophistication,
)

__all__ = [
    "ATTACK_SOURCE_CLASSES",
    "AttackScenario",
    "PRESET_NAMES",
    "SOPHISTICATION_TIERS",
    "preset_attack",
]

ATTACK_SOURCE_CLASSES = {
    "eq-replay": EqCompensatedReplay,
    "horn-replay": DirectionalHornReplay,
    "tdoa-replay": MultiSpeakerTdoaAttack,
    "speakear": SpeakeARChannel,
}
"""Attacker family per preset key."""

PRESET_NAMES = frozenset(ATTACK_SOURCE_CLASSES)

SOPHISTICATION_TIERS = (1.0, 2.0, 3.0)
"""The tiers E30 and the attacks benchmark sweep."""


@dataclass(frozen=True)
class AttackScenario:
    """A named, seeded attacker at one sophistication tier."""

    name: str
    kind: str
    sophistication: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_SOURCE_CLASSES:
            raise ValueError(
                f"unknown attack kind {self.kind!r}; expected one of {sorted(PRESET_NAMES)}"
            )
        _clamped_sophistication(self.sophistication)

    def source_for(
        self, voice: HumanSpeaker, model: LoudspeakerModel = SONY_SRS_X5
    ):
        """The concrete attack source replaying ``voice`` through ``model``."""
        cls = ATTACK_SOURCE_CLASSES[self.kind]
        return cls(
            voice=voice,
            model=model,
            sophistication=self.sophistication,
            seed=self.seed,
        )


def preset_attack(
    name: str, sophistication: float = 1.0, seed: int = 0
) -> AttackScenario:
    """A named attacker scenario at one sophistication tier.

    Presets (see :mod:`repro.attacks.models` for the physics):

    - ``eq-replay`` — inverse-EQ replay; sophistication buys boost
      headroom (~6 dB/tier) and cleaner electronics;
    - ``horn-replay`` — human-lobed horn; sophistication morphs the
      lobes from box-loudspeaker to human-head;
    - ``tdoa-replay`` — 2–4 coordinated cabinets; sophistication adds
      cabinets and tightens phase alignment;
    - ``speakear`` — speakers-as-mic capture then replay; sophistication
      widens the capture band and lowers its noise floor.
    """
    s = _clamped_sophistication(sophistication)
    key = name.strip().lower()
    if key not in ATTACK_SOURCE_CLASSES:
        raise ValueError(
            f"unknown attack scenario {name!r}; expected one of {sorted(PRESET_NAMES)}"
        )
    return AttackScenario(name=f"{key}@{s:g}", kind=key, sophistication=s, seed=seed)

"""HeadTalk configuration: facing definitions and system parameters.

Section III-B1 defines facing via the human field of view: -30..30 deg is
the *facing zone*, +-(30..90) deg the *blind zone* (soft boundary), and
beyond +-90 deg the non-facing zone.  Section IV-A2 evaluates four
label-filtering definitions for training; Definition-4 (train facing on
0/+-15/+-30, non-facing on +-90/+-135/180, exclude the borderline
+-45/+-60/+-75 arc) wins and is the system default.
"""

from __future__ import annotations

from dataclasses import dataclass

FACING = "facing"
NON_FACING = "non-facing"

FACING_ZONE_DEG = 30.0
"""|angle| <= 30 deg counts as truly facing (ground truth)."""

BLIND_ZONE_DEG = 90.0
"""30 < |angle| < 90 deg is the soft 'blind zone' boundary."""


def ground_truth_label(angle_deg: float) -> str:
    """The system-level ground truth: facing iff within the facing zone."""
    return FACING if abs(_wrap(angle_deg)) <= FACING_ZONE_DEG else NON_FACING


def _wrap(angle_deg: float) -> float:
    """Wrap an angle into (-180, 180]."""
    wrapped = (angle_deg + 180.0) % 360.0 - 180.0
    return 180.0 if wrapped == -180.0 else wrapped


@dataclass(frozen=True)
class FacingDefinition:
    """A training-label policy: which collected angles train each class.

    Angles not in either set are excluded from training (the soft
    boundary).  All angles can still be *tested*; ground truth for
    scoring borderline angles comes from :func:`ground_truth_label`.
    """

    name: str
    facing_angles: frozenset[float]
    non_facing_angles: frozenset[float]

    def __post_init__(self) -> None:
        overlap = self.facing_angles & self.non_facing_angles
        if overlap:
            raise ValueError(f"angles in both classes: {sorted(overlap)}")
        if not self.facing_angles or not self.non_facing_angles:
            raise ValueError("both classes need at least one angle")

    def training_label(self, angle_deg: float) -> str | None:
        """Label for a training sample, or None if the angle is excluded."""
        angle = _wrap(angle_deg)
        if angle in self.facing_angles:
            return FACING
        if angle in self.non_facing_angles:
            return NON_FACING
        return None


def _angles(*values: float) -> frozenset[float]:
    out = set()
    for value in values:
        out.add(float(value))
        if value not in (0.0, 180.0):
            out.add(float(-value))
    return frozenset(out)


DEFINITION_1 = FacingDefinition(
    name="Definition-1",
    facing_angles=_angles(0, 15, 30, 45),
    non_facing_angles=_angles(60, 75, 90, 135, 180),
)

DEFINITION_2 = FacingDefinition(
    name="Definition-2",
    facing_angles=_angles(0, 15, 30),
    non_facing_angles=_angles(60, 75, 90, 135, 180),
)

DEFINITION_3 = FacingDefinition(
    name="Definition-3",
    facing_angles=_angles(0, 15, 30),
    non_facing_angles=_angles(75, 90, 135, 180),
)

DEFINITION_4 = FacingDefinition(
    name="Definition-4",
    facing_angles=_angles(0, 15, 30),
    non_facing_angles=_angles(90, 135, 180),
)

ALL_DEFINITIONS = (DEFINITION_1, DEFINITION_2, DEFINITION_3, DEFINITION_4)

DEFAULT_DEFINITION = DEFINITION_4
"""The best-performing definition (Table III), used system-wide."""

BASELINE_DEFINITION = FacingDefinition(
    name="DoV-arcs",
    facing_angles=_angles(0, 45),
    non_facing_angles=_angles(90, 135, 180),
)
"""Facing arcs available in the DoV-style dataset (no +-15/+-30 angles);
used by the cross-user experiment (Section IV-B14)."""


@dataclass(frozen=True)
class HeadTalkConfig:
    """Top-level system parameters.

    Parameters
    ----------
    liveness_threshold:
        Minimum live-human probability to accept an utterance.
    facing_threshold:
        Minimum facing probability to accept an utterance.
    session_seconds:
        After a facing wake word, how long follow-up commands are
        accepted without re-checking orientation ("the user does not
        need to continuously face the device for the remaining session").
    """

    liveness_threshold: float = 0.5
    facing_threshold: float = 0.5
    session_seconds: float = 60.0

    def __post_init__(self) -> None:
        if not 0 < self.liveness_threshold < 1:
            raise ValueError("liveness_threshold must be in (0, 1)")
        if not 0 < self.facing_threshold < 1:
            raise ValueError("facing_threshold must be in (0, 1)")
        if self.session_seconds <= 0:
            raise ValueError("session_seconds must be positive")

"""Serving parameters and their ``REPRO_SERVING_*`` environment knobs.

Every knob has a safe default; malformed values fall back to the
default with a one-time ``RuntimeWarning`` naming the bad value (the
shared :mod:`repro.obs.control` helpers) — a typo in a deploy manifest
must not silently change decision latency or early-exit behaviour.

Knobs (all optional):

- ``REPRO_SERVING_FRAME`` / ``REPRO_SERVING_HOP`` — evidence frame and
  hop, in samples (default 2048/2048: non-overlapping ~43 ms frames at
  48 kHz);
- ``REPRO_SERVING_MIN_FRAMES`` — frames before the first early check;
- ``REPRO_SERVING_CHECK_EVERY`` — minimum frames between early checks
  (later checks wait for the prefix to grow by half);
- ``REPRO_SERVING_CONSECUTIVE`` — below-margin checks before an early
  rejection fires;
- ``REPRO_SERVING_FACING_MARGIN`` / ``REPRO_SERVING_LIVENESS_MARGIN``
  — safety band under the decision thresholds for early rejection;
- ``REPRO_SERVING_MAX_SESSIONS`` — concurrent connections before the
  gateway answers ``busy`` (backpressure, never queueing);
- ``REPRO_SERVING_RING_SECONDS`` — per-session ring-buffer capacity;
- ``REPRO_SERVING_HOST`` / ``REPRO_SERVING_PORT`` — bind address
  (port 0 picks a free port).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.streaming import DEFAULT_FRAME_LENGTH, DEFAULT_HOP_LENGTH
from ..obs.control import env_float as _env_float
from ..obs.control import env_int as _env_int
from ..obs.control import warn_once as _warn_once


@dataclass(frozen=True)
class ServingConfig:
    """Tuning of one gateway process (see module docstring for knobs).

    The early-exit parameters are the empirically validated defaults of
    :class:`repro.core.streaming.StreamingDecider` (``check_every`` is
    the minimum gap between early checks, which otherwise wait for the
    prefix to grow by half); the transport parameters bound one
    process's concurrency and per-session memory.
    """

    frame_length: int = DEFAULT_FRAME_LENGTH
    hop_length: int = DEFAULT_HOP_LENGTH
    min_frames: int = 4
    check_every: int = 2
    consecutive: int = 2
    facing_margin: float = 0.10
    liveness_margin: float = 0.25
    max_sessions: int = 256
    ring_seconds: float = 12.0
    check_liveness: bool = True
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.frame_length < 1 or self.hop_length < 1:
            raise ValueError("frame_length and hop_length must be >= 1")
        if self.min_frames < 1 or self.check_every < 1 or self.consecutive < 1:
            raise ValueError("min_frames, check_every and consecutive must be >= 1")
        if self.facing_margin < 0 or self.liveness_margin < 0:
            raise ValueError("margins must be >= 0")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.ring_seconds <= 0:
            raise ValueError("ring_seconds must be positive")

    @classmethod
    def from_env(cls) -> "ServingConfig":
        """Config with every ``REPRO_SERVING_*`` override applied.

        Values that fail their own validation (not just their parse)
        also fall back: a negative margin warns once and keeps the
        default, like a malformed one.
        """
        defaults = cls()
        values = {
            "frame_length": _env_int("REPRO_SERVING_FRAME", defaults.frame_length),
            "hop_length": _env_int("REPRO_SERVING_HOP", defaults.hop_length),
            "min_frames": _env_int("REPRO_SERVING_MIN_FRAMES", defaults.min_frames),
            "check_every": _env_int("REPRO_SERVING_CHECK_EVERY", defaults.check_every),
            "consecutive": _env_int("REPRO_SERVING_CONSECUTIVE", defaults.consecutive),
            "facing_margin": _env_float(
                "REPRO_SERVING_FACING_MARGIN", defaults.facing_margin
            ),
            "liveness_margin": _env_float(
                "REPRO_SERVING_LIVENESS_MARGIN", defaults.liveness_margin
            ),
            "max_sessions": _env_int(
                "REPRO_SERVING_MAX_SESSIONS", defaults.max_sessions
            ),
            "ring_seconds": _env_float(
                "REPRO_SERVING_RING_SECONDS", defaults.ring_seconds
            ),
            "host": os.environ.get("REPRO_SERVING_HOST", defaults.host) or defaults.host,
            "port": _env_int("REPRO_SERVING_PORT", defaults.port),
        }
        try:
            return cls(**values)
        except ValueError as error:
            _warn_once(
                "REPRO_SERVING",
                f"invalid REPRO_SERVING_* combination ({error}); using defaults",
            )
            return defaults

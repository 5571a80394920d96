"""Serving parameters: one frozen :class:`ServingConfig` per gateway.

Every tunable is a constructor field, and ``__post_init__`` rejects an
invalid value with ``ValueError``.  The soak and traffic-drive CLIs
start from the defaults and set only ``check_liveness`` and
``max_sessions``.

- ``frame_length`` / ``hop_length`` — evidence frame and hop, in
  samples (default 2048/2048: non-overlapping ~43 ms frames at 48 kHz);
- ``min_frames`` — frames before the first early check;
- ``check_every`` — minimum frames between early checks (later checks
  wait for the prefix to grow by half);
- ``consecutive`` — below-margin checks before an early rejection
  fires;
- ``facing_margin`` / ``liveness_margin`` — safety band under the
  decision thresholds for early rejection;
- ``max_sessions`` — concurrent connections before the gateway answers
  ``busy`` (backpressure, never queueing);
- ``ring_seconds`` — per-session ring-buffer capacity;
- ``check_liveness`` — run the liveness stage;
- ``host`` / ``port`` — bind address (port 0 picks a free port).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.streaming import DEFAULT_FRAME_LENGTH, DEFAULT_HOP_LENGTH


@dataclass(frozen=True)
class ServingConfig:
    """Tuning of one gateway process (see the module docstring for fields).

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

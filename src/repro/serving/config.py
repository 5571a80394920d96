"""Serving parameters: one frozen :class:`ServingConfig` per gateway.

Every tunable is a constructor field, and ``__post_init__`` rejects an
invalid value with ``ValueError``.  The soak and traffic-drive CLIs
start from the defaults and set only ``check_liveness`` and
``max_sessions``.  The early-exit policy (evidence frames, when to
check, margins, hysteresis) is not configured here: it is the
constants of :mod:`repro.core.streaming`.

- ``max_sessions`` — concurrent connections before the gateway answers
  ``busy`` (backpressure, never queueing);
- ``ring_seconds`` — per-session ring-buffer capacity;
- ``check_liveness`` — run the liveness stage;
- ``host`` / ``port`` — bind address (port 0 picks a free port).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ServingConfig:
    """Tuning of one gateway process (see the module docstring for fields).

    The transport parameters bound one process's concurrency and
    per-session memory.
    """

    max_sessions: int = 256
    ring_seconds: float = 12.0
    check_liveness: bool = True
    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if not 0 < self.ring_seconds < math.inf:
            raise ValueError("ring_seconds must be positive and finite")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")

"""Master switch for the adversarial layer.

One process-global flag, off by default.  Arming it renders nothing
adversarial: it tells the decision monitor's mislabeled-replay guard
that ``attack-*`` source labels in the decision stream are intentional.
``python -m repro.traffic.drive --attack-mix ...`` arms it.
"""

from __future__ import annotations

__all__ = ["attacks_enabled", "set_attacks_enabled"]

_ENABLED = False


def attacks_enabled() -> bool:
    """Whether the adversarial layer is armed for this process."""
    return _ENABLED


def set_attacks_enabled(enabled: bool) -> None:
    """Arm or disarm the adversarial layer globally."""
    global _ENABLED
    _ENABLED = bool(enabled)

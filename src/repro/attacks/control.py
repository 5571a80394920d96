"""Master switch and env plumbing for the adversarial layer.

Mirrors :mod:`repro.faults.control`: one process-global flag read once
from ``REPRO_ATTACKS`` (overridable programmatically), plus an active
:class:`~repro.attacks.scenario.AttackScenario` resolved from either a
programmatic override or the environment:

- ``REPRO_ATTACKS`` — truthy enables the layer (default off).  Enabling
  it alone renders nothing adversarial; it arms the scenario lookup,
  the traffic attack mix and the monitor's mislabeled-replay guard.
- ``REPRO_ATTACKS_SCENARIO`` — a preset name from
  :data:`~repro.attacks.scenario.PRESET_NAMES`; unset means no ambient
  attacker.
- ``REPRO_ATTACKS_SOPHISTICATION`` — tier multiplier (default 1.0).
- ``REPRO_ATTACKS_SEED`` — attacker seed (default 0).

Malformed values fall back to their defaults with a one-time
``RuntimeWarning`` naming the bad value — a typo must not silently turn
an adversarial run into a clean one (or the reverse).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..obs.control import env_float as _env_float
from ..obs.control import env_int as _env_int
from ..obs.control import env_truthy
from ..obs.control import warn_once as _warn_once
from .scenario import AttackScenario, preset_attack

__all__ = [
    "active_attack",
    "attack_from_env",
    "attacks_enabled",
    "engaged",
    "set_attack_scenario",
    "set_attacks_enabled",
]

_ENABLED = env_truthy("REPRO_ATTACKS")
_SCENARIO_OVERRIDE: AttackScenario | None = None


def attacks_enabled() -> bool:
    """Whether the adversarial layer is active for this process.

    True when enabled programmatically (:func:`set_attacks_enabled`,
    :func:`engaged`) *or* when ``REPRO_ATTACKS`` is truthy right now.
    The environment is re-read on every call, so a ``REPRO_ATTACKS=1``
    set after import (as ``tests/attacks/test_control.py`` does) still
    arms the layer (the :mod:`repro.faults.control` convention).
    """
    return _ENABLED or env_truthy("REPRO_ATTACKS")


def set_attacks_enabled(enabled: bool) -> None:
    """Turn the adversarial layer on or off globally."""
    global _ENABLED
    _ENABLED = bool(enabled)


def set_attack_scenario(scenario: AttackScenario | None) -> None:
    """Install (or clear) the process-global attack-scenario override."""
    global _SCENARIO_OVERRIDE
    _SCENARIO_OVERRIDE = scenario


def attack_from_env() -> AttackScenario | None:
    """Scenario described by ``REPRO_ATTACKS_SCENARIO``/``_SOPHISTICATION``/``_SEED``.

    Returns ``None`` when no scenario is named.  An unknown scenario
    name warns once and arms nothing (an attacker the operator did not
    spell correctly must not silently run).
    """
    name = os.environ.get("REPRO_ATTACKS_SCENARIO", "").strip()
    if not name:
        return None
    sophistication = _env_float("REPRO_ATTACKS_SOPHISTICATION", 1.0)
    seed = _env_int("REPRO_ATTACKS_SEED", 0)
    try:
        return preset_attack(name, sophistication=sophistication, seed=seed)
    except ValueError as error:
        _warn_once(
            "REPRO_ATTACKS_SCENARIO", f"ignoring REPRO_ATTACKS_SCENARIO: {error}"
        )
        return None


def active_attack() -> AttackScenario | None:
    """The attack scenario in force, or ``None``.

    The programmatic override (see :func:`set_attack_scenario` /
    :func:`engaged`) wins over the environment; either way the layer
    must be enabled for a scenario to be active.
    """
    if not attacks_enabled():
        return None
    if _SCENARIO_OVERRIDE is not None:
        return _SCENARIO_OVERRIDE
    return attack_from_env()


@contextmanager
def engaged(scenario: AttackScenario | None = None):
    """Scoped adversarial mode: enable the layer and set the scenario.

    ``engaged(None)`` enables the layer without a scenario (attack-mix
    traffic armed, no ambient attacker).  Previous state is restored on
    exit, matching :func:`repro.faults.control.injected`.
    """
    previous_enabled = _ENABLED
    previous_scenario = _SCENARIO_OVERRIDE
    set_attacks_enabled(True)
    set_attack_scenario(scenario)
    try:
        yield
    finally:
        set_attacks_enabled(previous_enabled)
        set_attack_scenario(previous_scenario)

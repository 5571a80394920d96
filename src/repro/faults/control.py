"""Master switch and env plumbing for fault injection.

Mirrors :mod:`repro.obs.control`: one process-global flag read once
from ``REPRO_FAULTS`` (overridable programmatically), plus an active
:class:`~repro.faults.scenario.FaultScenario` resolved from either a
programmatic override or the environment:

- ``REPRO_FAULTS`` — truthy enables the layer (default off).  Enabling
  the layer alone corrupts nothing; it arms the scenario lookup.
- ``REPRO_FAULTS_SCENARIO`` — a preset name from
  :data:`~repro.faults.scenario.PRESET_NAMES`; unset means no capture
  corruption.
- ``REPRO_FAULTS_SEVERITY`` — severity multiplier (default 1.0).
- ``REPRO_FAULTS_SEED`` — scenario seed (default 0).

Malformed values fall back to their defaults with a one-time
``RuntimeWarning`` naming the bad value — a typo must not silently turn
a faulted run into a clean one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from ..obs.control import env_float as _env_float
from ..obs.control import env_int as _env_int
from ..obs.control import env_truthy
from ..obs.control import warn_once as _warn_once
from .scenario import FaultScenario, preset_scenario

__all__ = [
    "active_scenario",
    "faults_enabled",
    "injected",
    "scenario_from_env",
    "set_fault_scenario",
    "set_faults_enabled",
]

_ENABLED = env_truthy("REPRO_FAULTS")
_SCENARIO_OVERRIDE: FaultScenario | None = None


def faults_enabled() -> bool:
    """Whether the fault-injection layer is active for this process.

    True when enabled programmatically (:func:`set_faults_enabled`,
    :func:`injected`) *or* when ``REPRO_FAULTS`` is truthy right now.
    The environment is re-read on every call, so a ``REPRO_FAULTS=1``
    set after import still arms the layer: the convention
    :mod:`repro.attacks.control` shares, whose tests set
    ``REPRO_ATTACKS`` after import.
    """
    return _ENABLED or env_truthy("REPRO_FAULTS")


def set_faults_enabled(enabled: bool) -> None:
    """Turn the fault-injection layer on or off globally."""
    global _ENABLED
    _ENABLED = bool(enabled)


def set_fault_scenario(scenario: FaultScenario | None) -> None:
    """Install (or clear) the process-global scenario override."""
    global _SCENARIO_OVERRIDE
    _SCENARIO_OVERRIDE = scenario


def scenario_from_env() -> FaultScenario | None:
    """Scenario described by ``REPRO_FAULTS_SCENARIO``/``_SEVERITY``/``_SEED``.

    Returns ``None`` when no scenario is named.  An unknown scenario
    name warns once and injects nothing (never corrupt data in a way
    the operator did not spell correctly).
    """
    name = os.environ.get("REPRO_FAULTS_SCENARIO", "").strip()
    if not name:
        return None
    severity = _env_float("REPRO_FAULTS_SEVERITY", 1.0)
    seed = _env_int("REPRO_FAULTS_SEED", 0)
    try:
        return preset_scenario(name, severity=severity, seed=seed)
    except ValueError as error:
        _warn_once("REPRO_FAULTS_SCENARIO", f"ignoring REPRO_FAULTS_SCENARIO: {error}")
        return None


def active_scenario() -> FaultScenario | None:
    """The scenario renders should apply, or ``None``.

    The programmatic override (see :func:`set_fault_scenario` /
    :func:`injected`) wins over the environment; either way the layer
    must be enabled for a scenario to be active.
    """
    if not faults_enabled():
        return None
    if _SCENARIO_OVERRIDE is not None:
        return _SCENARIO_OVERRIDE
    return scenario_from_env()


@contextmanager
def injected(scenario: FaultScenario | None = None):
    """Scoped fault injection: enable the layer and set the scenario.

    ``injected(None)`` enables the layer without a scenario (captures
    untouched).  Previous state is restored on exit, matching
    :func:`repro.obs.control.observed`.
    """
    previous_enabled = _ENABLED
    previous_scenario = _SCENARIO_OVERRIDE
    set_faults_enabled(True)
    set_fault_scenario(scenario)
    try:
        yield
    finally:
        set_faults_enabled(previous_enabled)
        set_fault_scenario(previous_scenario)

"""Fault injection for the HeadTalk runtime.

``repro.faults`` makes the degraded-hardware regime a first-class,
testable input instead of an outage:

- :mod:`repro.faults.models` — deterministic per-channel fault models
  (dead channel, dropouts, gain drift, clock skew, clipping, burst
  noise);
- :mod:`repro.faults.scenario` — seeded :class:`FaultScenario` bundles
  whose corruption is a pure function of ``(scenario, capture)`` —
  byte-identical in any process and order — plus severity-scaled
  presets;
- :mod:`repro.faults.control` — the ``REPRO_FAULTS`` master switch and
  scenario env plumbing, mirroring :mod:`repro.obs.control`.

The consumers live in :mod:`repro.core.preprocessing` (channel-health
screening), :mod:`repro.core.pipeline` (fail-closed degraded
decisions) and :mod:`repro.runtime.batch` (post-render corruption).
See ``docs/ROBUSTNESS.md``.
"""

from .control import (
    active_scenario,
    faults_enabled,
    injected,
    scenario_from_env,
    set_fault_scenario,
    set_faults_enabled,
)
from .models import (
    BurstNoise,
    ChannelDropout,
    Clipping,
    ClockSkew,
    DeadChannel,
    Fault,
    GainDrift,
)
from .scenario import (
    FaultScenario,
    PRESET_NAMES,
    apply_faults,
    capture_fault_key,
    preset_scenario,
)

__all__ = [
    "BurstNoise",
    "ChannelDropout",
    "Clipping",
    "ClockSkew",
    "DeadChannel",
    "Fault",
    "FaultScenario",
    "GainDrift",
    "PRESET_NAMES",
    "active_scenario",
    "apply_faults",
    "capture_fault_key",
    "faults_enabled",
    "injected",
    "preset_scenario",
    "scenario_from_env",
    "set_fault_scenario",
    "set_faults_enabled",
]

"""Fault injection for the HeadTalk runtime.

``repro.faults`` makes the degraded-hardware regime a first-class,
testable input instead of an outage:

- :mod:`repro.faults.models` — deterministic per-channel fault models
  (dead channel, dropouts, gain drift, clock skew, clipping, burst
  noise);
- :mod:`repro.faults.scenario` — seeded :class:`FaultScenario` bundles
  whose corruption is a pure function of ``(scenario, capture)`` —
  byte-identical in any process and order — plus severity-scaled
  presets, and the content key and keyed random stream
  (:func:`content_key`, :func:`keyed_rng`) that :mod:`repro.attacks`
  draws from too.

A caller corrupts a rendered capture explicitly, ``scenario.apply(capture)``
(E28, :mod:`repro.experiments.exp_fault_tolerance`, does so at each
severity).  The consumers live in :mod:`repro.core.preprocessing`
(channel-health screening) and :mod:`repro.core.pipeline` (fail-closed
degraded decisions).  See ``docs/ROBUSTNESS.md``.
"""

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
    content_key,
    keyed_rng,
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
    "content_key",
    "keyed_rng",
    "preset_scenario",
]

"""Fault scenarios: seeded, deterministic bundles of channel faults.

A :class:`FaultScenario` names a set of fault models and a seed.  The
random stream used to corrupt a capture is derived from the scenario
seed **and the capture's own content** (a blake2b digest of its sample
bytes), so injection is a pure function of ``(scenario, capture)``:

- re-running the same scenario over the same captures reproduces the
  corruption bit for bit;
- captures corrupt identically on any thread and in any order — there
  is no shared stream to race on;
- two different captures in one batch get independent corruption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..acoustics.propagation import Capture
from ..obs.control import obs_enabled
from ..obs.metrics import counter_inc
from .models import (
    BurstNoise,
    ChannelDropout,
    Clipping,
    ClockSkew,
    DeadChannel,
    Fault,
    GainDrift,
)

__all__ = [
    "FaultScenario",
    "PRESET_NAMES",
    "content_key",
    "keyed_rng",
    "preset_scenario",
]


def content_key(samples: np.ndarray, sample_rate: int) -> str:
    """Content digest anchoring a random stream to a sample array.

    blake2b-128 of the float64 sample bytes, the shape and the rate.  It
    keys a capture's fault stream and an attack recording's stream
    (:mod:`repro.attacks.models`): same samples, same stream, whatever
    thread renders them.
    """
    x = np.ascontiguousarray(np.asarray(samples, dtype=float))
    digest = hashlib.blake2b(digest_size=16)
    digest.update(x.tobytes())
    digest.update(str(x.shape).encode())
    digest.update(str(sample_rate).encode())
    return digest.hexdigest()


def keyed_rng(seed: int, name: str, key: str) -> np.random.Generator:
    """Generator derived from a seed, a scenario or attack name and a content key."""
    material = hashlib.blake2b(digest_size=8)
    material.update(str(seed).encode())
    material.update(name.encode())
    material.update(key.encode())
    return np.random.default_rng(int.from_bytes(material.digest(), "little"))


@dataclass(frozen=True)
class FaultScenario:
    """A named, seeded bundle of faults applied to every capture."""

    name: str
    faults: tuple[Fault, ...]
    seed: int = 0

    def apply(self, capture: Capture, key: str | None = None) -> Capture:
        """Corrupted copy of one capture (the capture itself is untouched).

        ``key`` defaults to the :func:`content_key` of the clean
        capture; pass an explicit key to decouple the stream from the
        content (e.g. a dataset utterance id).
        """
        if not self.faults:
            return capture
        if key is None:
            key = content_key(capture.channels, capture.sample_rate)
        rng = keyed_rng(self.seed, self.name, key)
        channels = np.asarray(capture.channels, dtype=float)
        for fault in self.faults:
            channels = fault.apply(channels, capture.sample_rate, rng)
        if obs_enabled():
            counter_inc("faults.captures_corrupted", scenario=self.name)
            for fault in self.faults:
                counter_inc("faults.applied", kind=type(fault).__name__)
        return Capture(channels=channels, sample_rate=capture.sample_rate)


def _clamped(severity: float) -> float:
    if not np.isfinite(severity) or severity < 0.0:
        raise ValueError(f"severity must be a finite value >= 0, got {severity}")
    return float(severity)


def preset_scenario(name: str, severity: float = 1.0, seed: int = 0) -> FaultScenario:
    """A named scenario with every knob scaled by ``severity``.

    ``severity`` is an open-ended multiplier (0 disables the effect
    entirely where meaningful, 1 is the nominal fault, larger is
    harsher).  Presets:

    - ``dead-channel`` — channel 0 dead (severity scales the residual
      noise floor down: harsher = deader);
    - ``dropouts`` — intermittent dropouts on channel 0, burst rate and
      length scaled by severity;
    - ``gain-drift`` — channel 0 gain ramping to ``-6 * severity`` dB;
    - ``clock-skew`` — channel 0 clock off by ``200 * severity`` ppm;
    - ``clipping`` — all channels clipped at a rail that drops with
      severity (1.0 → half the peak);
    - ``burst-noise`` — interference bursts whose in-burst SNR falls
      with severity;
    - ``kitchen-sink`` — one dead channel plus dropouts, drift and
      clipping: the worst plausible single-device day.
    """
    s = _clamped(severity)
    key = name.strip().lower()
    if key == "dead-channel":
        faults: tuple[Fault, ...] = (DeadChannel(channel=0, noise_floor=0.0),)
    elif key == "dropouts":
        faults = (
            ChannelDropout(channel=0, rate_hz=2.0 * s, mean_ms=40.0 * s, depth=1.0),
        )
    elif key == "gain-drift":
        faults = (GainDrift(channel=0, start_db=0.0, end_db=-6.0 * s),)
    elif key == "clock-skew":
        faults = (ClockSkew(channel=0, ppm=200.0 * s),)
    elif key == "clipping":
        faults = (Clipping(level=1.0 / (1.0 + s), bits=None),)
    elif key == "burst-noise":
        faults = (BurstNoise(snr_db=12.0 - 12.0 * s, rate_hz=3.0 * s, mean_ms=30.0),)
    elif key == "kitchen-sink":
        faults = (
            DeadChannel(channel=0),
            ChannelDropout(channel=1, rate_hz=2.0 * s, mean_ms=40.0 * s),
            GainDrift(channel=2, end_db=-6.0 * s),
            Clipping(level=1.0 / (1.0 + 0.5 * s)),
        )
    else:
        raise ValueError(
            f"unknown fault scenario {name!r}; expected one of {sorted(PRESET_NAMES)}"
        )
    return FaultScenario(name=f"{key}@{s:g}", faults=faults, seed=seed)


PRESET_NAMES = frozenset(
    {
        "dead-channel",
        "dropouts",
        "gain-drift",
        "clock-skew",
        "clipping",
        "burst-noise",
        "kitchen-sink",
    }
)

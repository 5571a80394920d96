"""City-scale traffic simulation for the serving gateway.

``repro.traffic`` generates deterministic household "days" — seeded
occupants, schedules, TVs, conversations, replay attackers and cleaning
noise across many homes — as a Poisson stream of wake-like events, each
labelled with its ground-truth misactivation source.  Events render to
capture audio through a finite archetype bank (``sources``), and the
``drive`` module replays a whole city through a live gateway so the
decision monitor accumulates per-source FAR/FRR under load.

See ``docs/TRAFFIC.md`` for the scenario model and CLI.
"""

from .city import (
    Household,
    TrafficEvent,
    event_stream_fingerprint,
    generate_city,
    generate_events,
    generate_households,
)
from .config import (
    ATTACK_FAMILY_BY_SOURCE,
    ATTACK_SOURCES,
    DEFAULT_MIX,
    SOURCES,
    TRUTH_BY_SOURCE,
    TrafficConfig,
)
from .sources import BankEntry, CaptureBank, capture_fingerprint

__all__ = [
    "ATTACK_FAMILY_BY_SOURCE",
    "ATTACK_SOURCES",
    "BankEntry",
    "CaptureBank",
    "DEFAULT_MIX",
    "Household",
    "SOURCES",
    "TRUTH_BY_SOURCE",
    "TrafficConfig",
    "TrafficEvent",
    "capture_fingerprint",
    "event_stream_fingerprint",
    "generate_city",
    "generate_events",
    "generate_households",
]

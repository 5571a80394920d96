"""The ladder's workloads: which gate decides, on which audio, in which order.

A workload fixes the gate recipe and the traffic's shape; ``--seed``
picks the traffic itself.  Gates train with the fixed
:data:`GATE_SEED`: the gate is the program under test, not an input.

The soak and city banks are fixed corpora rendered from
:data:`BANK_SEED`, and the seed only orders them.  Their captures
differ up to 5x in decision cost (early exits, 1.6 s noise bursts), so a
seed-rendered 6-capture soak mix moves the mean cost per utterance by
+-15 % between seeds; a fixed corpus played in exact proportions keeps
every run on the same work.  The offline grid's 24 captures cost about
the same each, so it is rendered from the seed itself.  The reason for
each workload is in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from repro.core.liveness import FusedLivenessDetector
from repro.core.pipeline import HeadTalkPipeline
from repro.datasets.collection import DEFAULT_LOCATIONS, CollectionSpec, collect
from repro.serving import soak
from repro.traffic import DEFAULT_MIX, TRUTH_BY_SOURCE, CaptureBank, TrafficConfig

GATE_SEED = 0
BANK_SEED = 1

Item = tuple
"""One utterance to play: ``(bank key, truth, slices)``."""


def tiny_gate() -> HeadTalkPipeline:
    """The soak's TINY-scale gate (its liveness model is a smoke model)."""
    return soak.build_pipeline(GATE_SEED)


def hardened_gate() -> HeadTalkPipeline:
    """The TINY gate behind the fused four-cue liveness decision.

    The traffic drive's gate (``drive.build_pipeline(hardened=True)``)
    decides with the same code, but trains for 20-40 s, which every run
    would pay again in set-up.
    """
    pipeline = tiny_gate()
    return replace(pipeline, liveness=FusedLivenessDetector(base=pipeline.liveness))


def soak_bank(seed: int) -> dict:
    """The soak's 6 captures (facing, side, back at 2 positions); a fixed corpus."""
    return dict(enumerate(soak.build_captures(BANK_SEED)))


def city_bank(seed: int) -> dict:
    """The traffic simulator's ``(room, source, variant)`` archetypes; a fixed corpus."""
    return CaptureBank(TrafficConfig(seed=BANK_SEED)).render(workers=1)


OFFLINE_GRID = CollectionSpec(
    room="lab",
    device="D2",
    wake_word="computer",
    locations=DEFAULT_LOCATIONS,
    angles=(0.0, 15.0, -30.0, 45.0, -60.0, 90.0, -135.0, 180.0),
    repetitions=1,
)
"""3 locations x 8 head angles = 24 captures."""


def offline_bank(seed: int) -> dict:
    """The grid rendered from the seed."""
    return dict(enumerate(capture for _, capture in collect(OFFLINE_GRID, seed, workers=1)))


CITY_DECK = 20
"""Events per city deck: each source plays ``weight * CITY_DECK`` of them."""


@dataclass(frozen=True)
class Workload:
    """One named traffic mix.

    ``loop`` is ``"closed"`` (each connection streams back to back) or
    ``"offline"`` (``evaluate_batch`` calls of ``batch`` captures, no
    gateway).  ``bank`` renders the captures for a seed; with a source
    ``mix`` (a city) they play in its stationary proportions, else each
    equally often.
    """

    name: str
    loop: str
    train: Callable[[], HeadTalkPipeline]
    bank: Callable[[int], dict]
    check_liveness: bool
    chunk_samples: int = 2048
    batch: int = 8
    mix: tuple | None = None

    def sources(self, bank: dict) -> list[tuple[list, int]]:
        """Per source: its bank keys and how many of them one deck plays."""
        keys = sorted(bank)
        if self.mix is None:
            return [(keys, len(keys))]
        return [
            ([key for key in keys if key[1] == source], round(weight * CITY_DECK))
            for source, weight in self.mix
        ]

    def deck(self, bank: dict) -> int:
        """Utterances per deck: the unit of work every measurement rounds to."""
        return sum(count for _, count in self.sources(bank))

    def item(self, key) -> Item:
        """The utterance that plays ``key``, with its truth and slice labels."""
        if self.mix is None:
            return key, None, None
        return key, TRUTH_BY_SOURCE[key[1]], {"source": key[1], "room": key[0]}

    def utterances(self, seed: int, bank: dict) -> Iterator[Item]:
        """The seed's endless play order: one shuffled deck after another.

        Every deck carries each source's exact share, and within a
        source, decks walk a seeded cycle of its captures, so a run's
        mix of work does not depend on the seed; only the order does.
        """
        rng = np.random.default_rng(seed)
        cycles = []
        for keys, count in self.sources(bank):
            order = [keys[k] for k in rng.permutation(len(keys))]
            cycles.append((itertools.cycle(order), count))
        while True:
            deck = [self.item(next(cycle)) for cycle, count in cycles for _ in range(count)]
            for k in rng.permutation(len(deck)):
                yield deck[k]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="soak-closed",
            loop="closed",
            train=tiny_gate,
            bank=soak_bank,
            check_liveness=False,
        ),
        Workload(
            name="city-closed",
            loop="closed",
            train=hardened_gate,
            bank=city_bank,
            check_liveness=True,
            chunk_samples=16384,
            mix=DEFAULT_MIX,
        ),
        Workload(
            name="offline-batch",
            loop="offline",
            train=tiny_gate,
            bank=offline_bank,
            check_liveness=False,
        ),
    )
}

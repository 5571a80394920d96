"""E29 — extension: city-scale traffic quality and serving throughput.

The paper evaluates the gate on curated utterance grids; production is
a *day of traffic* — thousands of wake-like events from households
where most of what trips the wake detector is not a person addressing
the device (TVs, conversations, replay attacks, cleaning noise).  This
sweep generates seeded cities of increasing size with
:mod:`repro.traffic`, replays each one through a live serving gateway
over its TCP protocol (JSON control lines, binary audio frames), and
reports the end-to-end decision quality *per misactivation source*
together with the serving cost:

- ``far_pct`` / ``frr_pct`` — false-accept / false-reject rate within
  one source label (``live-facing`` is the only should-accept source,
  so its column is FRR; every other source's column is FAR);
- ``p50_ms`` / ``p95_ms`` — wire-level decision latency percentiles
  (client-observed, includes streaming);
- ``events_per_sec`` — sustained end-to-end throughput of the run the
  row belongs to.

The ``(all)`` row per city size aggregates every source.  Counts and
latencies come from the client's view of the wire replies, so the
experiment runs with observability off; the drive CLI layers the
monitor/alarm checks on top of the same machinery.
"""

from __future__ import annotations

from ..datasets.catalog import BENCH, Scale
from ..reporting import ExperimentResult


def _household_counts(scale: Scale) -> tuple[int, ...]:
    # TINY-like scales are the unit-test path; keep the cities small
    # enough to finish inside a test budget.
    if len(scale.locations) < 2:
        return (2, 4)
    return (25, 50, 100)


def run(
    scale: Scale = BENCH,
    seed: int = 0,
    households: tuple[int, ...] | None = None,
    rate_per_household: float = 12.0,
    variants: int = 2,
) -> ExperimentResult:
    """Per-source FAR/FRR and latency percentiles vs. city size."""
    # Imported here: repro.traffic.drive itself trains via experiments
    # helpers, so a module-level import would be circular.
    from ..traffic.city import generate_city
    from ..traffic.config import TrafficConfig
    from ..traffic.drive import build_pipeline, run_city_sync, summary_from_stats
    from ..traffic.sources import CaptureBank

    counts = _household_counts(scale) if households is None else tuple(households)
    pipeline = build_pipeline(seed)
    # The bank depends on (seed, variants, rooms) only, so every city
    # size replays the same rendered archetypes — the sweep varies the
    # traffic, not the acoustics.
    base = TrafficConfig(
        households=max(counts),
        seed=seed,
        rate_per_household=rate_per_household,
        variants=variants,
    )
    bank = CaptureBank(base)
    bank.render()

    rows = []
    last_summary: dict = {}
    for count in counts:
        config = TrafficConfig(
            households=count,
            seed=seed,
            rate_per_household=rate_per_household,
            variants=variants,
        )
        _, events = generate_city(config)
        stats = run_city_sync(pipeline, bank, events)
        summary = summary_from_stats(stats)
        last_summary = summary
        rows.append(
            {
                "households": count,
                "source": "(all)",
                "events": summary["decisions"],
                "far_pct": 100.0 * _overall_rate(stats, positive=False),
                "frr_pct": 100.0 * _overall_rate(stats, positive=True),
                "p50_ms": summary["p50_ms"],
                "p95_ms": summary["p95_ms"],
                "events_per_sec": summary["events_per_sec"],
            }
        )
        for source, entry in sorted(summary["sources"].items()):
            rows.append(
                {
                    "households": count,
                    "source": source,
                    "events": entry["n"],
                    "far_pct": 100.0 * entry["far"],
                    "frr_pct": 100.0 * entry["frr"],
                    "p50_ms": entry["p50_ms"],
                    "p95_ms": entry["p95_ms"],
                    "events_per_sec": summary["events_per_sec"],
                }
            )

    return ExperimentResult(
        experiment_id="E29",
        title="Traffic: per-source decision quality and throughput vs. city size",
        headers=[
            "households",
            "source",
            "events",
            "far_pct",
            "frr_pct",
            "p50_ms",
            "p95_ms",
            "events_per_sec",
        ],
        rows=rows,
        paper=(
            "extension beyond the paper: the curated-grid FAR/FRR story must "
            "survive a production-shaped traffic mix where most wake-like "
            "events are loudspeakers, conversations and noise"
        ),
        summary={
            "household_counts": list(counts),
            "events_per_sec": last_summary.get("events_per_sec", 0.0),
            "p95_ms": last_summary.get("p95_ms", 0.0),
            "sources": {
                source: {
                    "far": entry["far"],
                    "frr": entry["frr"],
                    "n": entry["n"],
                }
                for source, entry in sorted(last_summary.get("sources", {}).items())
            },
        },
    )


def _overall_rate(stats: dict, positive: bool) -> float:
    """Aggregate FRR (``positive=True``) or FAR over every source tally."""
    hits = misses = 0
    for tally in stats["per_source"].values():
        if positive:
            misses += tally["fn"]
            hits += tally["tp"]
        else:
            misses += tally["fp"]
            hits += tally["tn"]
    total = hits + misses
    return misses / total if total else 0.0

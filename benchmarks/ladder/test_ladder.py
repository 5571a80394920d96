"""Smoke test of the ladder at toy size.

Run explicitly (the tier-1 suite collects only ``tests/``)::

    PYTHONPATH=src:. python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.datasets.collection import collect
from repro.obs.bench import validate
from repro.traffic import CaptureBank, TrafficConfig

from benchmarks.ladder import harness
from benchmarks.ladder.workloads import BANK_SEED, OFFLINE_GRID, WORKLOADS


def _toy_city_bank(seed):
    """One variant per (room, source): 12 archetypes."""
    return CaptureBank(TrafficConfig(seed=BANK_SEED, variants=1)).render(workers=1)


def _toy_grid_bank(seed):
    """A facing and a back capture at 1 m."""
    grid = dataclasses.replace(
        OFFLINE_GRID, locations=((1.0, 0.0),), angles=(0.0, 180.0), repetitions=1
    )
    return dict(enumerate(capture for _, capture in collect(grid, seed, workers=1)))


TOY = {
    "soak-closed": (WORKLOADS["soak-closed"], 6),
    "city-closed": (
        dataclasses.replace(
            WORKLOADS["city-closed"],
            bank=_toy_city_bank,
            mix=(("live-facing", 0.1), ("replay", 0.05), ("noise", 0.05)),
        ),
        4,
    ),
    "offline-batch": (
        dataclasses.replace(WORKLOADS["offline-batch"], bank=_toy_grid_bank, batch=2),
        2,
    ),
}
"""Toy variants and the utterances in one deck of each.

Run for a hundredth of a second, every phase plays exactly one deck."""

TOY_SECONDS = 0.01


def _declared(trace: bool) -> list[str]:
    section = "per_layer" if trace else "end_to_end"
    return [entry["name"] for entry in harness.BENCHMARK[section]]


def _load(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_declares_every_workload():
    assert sorted(w["name"] for w in harness.BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "trace"])
@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_run_emits_declared_metrics(name, trace, tmp_path):
    workload, deck = TOY[name]
    summary, code = harness.run(
        workload, seed=3, seconds=TOY_SECONDS, trace=trace, out=str(tmp_path)
    )
    assert code == 0 and summary["correct"]
    assert summary["failed"] == 0 and summary["attempted"] == deck * (2 if trace else 1)
    assert list(summary["metrics"]) == _declared(trace)
    suffix = "-trace" if trace else ""
    report = _load(tmp_path / f"{name}-seed3{suffix}.json")
    assert validate(report) == []
    assert report["metrics"]["ladder.correct"]["value"] is True
    if trace:
        spans = _load(tmp_path / f"trace_{name}.json")
        assert spans["spans"] and spans["fields"][0] == "name"
    else:
        assert all(metric["value"] > 0 for metric in summary["metrics"].values())


def test_tampered_expected_fingerprint_fails_the_run(tmp_path, monkeypatch):
    honest = harness.expected_fingerprints

    def tampered(pipeline, bank, check_liveness):
        expected = honest(pipeline, bank, check_liveness)
        return {key: [not fp[0], *fp[1:]] for key, fp in expected.items()}

    monkeypatch.setattr(harness, "expected_fingerprints", tampered)
    workload, _ = TOY["soak-closed"]
    summary, code = harness.run(
        workload, seed=3, seconds=TOY_SECONDS, trace=False, out=str(tmp_path)
    )
    assert code != 0 and not summary["correct"]
    assert summary["failed"] == summary["attempted"] > 0
    report = _load(tmp_path / "soak-closed-seed3.json")
    assert validate(report) == []
    assert report["metrics"]["ladder.correct"]["value"] is False
    assert report["env"]["failures"] == ["fingerprint"]


def test_compare_verdicts():
    assert harness.verdict([100, 101, 102, 103], [100, 101, 102, 103], "lower", 0.1) == "ok"
    assert harness.verdict([100, 101, 102, 103], [130, 131, 132, 133], "lower", 0.1) == "regressed"
    assert harness.verdict([100, 101, 102, 103], [80, 81, 82, 83], "higher", 0.1) == "regressed"
    assert harness.verdict([50, 100, 150, 200], [50, 100, 150, 200], "lower", 0.1) == "unresolved"
    assert harness.verdict([50, 100, 150, 200], [10, 11, 12, 13], "lower", 0.1) == "ok"


def test_compare_reads_run_directories(tmp_path, capsys):
    workload, _ = TOY["soak-closed"]
    for side in ("a", "b"):
        harness.run(workload, seed=3, seconds=TOY_SECONDS, trace=False, out=str(tmp_path / side))
    assert harness.compare(str(tmp_path / "a"), str(tmp_path / "b")) in (0, 1)
    printed = capsys.readouterr().out
    for name in _declared(False):
        assert f"soak-closed    {name}" in printed

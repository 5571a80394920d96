"""The committed gate baselines hold their own CI gate.

Every ``benchmarks/baselines/BENCH_*.json`` and ``QUALITY_*.json`` is
gated through the same CLI entry point and ``--max-regress`` as its CI
step: it must validate, pass against itself, and fail once any one
gated metric is planted beyond the threshold or any equivalence bit is
flipped.  A new baseline without a threshold here fails until one is
added.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import bench, monitor

REPO = Path(__file__).resolve().parents[2]
BASELINES = REPO / "benchmarks" / "baselines"

# The --max-regress of each gate step in .github/workflows/ci.yml.
BENCH_THRESHOLDS = {"serving": 400.0, "attacks": 50.0, "runtime": 200.0, "decision": 200.0}
QUALITY_THRESHOLD = 10.0


def _write(path, document) -> str:
    path.write_text(json.dumps(document))
    return str(path)


@pytest.mark.parametrize("path", sorted(BASELINES.glob("BENCH_*.json")), ids=lambda p: p.stem)
def test_bench_baseline_holds_its_gate(path, tmp_path):
    threshold = BENCH_THRESHOLDS[path.stem.removeprefix("BENCH_")]
    gate = ["--max-regress", f"{threshold:g}"]
    document = json.loads(path.read_text())
    assert bench.main(["--validate", str(path)]) == 0
    assert bench.main(["--compare", str(path), str(path), *gate]) == 0

    # A relative bound gates only a positive baseline.
    gated = [
        name
        for name, metric in document["metrics"].items()
        if metric["kind"] not in ("equivalence", "info")
        and metric["gate"]
        and metric["direction"] != "none"
        and metric["value"] > 0
    ]
    assert gated
    allowance = 1.0 + threshold / 100.0
    for name in gated:
        planted = copy.deepcopy(document)
        metric = planted["metrics"][name]
        if metric["direction"] == "lower":
            metric["value"] *= 2 * allowance
        else:
            metric["value"] /= 2 * allowance
        current = _write(tmp_path / "planted.json", planted)
        assert bench.main(["--compare", str(path), current, *gate]) == 1, name

    equivalences = [
        name for name, metric in document["metrics"].items() if metric["kind"] == "equivalence"
    ]
    assert equivalences
    for name in equivalences:
        flipped = copy.deepcopy(document)
        value = flipped["metrics"][name]["value"]
        flipped["metrics"][name]["value"] = (not value) if isinstance(value, bool) else value + 1
        current = _write(tmp_path / "flipped.json", flipped)
        assert bench.main(["--compare", str(path), current, *gate]) == 1, name


@pytest.mark.parametrize("path", sorted(BASELINES.glob("QUALITY_*.json")), ids=lambda p: p.stem)
def test_quality_baseline_holds_its_gate(path, tmp_path):
    gate = ["--max-regress", f"{QUALITY_THRESHOLD:g}"]
    document = json.loads(path.read_text())
    assert monitor.main(["validate", str(path)]) == 0
    assert monitor.main(["compare", str(path), str(path), *gate]) == 0

    gated = [("overall", "far"), ("overall", "frr"), ("calibration", "ece")] + [
        ("sources", label, rate) for label in sorted(document["sources"]) for rate in ("far", "frr")
    ]
    for *parents, leaf in gated:
        planted = copy.deepcopy(document)
        section = planted
        for key in parents:
            section = section[key]
        section[leaf] += 2 * QUALITY_THRESHOLD / 100.0
        current = _write(tmp_path / "planted.json", planted)
        assert monitor.main(["compare", str(path), current, *gate]) == 1, (*parents, leaf)


@pytest.mark.parametrize(
    "argv",
    [
        ("repro.obs.bench", "--validate", "BENCH_runtime.json"),
        ("repro.obs.monitor", "validate", "QUALITY_gate.json"),
    ],
    ids=["bench", "monitor"],
)
def test_gate_cli_module_graph_is_clean(argv):
    # ``import repro.obs`` must not import the module ``-m`` is about to
    # run, or runpy warns that it was already in sys.modules.
    module, command, baseline = argv
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module, command]
        + [str(BASELINES / baseline)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

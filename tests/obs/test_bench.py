"""Bench reports: schema validation, comparator semantics, CLI exit codes."""

import json

import pytest

from repro.obs import bench
from repro.obs.bench import BenchReport, compare, validate


def _report(**metric_overrides):
    """A minimal valid report; keyword args override metric values."""
    report = BenchReport("runtime", env={"cpu_count": 1}, created=1000.0)
    report.add_metric("stage.latency_ms", 10.0, unit="ms")
    report.add_metric("render.speedup", 4.0, kind="ratio", direction="higher")
    report.add_metric("render.equal", True, kind="equivalence")
    report.add_metric("render.note", "single-core", kind="info")
    document = report.to_dict()
    for name, value in metric_overrides.items():
        document["metrics"][name]["value"] = value
    return document


class TestValidate:
    def test_valid_report(self):
        assert validate(_report()) == []

    def test_wrong_schema(self):
        document = _report()
        document["schema"] = "repro.obs.bench/0"
        assert any("schema" in problem for problem in validate(document))

    def test_missing_metrics(self):
        document = _report()
        document["metrics"] = {}
        assert any("metrics" in problem for problem in validate(document))

    def test_non_numeric_gated_value(self):
        document = _report()
        document["metrics"]["stage.latency_ms"]["value"] = "fast"
        assert any("numeric" in problem for problem in validate(document))

    def test_not_an_object(self):
        assert validate([1, 2]) == ["document is not a JSON object"]


class TestAddMetric:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            BenchReport("x").add_metric("m", 1.0, kind="latency")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            BenchReport("x").add_metric("m", 1.0, direction="up")

    def test_equivalence_always_gated_direction_free(self):
        report = BenchReport("x")
        report.add_metric("m", True, kind="equivalence", direction="lower", gate=False)
        assert report.metrics["m"] == {
            "value": True,
            "kind": "equivalence",
            "unit": "",
            "direction": "none",
            "gate": True,
        }

    def test_info_never_gated(self):
        report = BenchReport("x")
        report.add_metric("m", "text", kind="info", gate=True)
        assert report.metrics["m"]["gate"] is False

    def test_write_refuses_invalid(self, tmp_path):
        report = BenchReport("x")  # no metrics -> invalid
        with pytest.raises(ValueError, match="invalid report"):
            report.write(tmp_path / "bad.json")

    def test_from_dict_is_independent(self):
        document = _report()
        rebuilt = BenchReport.from_dict(document)
        rebuilt.metrics["stage.latency_ms"]["value"] = 999.0
        assert document["metrics"]["stage.latency_ms"]["value"] == 10.0


class TestCompare:
    def test_identical_reports_pass(self):
        outcome = compare(_report(), _report())
        assert outcome.passed
        assert {row["status"] for row in outcome.rows} <= {"ok", "info"}

    def test_regression_within_threshold_passes(self):
        outcome = compare(_report(), _report(**{"stage.latency_ms": 12.0}), 25.0)
        assert outcome.passed

    def test_regression_beyond_threshold_fails(self):
        outcome = compare(_report(), _report(**{"stage.latency_ms": 13.0}), 25.0)
        assert not outcome.passed
        assert "stage.latency_ms" in outcome.failures[0]

    def test_improvement_always_passes(self):
        outcome = compare(_report(), _report(**{"stage.latency_ms": 1.0}), 0.0)
        assert outcome.passed

    def test_higher_is_better_direction(self):
        assert compare(_report(), _report(**{"render.speedup": 3.5}), 25.0).passed
        outcome = compare(_report(), _report(**{"render.speedup": 2.0}), 25.0)
        assert not outcome.passed

    def test_equivalence_strict_at_any_threshold(self):
        outcome = compare(_report(), _report(**{"render.equal": False}), 1e9)
        assert not outcome.passed
        assert "equivalence" in outcome.failures[0]

    def test_info_metric_never_fails(self):
        outcome = compare(_report(), _report(**{"render.note": "different"}))
        assert outcome.passed

    def test_missing_metric_fails(self):
        current = _report()
        del current["metrics"]["stage.latency_ms"]
        outcome = compare(_report(), current)
        assert not outcome.passed
        assert "missing" in outcome.failures[0]

    def test_new_metric_is_reported_not_gated(self):
        current = _report()
        current["metrics"]["brand.new"] = {
            "value": 1.0,
            "kind": "count",
            "unit": "",
            "direction": "lower",
            "gate": True,
        }
        outcome = compare(_report(), current)
        assert outcome.passed
        assert any(row["status"] == "new" for row in outcome.rows)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare(_report(), _report(), -1.0)


class TestCli:
    def _write(self, path, document):
        path.write_text(json.dumps(document))
        return str(path)

    def test_compare_pass_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _report())
        cur = self._write(tmp_path / "cur.json", _report())
        assert bench.main(["--compare", base, cur]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_compare_fail_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _report())
        cur = self._write(tmp_path / "cur.json", _report(**{"stage.latency_ms": 100.0}))
        assert bench.main(["--compare", base, cur, "--max-regress", "25"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_max_regress_widens_the_gate(self, tmp_path):
        base = self._write(tmp_path / "base.json", _report())
        cur = self._write(tmp_path / "cur.json", _report(**{"stage.latency_ms": 20.0}))
        assert bench.main(["--compare", base, cur, "--max-regress", "25"]) == 1
        assert bench.main(["--compare", base, cur, "--max-regress", "150"]) == 0

    def test_invalid_report_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _report())
        bad = self._write(tmp_path / "bad.json", {"schema": "nope"})
        assert bench.main(["--compare", base, bad]) == 1
        assert "schema" in capsys.readouterr().err

    def test_negative_max_regress_is_usage_error(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _report())
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--compare", base, base, "--max-regress", "-5"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unreadable_file_exits_one(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _report())
        assert bench.main(["--compare", base, str(tmp_path / "missing.json")]) == 1
        capsys.readouterr()

    def test_validate_good_report(self, tmp_path, capsys):
        path = self._write(tmp_path / "report.json", _report())
        assert bench.main(["--validate", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad_report(self, tmp_path, capsys):
        path = self._write(tmp_path / "report.json", {"schema": "nope"})
        assert bench.main(["--validate", path]) == 1
        capsys.readouterr()

    def test_no_arguments_is_usage_error(self, capsys):
        assert bench.main([]) == 2
        capsys.readouterr()

"""Decision-quality monitor: slices, drift detectors, replay, CLI gate.

The drift tests replay seeded synthetic score streams through the
monitor — stationary streams must stay silent, a sustained 0.5σ shift
must trip PSI, KS and Page–Hinkley.  FAR/FRR/ECE parity tests recompute
the streamed numbers offline with :mod:`repro.ml.metrics` /
:mod:`repro.ml.calibration` and demand exact agreement (that identity is
what makes replayed quality reports trustworthy).
"""

import json
import random
import warnings

import numpy as np
import pytest

from repro.acoustics import Capture
from repro.core import HeadTalkConfig, HeadTalkPipeline
from repro.ml.calibration import brier_score, expected_calibration_error
from repro.ml.metrics import false_acceptance_rate, false_rejection_rate
from repro.obs import REGISTRY, audit_log, configure_audit, set_obs_enabled
from repro.obs import control as obs_control
from repro.obs.bench import format_comparison
from repro.obs.monitor import (
    DecisionMonitor,
    MonitorConfig,
    PageHinkley,
    StreamingConfusion,
    bucket_label,
    compare,
    decision_monitor,
    ks_statistic,
    monitor_record,
    monitor_snapshot,
    population_stability_index,
    quality_path,
    quality_report,
    replay,
    slices_from_meta,
    validate,
    write_quality_report,
)
from repro.obs.monitor import main as monitor_main


def decision_record(
    accepted=True,
    reason="accepted",
    liveness_score=0.9,
    facing_probability=0.8,
    truth=None,
    slices=None,
):
    """A synthetic pipeline decision audit record."""
    record = {
        "accepted": accepted,
        "reason": reason,
        "liveness_score": liveness_score,
        "facing_probability": facing_probability,
        "liveness_ms": 1.0,
        "orientation_ms": 2.0,
    }
    if truth is not None:
        record["truth"] = truth
    if slices is not None:
        record["slices"] = slices
    return record


def stream_records(seed, n=1500, shift_sigma=0.0, shift_at=400):
    """Seeded accepted-decision stream; optional sustained mean shift.

    The facing stream has σ = 0.05 and the liveness stream σ = 0.01, so
    ``shift_sigma`` scales each stream's own standard deviation.
    """
    rng = random.Random(seed)
    records = []
    for i in range(n):
        facing_shift = shift_sigma * 0.05 if i >= shift_at else 0.0
        liveness_shift = shift_sigma * 0.01 if i >= shift_at else 0.0
        records.append(
            decision_record(
                liveness_score=0.9 + liveness_shift + rng.gauss(0, 0.01),
                facing_probability=0.7 + facing_shift + rng.gauss(0, 0.05),
            )
        )
    return records


class TestBucketing:
    def test_bucket_labels(self):
        edges = (45.0, 90.0, 135.0)
        assert bucket_label(10, edges) == "<45"
        assert bucket_label(45, edges) == "45-90"
        assert bucket_label(100.5, edges) == "90-135"
        assert bucket_label(135, edges) == ">=135"
        assert bucket_label(2.5, (2.0, 4.0)) == "2-4"

    def test_slices_from_meta(self):
        meta = {
            "angle_deg": -100.0,  # bucketed by magnitude
            "distance_m": 3.0,
            "device": "D2",
            "loudness_db": 60.0,
        }
        slices = slices_from_meta(meta)
        assert slices == {"angle": "90-135", "distance": "2-4", "device": "D2"}

    def test_snr_slice_needs_ambient(self):
        meta = {"loudness_db": 60.0}
        assert slices_from_meta(meta) == {}
        with_snr = slices_from_meta(meta, ambient_db_spl=50.0)
        assert with_snr == {"snr": "5-15"}

    def test_accepts_attribute_objects(self):
        class Meta:
            angle_deg = 0.0
            device = "D1"

        slices = slices_from_meta(Meta())
        assert slices == {"angle": "<45", "device": "D1"}


class TestStreamingConfusion:
    def test_far_frr_match_ml_metrics(self):
        rng = random.Random(7)
        truths = [rng.random() < 0.6 for _ in range(400)]
        accepts = [(t and rng.random() < 0.9) or rng.random() < 0.2 for t in truths]
        confusion = StreamingConfusion()
        for truth, accepted in zip(truths, accepts):
            confusion.update(truth, accepted)
        y_true = np.asarray(truths, dtype=int)
        y_pred = np.asarray(accepts, dtype=int)
        assert confusion.far == false_acceptance_rate(y_true, y_pred)
        assert confusion.frr == false_rejection_rate(y_true, y_pred)
        assert confusion.n == 400

    def test_empty_class_yields_zero(self):
        confusion = StreamingConfusion()
        confusion.update(True, True)
        assert confusion.far == 0.0  # no negatives seen
        assert confusion.frr == 0.0


class TestDriftDetectors:
    def test_psi_zero_on_identical_fractions(self):
        fractions = [0.1] * 10
        assert population_stability_index(fractions, fractions) == pytest.approx(0.0)

    def test_ks_statistic_bounds(self):
        same = list(range(100))
        assert ks_statistic(same, same) == pytest.approx(0.0)
        assert ks_statistic([0.0] * 50, [1.0] * 50) == pytest.approx(1.0)

    def test_page_hinkley_detects_both_directions(self):
        for shift, expected in ((0.5, "up"), (-0.5, "down")):
            detector = PageHinkley(delta=0.05, lamb=2.0, mean=0.0)
            directions = [detector.update(shift) for _ in range(20)]
            fired = [d for d in directions if d is not None]
            assert fired and fired[0] == expected

    def test_page_hinkley_resets_after_alarm(self):
        detector = PageHinkley(delta=0.05, lamb=1.0, mean=0.0)
        while detector.update(1.0) is None:
            pass
        assert detector.statistic == 0.0

    def test_stationary_stream_raises_no_alarms(self):
        for seed in (0, 1):
            monitor = DecisionMonitor(config=MonitorConfig())
            for record in stream_records(seed):
                monitor.consume(record)
            assert monitor.snapshot()["alarms"] == []

    def test_half_sigma_shift_trips_all_detectors(self):
        for seed in (0, 1):
            monitor = DecisionMonitor(config=MonitorConfig())
            for record in stream_records(seed, shift_sigma=0.5):
                monitor.consume(record)
            alarms = monitor.snapshot()["alarms"]
            facing = {a["detector"] for a in alarms if a["stream"] == "facing_probability"}
            assert {"psi", "ks", "page-hinkley"} <= facing
            # The shift is injected per-stream in its own σ, so the
            # untouched-magnitude liveness stream shifts too; no alarm
            # may predate the shift point (reference 200 + window 256).
            assert all(a["count"] > 400 for a in alarms)

    def test_rising_edge_alarms_do_not_repeat(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        for record in stream_records(3, shift_sigma=2.0):
            monitor.consume(record)
        alarms = monitor.snapshot()["alarms"]
        psi_alarms = [
            a for a in alarms if a["stream"] == "facing_probability" and a["detector"] == "psi"
        ]
        # Statistic stays above threshold once the window is fully
        # shifted; the edge logic must still fire exactly once.
        assert len(psi_alarms) == 1

    def test_explicit_reference_freezes_stream(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        rng = random.Random(5)
        monitor.set_reference("facing_probability", [0.7 + rng.gauss(0, 0.05) for _ in range(200)])
        snapshot = monitor.snapshot()["drift"]["facing_probability"]
        assert snapshot["reference_n"] == 200
        assert snapshot["reference_mean"] == pytest.approx(0.7, abs=0.02)


class TestCalibration:
    def test_ece_brier_match_ml_calibration(self):
        rng = random.Random(11)
        monitor = DecisionMonitor(config=MonitorConfig())
        pairs = []
        for _ in range(300):
            probability = min(max(rng.gauss(0.7, 0.15), 0.0), 1.0)
            truth = rng.random() < probability
            pairs.append((probability, 1 if truth else 0))
            monitor.consume(decision_record(facing_probability=probability, truth=truth))
        calibration = monitor.snapshot()["calibration"]
        probabilities = [p for p, _ in pairs]
        truths = [t for _, t in pairs]
        assert calibration["n"] == 300
        assert calibration["ece"] == float(
            expected_calibration_error(truths, probabilities, n_bins=10)
        )
        assert calibration["brier"] == float(brier_score(truths, probabilities))

    def test_rejected_stages_skip_calibration(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        monitor.consume(decision_record(accepted=False, reason="no-speech", truth=False))
        assert monitor.snapshot()["calibration"] is None


class TestSlicedCounters:
    def test_slice_counters_and_stage_slice(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        monitor.consume(decision_record(truth=True, slices={"angle": "<45", "device": "D2"}))
        monitor.consume(
            decision_record(
                accepted=False,
                reason="non-facing",
                facing_probability=0.1,
                truth=True,
                slices={"angle": ">=135", "device": "D2"},
            )
        )
        snapshot = monitor.snapshot()
        assert snapshot["overall"]["n"] == 2
        assert snapshot["overall"]["frr"] == 0.5
        assert snapshot["slices"]["device=D2"]["n"] == 2
        assert snapshot["slices"]["angle=<45"]["frr"] == 0.0
        assert snapshot["slices"]["angle=>=135"]["frr"] == 1.0
        assert snapshot["slices"]["stage=orientation"]["n"] == 2

    def test_unlabelled_records_keep_counts_only(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        monitor.consume(decision_record())
        snapshot = monitor.snapshot()
        assert snapshot["decisions"] == 1
        assert snapshot["labelled"] == 0
        assert snapshot["overall"] is None
        assert snapshot["slices"] == {}
        assert snapshot["sources"] == {}

    def test_source_slices_surface_as_sources_section(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        monitor.consume(
            decision_record(truth=True, slices={"source": "live-facing", "room": "lab"})
        )
        monitor.consume(
            decision_record(truth=False, slices={"source": "loudspeaker", "room": "lab"})
        )
        snapshot = monitor.snapshot()
        assert set(snapshot["sources"]) == {"live-facing", "loudspeaker"}
        # The section mirrors the underlying source=... slices exactly.
        for label, entry in snapshot["sources"].items():
            assert entry == snapshot["slices"][f"source={label}"]
        assert snapshot["sources"]["live-facing"]["frr"] == 0.0
        assert snapshot["sources"]["loudspeaker"]["far"] == 1.0  # accepted a fake


class TestGlobalFeed:
    def test_monitor_record_requires_obs(self):
        monitor_record(decision_record())
        assert monitor_snapshot() == {}

    def test_monitor_record_feeds_global_monitor(self):
        set_obs_enabled(True)
        monitor_record(decision_record(truth=True))
        snapshot = monitor_snapshot()
        assert snapshot["decisions"] == 1
        assert snapshot["overall"]["tp"] == 1

    def test_alarms_land_in_registry_and_audit_log(self):
        set_obs_enabled(True)
        for record in stream_records(0, shift_sigma=2.0):
            monitor_record(record)
        alarms = [r for r in audit_log().records() if r["event"] == "drift-alarm"]
        assert alarms
        assert {"stream", "detector", "statistic", "threshold"} <= set(alarms[0])
        snapshot = REGISTRY.snapshot()
        assert any(name.startswith("monitor.drift_alarms") for name in snapshot)
        assert any(name.startswith("monitor.decisions") for name in snapshot)


class FakeLiveness:
    def scores(self, waveforms, sample_rate):
        return np.full(len(waveforms), 0.9)


class FakeOrientation:
    def facing_probability(self, rows):
        return np.full(rows.shape[0], 0.8)


@pytest.fixture
def fake_pipeline(d2_subset):
    return HeadTalkPipeline(
        array=d2_subset,
        liveness=FakeLiveness(),
        orientation=FakeOrientation(),
        config=HeadTalkConfig(),
    )


@pytest.fixture
def noisy_capture(d2_subset):
    rng = np.random.default_rng(11)
    channels = rng.standard_normal((d2_subset.n_mics, d2_subset.sample_rate // 2))
    return Capture(channels=channels, sample_rate=d2_subset.sample_rate)


class TestPipelineIntegration:
    def test_truth_and_slices_ride_the_audit_record(self, fake_pipeline, noisy_capture):
        set_obs_enabled(True)
        fake_pipeline.evaluate(noisy_capture, truth=True, slices={"device": "D2"})
        (record,) = audit_log().records()
        assert record["truth"] is True
        assert record["slices"] == {"device": "D2"}
        snapshot = monitor_snapshot()
        assert snapshot["labelled"] == 1
        assert snapshot["slices"]["device=D2"]["n"] == 1

    def test_batch_labels_per_capture(self, fake_pipeline, noisy_capture):
        set_obs_enabled(True)
        fake_pipeline.evaluate_batch(
            [noisy_capture, noisy_capture],
            truths=[True, False],
            slices=[{"angle": "<45"}, {"angle": ">=135"}],
        )
        records = audit_log().records()
        assert [r["truth"] for r in records] == [True, False]
        snapshot = monitor_snapshot()
        assert snapshot["overall"]["n"] == 2
        assert snapshot["slices"]["angle=>=135"]["far"] == 1.0

    def test_batch_label_length_mismatch_rejected(self, fake_pipeline, noisy_capture):
        with pytest.raises(ValueError, match="truths"):
            fake_pipeline.evaluate_batch([noisy_capture], truths=[True, False])
        with pytest.raises(ValueError, match="slices"):
            fake_pipeline.evaluate_batch([noisy_capture], slices=[{}, {}])

    def test_disabled_pipeline_leaves_monitor_untouched(self, fake_pipeline, noisy_capture):
        fake_pipeline.evaluate(noisy_capture, truth=True, slices={"device": "D2"})
        assert monitor_snapshot() == {}
        assert decision_monitor().decisions == 0


class TestReplay:
    def test_replay_reconstructs_identical_state(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        live = DecisionMonitor(config=MonitorConfig())
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(stream_records(2, n=700, shift_sigma=1.0)):
                if index % 3 == 0:
                    record["truth"] = True
                    record["slices"] = {"device": "D2"}
                live.consume(record)
                handle.write(json.dumps({"event": "decision", "ts": 1.0, **record}) + "\n")
                # Interleaved non-decision events must be ignored.
                handle.write(json.dumps({"event": "gate", "kind": "uploaded"}) + "\n")
        replayed = replay(path, config=MonitorConfig())
        assert replayed.snapshot() == live.snapshot()

    def test_replay_of_live_audit_sink(self, fake_pipeline, noisy_capture, tmp_path):
        set_obs_enabled(True)
        path = tmp_path / "audit.jsonl"
        configure_audit(path=path)
        for truth in (True, True, False):
            fake_pipeline.evaluate(noisy_capture, truth=truth, slices={"device": "D2"})
        audit_log().flush()
        replayed = replay(path, config=MonitorConfig())
        assert replayed.snapshot() == decision_monitor().snapshot()
        assert replayed.snapshot()["overall"]["far"] == 1.0  # the False label accepted

    def test_replay_skips_corrupt_lines_with_one_warning(self, tmp_path):
        obs_control._WARNED.clear()
        records = stream_records(4, n=50)
        clean = tmp_path / "clean.jsonl"
        dirty = tmp_path / "dirty.jsonl"
        with open(clean, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps({"event": "decision", **record}) + "\n")
        with open(dirty, "w", encoding="utf-8") as handle:
            for index, record in enumerate(records):
                handle.write(json.dumps({"event": "decision", **record}) + "\n")
                if index == 10:
                    handle.write("\n")  # blank lines are not corruption
                    handle.write('{"event": "decision", "accepted": tru\n')  # killed writer
                    handle.write('["not", "an", "object"]\n')
        with pytest.warns(RuntimeWarning, match="skipped 2 corrupt audit line"):
            replayed = replay(dirty, config=MonitorConfig())
        assert replayed.snapshot() == replay(clean, config=MonitorConfig()).snapshot()
        # Replaying the same file again stays silent (warn-once per file).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replay(dirty, config=MonitorConfig())


class TestReports:
    def _snapshot(self):
        monitor = DecisionMonitor(config=MonitorConfig())
        monitor.consume(decision_record(truth=True, slices={"device": "D2"}))
        return monitor.snapshot()

    def test_write_and_validate(self, tmp_path):
        path = write_quality_report("unit", directory=tmp_path, snapshot=self._snapshot())
        assert path == quality_path("unit", tmp_path)
        document = json.loads(path.read_text())
        assert validate(document) == []
        assert document["schema"] == "repro.obs.monitor/1"
        assert document["overall"]["far"] == 0.0

    def test_validate_flags_problems(self):
        document = quality_report("unit", snapshot=self._snapshot())
        document["schema"] = "bogus/9"
        document["decisions"] = -1
        problems = validate(document)
        assert any("schema" in p for p in problems)
        assert any("decisions" in p for p in problems)
        assert validate([]) == ["document is not a JSON object"]

    def test_validate_flags_bad_sources_section(self):
        document = quality_report("unit", snapshot=self._snapshot())
        document["sources"] = {"loudspeaker": {"far": "high"}}
        problems = validate(document)
        assert any("sources.loudspeaker.far" in p for p in problems)
        assert any("sources.loudspeaker.frr" in p for p in problems)
        document["sources"] = {"noise": []}
        assert any("sources['noise']" in p for p in validate(document))
        document["sources"] = "everything"
        assert any(p == "sources must be an object" for p in validate(document))


def _failed(comparison):
    """Metric names of the rows that failed the gate."""
    return [row["metric"] for row in comparison.rows if row["status"] in ("FAIL", "missing")]


class TestCompare:
    def _report(self, far=0.1, frr=0.2, ece=0.05):
        snapshot = DecisionMonitor(config=MonitorConfig()).snapshot()
        snapshot["overall"] = {"far": far, "frr": frr}
        snapshot["calibration"] = {"ece": ece, "brier": 0.1, "n": 10}
        return quality_report("unit", snapshot=snapshot)

    def test_identical_reports_pass(self):
        report = self._report()
        assert compare(report, report).passed

    def test_regression_beyond_tolerance_fails(self):
        comparison = compare(self._report(far=0.1), self._report(far=0.25), 10.0)
        assert not comparison.passed
        assert _failed(comparison) == ["overall.far"]
        assert "FAIL" in format_comparison(comparison, "10 points")

    def test_regression_within_tolerance_passes(self):
        assert compare(self._report(far=0.1), self._report(far=0.15), 10.0).passed

    def test_missing_gated_metric_fails(self):
        current = self._report()
        current["calibration"] = None
        comparison = compare(self._report(), current)
        assert _failed(comparison) == ["calibration.ece"]

    def test_missing_baseline_metric_is_informational(self):
        baseline = self._report()
        baseline["overall"] = None
        assert compare(baseline, self._report()).passed

    def _with_sources(self, loudspeaker_far=0.0):
        report = self._report()
        report["sources"] = {
            "live-facing": {"n": 10, "far": 0.0, "frr": 0.1},
            "loudspeaker": {"n": 10, "far": loudspeaker_far, "frr": 0.0},
        }
        return report

    def test_baseline_sources_are_gated_dynamically(self):
        baseline = self._with_sources(loudspeaker_far=0.05)
        comparison = compare(baseline, self._with_sources(loudspeaker_far=0.30), 10.0)
        assert _failed(comparison) == ["sources.loudspeaker.far"]
        gated = {row["metric"] for row in comparison.rows}
        assert "sources.live-facing.frr" in gated

    def test_source_missing_from_current_report_fails(self):
        current = self._with_sources()
        current["sources"] = {"live-facing": current["sources"]["live-facing"]}
        comparison = compare(self._with_sources(), current)
        assert not comparison.passed
        assert set(_failed(comparison)) == {
            "sources.loudspeaker.far",
            "sources.loudspeaker.frr",
        }

    def test_sources_absent_from_baseline_are_not_gated(self):
        # An old baseline (no sources section) must keep gating cleanly.
        assert compare(self._report(), self._with_sources()).passed


class TestCli:
    def _audit_file(self, tmp_path, shift_sigma=0.0):
        path = tmp_path / "audit.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for record in stream_records(4, n=600, shift_sigma=shift_sigma):
                record["truth"] = True
                handle.write(json.dumps({"event": "decision", **record}) + "\n")
        return path

    def test_replay_writes_report(self, tmp_path, capsys):
        audit = self._audit_file(tmp_path)
        assert monitor_main(["replay", str(audit), "--name", "t", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "QUALITY_t.json").read_text())
        assert validate(report) == []
        assert report["decisions"] == 600
        assert "replayed 600 decisions" in capsys.readouterr().out

    def test_replay_default_name_is_audit_stem(self, tmp_path):
        audit = self._audit_file(tmp_path)
        assert monitor_main(["replay", str(audit), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "QUALITY_audit.json").exists()

    def test_replay_fail_on_alarms(self, tmp_path):
        audit = self._audit_file(tmp_path, shift_sigma=2.0)
        argv = ["replay", str(audit), "--name", "t", "--out", str(tmp_path)]
        assert monitor_main(argv) == 0
        assert monitor_main(argv + ["--fail-on-alarms"]) == 1

    def test_replay_missing_audit_is_usage_error(self, tmp_path):
        assert monitor_main(["replay", str(tmp_path / "nope.jsonl")]) == 2

    def test_compare_gates(self, tmp_path):
        audit = self._audit_file(tmp_path)
        monitor_main(["replay", str(audit), "--name", "base", "--out", str(tmp_path)])
        base = tmp_path / "QUALITY_base.json"
        assert monitor_main(["compare", str(base), str(base), "--max-regress", "0"]) == 0
        regressed = json.loads(base.read_text())
        regressed["overall"]["frr"] += 0.5
        bad = tmp_path / "QUALITY_bad.json"
        bad.write_text(json.dumps(regressed))
        assert monitor_main(["compare", str(base), str(bad), "--max-regress", "10"]) == 1
        assert monitor_main(["compare", str(base), str(tmp_path / "missing.json")]) == 2

    def test_negative_max_regress_is_usage_error(self, tmp_path, capsys):
        audit = self._audit_file(tmp_path)
        monitor_main(["replay", str(audit), "--name", "base", "--out", str(tmp_path)])
        base = str(tmp_path / "QUALITY_base.json")
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            monitor_main(["compare", base, base, "--max-regress", "-5"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_validate_command(self, tmp_path):
        audit = self._audit_file(tmp_path)
        monitor_main(["replay", str(audit), "--name", "v", "--out", str(tmp_path)])
        report = tmp_path / "QUALITY_v.json"
        assert monitor_main(["validate", str(report)]) == 0
        broken = json.loads(report.read_text())
        broken["schema"] = "nope"
        report.write_text(json.dumps(broken))
        assert monitor_main(["validate", str(report)]) == 1
        assert monitor_main(["validate", str(tmp_path / "absent.json")]) == 2


class TestSourceLabels:
    """Adversarial and ordinary ``source=`` labels are plain quality slices."""

    @pytest.mark.parametrize("source", ["attack-eq", "attack-tdoa", "replay"])
    def test_source_label_is_silent(self, monkeypatch, source):
        monkeypatch.setattr(obs_control, "_WARNED", set())
        monitor = DecisionMonitor(config=MonitorConfig())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            monitor.consume(decision_record(truth=False, slices={"source": source}))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert f"source={source}" in monitor.slices

"""Traffic drive: gateway round trip, /quality live scrapes, gates."""

import asyncio
import json

from repro.obs import set_obs_enabled
from repro.obs import monitor as obs_monitor
from repro.obs.live import LiveConfig
from repro.obs.monitor import decision_monitor, monitor_snapshot
from repro.serving import ServingConfig, ServingGateway
from repro.serving.soak import StepClock
from repro.traffic import CaptureBank, TrafficConfig, generate_city
from repro.traffic.drive import (
    TRAFFIC_PSI_THRESHOLD,
    _traffic_monitor_config,
    drive_problems,
    run_city_sync,
    summary_from_stats,
)


def _mini_city(variants=1):
    config = TrafficConfig(
        households=4, seed=0, rate_per_household=12.0, variants=variants, rooms=("lab",)
    )
    bank = CaptureBank(config)
    bank.render(workers=1)
    _, events = generate_city(config)
    return config, bank, events


class TestRunCity:
    def test_round_trip_against_a_live_gateway(self, trained_pipeline):
        set_obs_enabled(True)
        _, bank, events = _mini_city()
        assert len(events) >= 20
        stats = run_city_sync(trained_pipeline, bank, events)

        assert stats["errors"] == 0
        assert stats["decisions"] == len(events)
        # Every wire decision matched its precomputed batch verdict.
        assert stats["fingerprint_mismatches"] == 0

        snapshot = monitor_snapshot()
        assert snapshot["decisions"] == len(events)
        # Server-side per-source confusion equals the client's count of
        # the same wire replies — the whole point of threading
        # truth/slices through the protocol.
        assert drive_problems(stats, snapshot) == []
        for source, entry in snapshot["sources"].items():
            tally = stats["per_source"][source]
            assert entry["n"] == tally["n"]

        summary = summary_from_stats(stats, snapshot)
        assert summary["decisions"] == len(events)
        assert summary["events_per_sec"] > 0
        assert set(summary["sources"]) == set(stats["per_source"])
        assert summary["alarms"] == snapshot["alarms"]

    def test_quality_report_round_trip(self, trained_pipeline, tmp_path):
        set_obs_enabled(True)
        _, bank, events = _mini_city()
        run_city_sync(trained_pipeline, bank, events[:10])
        path = obs_monitor.write_quality_report(
            "traffic-test", directory=tmp_path, snapshot=monitor_snapshot()
        )
        document = json.loads(path.read_text())
        assert obs_monitor.validate(document) == []
        assert document["sources"]
        assert set(document["sources"]) <= {e.source for e in events[:10]}
        # Comparing a report against itself passes the gate, including
        # the dynamically added per-source metrics.
        comparison = obs_monitor.compare(document, document)
        assert comparison.passed
        gated = {row["metric"] for row in comparison.rows}
        for label in document["sources"]:
            assert f"sources.{label}.far" in gated
            assert f"sources.{label}.frr" in gated

    def test_drive_problem_gates(self):
        stats = {
            "events": 5,
            "decisions": 5,
            "errors": 0,
            "fingerprint_mismatches": 0,
            "early_exits": 0,
            "elapsed_s": 1.0,
            "latencies_ms": [1.0] * 5,
            "per_source": {
                "live-facing": {
                    "n": 5, "tp": 5, "fp": 0, "tn": 0, "fn": 0,
                    "latencies_ms": [1.0] * 5,
                }
            },
        }
        snapshot = {
            "sources": {"live-facing": {"tp": 5, "fp": 0, "tn": 0, "fn": 0, "n": 5}},
            "alarms": [],
        }
        assert drive_problems(stats, snapshot, expect_quiet=True) == []
        # --expect-alarms without any alarm names the missing detectors.
        problems = drive_problems(stats, snapshot, expect_alarms=True)
        assert len(problems) == 1
        for detector in ("ks", "page-hinkley", "psi"):
            assert detector in problems[0]
        # A firing alarm breaks --expect-quiet...
        alarmed = dict(snapshot)
        alarmed["alarms"] = [
            {"detector": d, "stream": "liveness_score"}
            for d in ("psi", "ks", "page-hinkley")
        ]
        assert drive_problems(stats, alarmed, expect_quiet=True) != []
        # ...and satisfies --expect-alarms.
        assert drive_problems(stats, alarmed, expect_alarms=True) == []
        # Confusion mismatches and short runs fail regardless.
        assert drive_problems(stats, None, expect_quiet=True) != []
        assert drive_problems(stats, snapshot, min_events=6) != []
        broken = dict(snapshot)
        broken["sources"] = {"live-facing": {"tp": 4, "fp": 1, "tn": 0, "fn": 0}}
        assert drive_problems(stats, broken) != []

    def test_step_clock_exported(self):
        clock = StepClock(10.0)
        assert clock() == 10.0 and clock() == 20.0

    def test_traffic_psi_threshold_is_fixed(self):
        config = _traffic_monitor_config()
        assert config.psi_threshold == TRAFFIC_PSI_THRESHOLD == 0.40


class _StubArray:
    n_mics = 4
    sample_rate = 48_000


class _StubPipeline:
    array = _StubArray()


async def _http_get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.decode("latin-1").split()[1])
    return status, body


def _decision_record(index):
    source = ("live-facing", "loudspeaker")[index % 2]
    accepted = index % 3 == 0
    return {
        "event": "decision",
        "accepted": accepted,
        "reason": "accepted" if accepted else "non-facing",
        "truth": source == "live-facing",
        "slices": {"source": source, "room": "lab"},
        "facing_probability": 0.9 if accepted else 0.2,
        "liveness_score": 0.8,
        "liveness_ms": 1.0,
        "orientation_ms": 1.0,
    }


class TestQualityEndpoint:
    def test_concurrent_scrapes_all_serve_valid_reports(self):
        """/quality stays schema-valid while the monitor is being fed."""

        async def body():
            gateway = ServingGateway(
                _StubPipeline(),
                ServingConfig(port=0, check_liveness=False),
                live_config=LiveConfig(port=0),
            )
            await gateway.start()
            try:
                host, port = gateway.live.address
                monitor = decision_monitor()
                stop = asyncio.Event()

                async def feeder():
                    index = 0
                    while not stop.is_set():
                        monitor.consume(_decision_record(index))
                        index += 1
                        await asyncio.sleep(0)

                feed = asyncio.get_running_loop().create_task(feeder())
                scrape_rounds = await asyncio.gather(
                    *[_scrape_loop(host, port, rounds=5) for _ in range(8)]
                )
                stop.set()
                await feed
            finally:
                await gateway.stop()
            return scrape_rounds

        for documents in asyncio.run(body()):
            for document in documents:
                assert obs_monitor.validate(document) == []
                assert document["name"] == "live"
            final = documents[-1]
            if final["decisions"]:
                assert set(final["sources"]) <= {"live-facing", "loudspeaker"}

    def test_scrape_matches_written_report(self, tmp_path):
        """The endpoint body and QUALITY_*.json carry the same numbers."""

        async def body():
            gateway = ServingGateway(
                _StubPipeline(),
                ServingConfig(port=0, check_liveness=False),
                live_config=LiveConfig(port=0),
            )
            await gateway.start()
            try:
                host, port = gateway.live.address
                monitor = decision_monitor()
                for index in range(40):
                    monitor.consume(_decision_record(index))
                status, payload = await _http_get(host, port, "/quality")
                return status, json.loads(payload)
            finally:
                await gateway.stop()

        status, scraped = asyncio.run(body())
        assert status == 200
        written = json.loads(
            obs_monitor.write_quality_report(
                "scrape", directory=tmp_path, snapshot=monitor_snapshot()
            ).read_text()
        )
        for section in ("decisions", "overall", "sources", "by_reason", "alarms"):
            assert scraped[section] == written[section]


async def _scrape_loop(host, port, rounds):
    documents = []
    for _ in range(rounds):
        status, payload = await _http_get(host, port, "/quality")
        assert status == 200
        documents.append(json.loads(payload))
        await asyncio.sleep(0)
    return documents

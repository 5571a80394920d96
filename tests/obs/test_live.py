"""Live telemetry plane: endpoints, probe, correlation, SLO readiness.

Lightweight endpoint tests drive the sidecar against a stub pipeline
(the HTTP plane never touches the pipeline); the correlation and
overload tests stream real utterances through a trained gateway.
"""

import asyncio
import json
import re
import threading

import pytest

from repro.obs import REGISTRY, audit_log, set_obs_enabled, span_records
from repro.obs import control as obs_control
from repro.obs import live as obs_live
from repro.obs.live import DEFAULT_LIVE_PORT, LiveConfig, render_dashboard
from repro.obs import monitor
from repro.obs.slo import SloRule, reset_slo_monitor, slo_monitor
from repro.serving import ServingConfig, ServingGateway
from repro.serving.replay import close_session, open_session, stream_utterance


class _StubArray:
    n_mics = 4
    sample_rate = 48_000


class _StubPipeline:
    array = _StubArray()


async def http_get(host: str, port: int, path: str, method: str = "GET"):
    """Minimal HTTP/1.1 client over asyncio (the sidecar closes per request)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"{method} {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, body


async def _with_live_gateway(body, *, config=None, live=None, pipeline=None):
    gateway = ServingGateway(
        pipeline or _StubPipeline(),
        config or ServingConfig(port=0, check_liveness=False),
        live_config=live or LiveConfig(port=0),
    )
    await gateway.start()
    try:
        host, port = gateway.live.address
        return await body(gateway, host, port)
    finally:
        await gateway.stop()


class TestEndpoints:
    def test_all_six_routes_serve(self):
        async def body(gateway, host, port):
            out = {}
            for path in obs_live.ROUTES:
                out[path] = await http_get(host, port, path)
            return out

        out = asyncio.run(_with_live_gateway(body))
        for path, (status, headers, _) in out.items():
            assert status == 200, path
        assert out["/metrics"][1]["content-type"].startswith("text/plain; version=0.0.4")
        health = json.loads(out["/healthz"][2])
        assert health["status"] == "ok" and health["sessions"] == 0
        ready = json.loads(out["/readyz"][2])
        assert ready["ready"] is True and ready["admission"]["open"] is True
        assert json.loads(out["/sessions"][2]) == {"sessions": []}
        alarms = json.loads(out["/alarms"][2])
        assert alarms["active"] == [] and alarms["history"] == []
        quality = json.loads(out["/quality"][2])
        assert quality["name"] == "live"
        assert monitor.validate(quality) == []

    def test_metrics_is_valid_prometheus_text(self):
        set_obs_enabled(True)
        REGISTRY.counter("serving.wakes", gated="True").inc(3)
        REGISTRY.gauge("serving.active_sessions").set(2)
        REGISTRY.histogram("serving.decision_ms").observe(12.0)
        REGISTRY.windowed("serving.rps").inc()

        async def body(gateway, host, port):
            return await http_get(host, port, "/metrics")

        status, _, payload = asyncio.run(_with_live_gateway(body))
        assert status == 200
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\n]*")*\})? [^ \n]+$'
        )
        lines = payload.decode().splitlines()
        assert lines, "metrics body is empty"
        for line in lines:
            if line.startswith("# TYPE "):
                assert re.match(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+$", line)
            else:
                assert sample.match(line), f"invalid sample line: {line!r}"
        text = "\n".join(lines)
        assert "serving_wakes_total" in text
        assert "serving_rps_rate" in text

    def test_unknown_route_404_and_non_get_405(self):
        async def body(gateway, host, port):
            return (
                await http_get(host, port, "/nope"),
                await http_get(host, port, "/metrics", method="POST"),
            )

        (status404, _, body404), (status405, _, _) = asyncio.run(_with_live_gateway(body))
        assert status404 == 404
        assert json.loads(body404)["routes"] == list(obs_live.ROUTES)
        assert status405 == 405

    def test_sessions_lists_connected_devices(self):
        async def body(gateway, host, port):
            gw_host, gw_port = gateway.address
            reader, writer, hello = await open_session(gw_host, gw_port)
            try:
                _, _, payload = await http_get(host, port, "/sessions")
            finally:
                await close_session(writer)
            return hello, json.loads(payload)

        hello, listing = asyncio.run(_with_live_gateway(body))
        assert len(listing["sessions"]) == 1
        row = listing["sessions"][0]
        assert row["session"] == hello["session"]
        assert row["streaming"] is False and row["utterances"] == 0
        assert row["ring"]["length"] == 0 and row["ring"]["capacity"] > 0

    def test_probe_writes_load_gauges(self):
        async def body(gateway, host, port):
            await asyncio.sleep(0.25)
            return REGISTRY.snapshot()

        snapshot = asyncio.run(
            _with_live_gateway(body, live=LiveConfig(port=0, probe_interval_s=0.05))
        )
        assert snapshot["live.event_loop_lag_ms"]["type"] == "gauge"
        assert snapshot["serving.open_sessions"]["value"] == 0.0
        assert "serving.ring_occupancy_max" in snapshot
        assert "serving.ring_dropped_samples" in snapshot


class TestOffByDefault:
    def test_no_sidecar_without_opt_in(self, monkeypatch):
        monkeypatch.delenv("REPRO_LIVE", raising=False)

        async def body():
            gateway = ServingGateway(_StubPipeline(), ServingConfig(port=0))
            await gateway.start()
            try:
                await asyncio.sleep(0.1)
                return gateway.live
            finally:
                await gateway.stop()

        assert asyncio.run(body()) is None
        # No probe task ran: the registry saw no load gauges.
        assert REGISTRY.snapshot() == {}

    def test_env_flag_opts_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE", "1")
        monkeypatch.setenv("REPRO_LIVE_PORT", "0")

        async def body():
            gateway = ServingGateway(_StubPipeline(), ServingConfig(port=0))
            await gateway.start()
            try:
                assert gateway.live is not None
                host, port = gateway.live.address
                status, _, _ = await http_get(host, port, "/healthz")
                return status
            finally:
                await gateway.stop()

        assert asyncio.run(body()) == 200


class TestLiveConfig:
    def test_defaults(self, monkeypatch):
        for name in ("REPRO_LIVE_HOST", "REPRO_LIVE_PORT"):
            monkeypatch.delenv(name, raising=False)
        config = LiveConfig.from_env()
        assert config == LiveConfig("127.0.0.1", DEFAULT_LIVE_PORT, 1.0)

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_LIVE_HOST", "0.0.0.0")
        monkeypatch.setenv("REPRO_LIVE_PORT", "9999")
        assert LiveConfig.from_env() == LiveConfig("0.0.0.0", 9999, 1.0)

    def test_malformed_knob_warns_once_and_falls_back(self, monkeypatch):
        monkeypatch.setattr(obs_control, "_WARNED", set())
        monkeypatch.setenv("REPRO_LIVE_PORT", "not-a-port")
        with pytest.warns(RuntimeWarning, match="REPRO_LIVE_PORT"):
            config = LiveConfig.from_env()
        assert config.port == DEFAULT_LIVE_PORT
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert LiveConfig.from_env().port == DEFAULT_LIVE_PORT  # silent now

    @pytest.mark.parametrize("port", [-5, 65536])
    def test_out_of_range_port_rejected(self, port):
        with pytest.raises(ValueError, match="port"):
            LiveConfig(port=port)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_probe_interval_rejected(self, interval):
        with pytest.raises(ValueError, match="probe_interval_s"):
            LiveConfig(probe_interval_s=interval)

    def test_out_of_range_env_port_warns_once_and_keeps_default(self, monkeypatch):
        monkeypatch.setattr(obs_control, "_WARNED", set())
        monkeypatch.setenv("REPRO_LIVE_PORT", "70000")
        with pytest.warns(RuntimeWarning, match="REPRO_LIVE_PORT=70000"):
            config = LiveConfig.from_env()
        assert config.port == DEFAULT_LIVE_PORT


class TestWatch:
    def test_render_dashboard_is_pure_and_complete(self):
        frame = render_dashboard(
            "http://x:1",
            {"status": "ok", "uptime_s": 12.0},
            {
                "ready": False,
                "admission": {"sessions": 2, "max_sessions": 2, "open": False},
            },
            {
                "sessions": [
                    {
                        "session": "s000001",
                        "mode": "headtalk",
                        "streaming": True,
                        "gated": True,
                        "utterance_id": "s000001-u0002",
                        "ring": {"occupancy": 0.42, "dropped": 7},
                    }
                ]
            },
            {
                "active": [
                    {
                        "slo": "serving.latency_p95",
                        "burn_fast": 20.0,
                        "burn_slow": 18.0,
                        "burn_threshold": 1.0,
                    }
                ]
            },
        )
        assert "ready NO" in frame
        assert "sessions 2/2" in frame
        assert "s000001" in frame and "gated" in frame and "s000001-u0002" in frame
        assert " 42.0%" in frame and "dropped=7" in frame
        assert "serving.latency_p95" in frame and "burn fast=20.00" in frame

    def test_render_dashboard_empty_state(self):
        frame = render_dashboard(
            "http://x:1",
            {"status": "ok", "uptime_s": 1.0},
            {"ready": True, "admission": {}},
            {"sessions": []},
            {"active": []},
        )
        assert "(none connected)" in frame and "(none firing)" in frame

    def test_watch_once_against_a_live_gateway(self, capsys):
        started, stop = threading.Event(), threading.Event()
        state = {}

        def server():
            async def run():
                gateway = ServingGateway(
                    _StubPipeline(),
                    ServingConfig(port=0, check_liveness=False),
                    live_config=LiveConfig(port=0),
                )
                await gateway.start()
                state["addr"] = gateway.live.address
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.02)
                await gateway.stop()

            asyncio.run(run())

        thread = threading.Thread(target=server)
        thread.start()
        try:
            assert started.wait(10)
            host, port = state["addr"]
            rc = obs_live.main(["watch", "--once", "--url", f"http://{host}:{port}"])
        finally:
            stop.set()
            thread.join()
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.obs.live" in out and "SESSIONS" in out

    def test_watch_unreachable_is_graceful(self, capsys):
        assert obs_live.main(["watch", "--once", "--url", "http://127.0.0.1:1"]) == 0
        assert "unreachable" in capsys.readouterr().out


GATED = ServingConfig(port=0, check_liveness=False)


class TestCorrelation:
    def test_one_grep_reconstructs_an_utterance(self, trained_pipeline, backward_capture):
        """Acceptance: every audit record and span of a gated utterance
        carries the same correlation id, and the audit log alone
        reconstructs the utterance end to end."""
        set_obs_enabled(True)

        async def body(gateway, host, port):
            gw_host, gw_port = gateway.address
            reader, writer, hello = await open_session(gw_host, gw_port)
            try:
                first = await stream_utterance(reader, writer, backward_capture)
                second = await stream_utterance(reader, writer, backward_capture)
            finally:
                await close_session(writer)
            return hello, first, second

        hello, first, second = asyncio.run(_with_live_gateway(body, pipeline=trained_pipeline))
        uid = first["wake"]["utterance_id"]
        assert uid == f"{hello['session']}-u0001"
        assert first["decision"]["utterance_id"] == uid
        assert second["wake"]["utterance_id"] == f"{hello['session']}-u0002"

        # One grep of the audit log: every stage of utterance 1.
        trace = [r for r in audit_log().records() if r.get("corr") == uid]
        events = [r["event"] for r in trace]
        assert "decision" in events  # pipeline verdict
        assert "gate" in events  # controller application
        assert "serving" in events  # session close-out
        decision = next(r for r in trace if r["event"] == "decision")
        serving = next(r for r in trace if r["event"] == "serving")
        assert decision["accepted"] == first["decision"]["accepted"]
        assert serving["utterance_id"] == uid
        assert "cache" in decision  # render-cache counters ride along
        # Nothing from utterance 2 leaked into utterance 1's trace.
        assert all(r.get("utterance", 1) == 1 for r in trace)

        # Spans carry the same id as a label.
        labelled = [
            record
            for record in span_records()
            if dict(record.labels).get("corr") == uid
        ]
        assert labelled, "no spans carried the correlation id"

    def test_standalone_pipeline_has_no_corr(self, trained_pipeline, backward_capture):
        set_obs_enabled(True)
        trained_pipeline.evaluate(backward_capture, check_liveness=False)
        records = audit_log().records()
        assert records and all("corr" not in r for r in records)


TIGHT_RULES = (
    SloRule(
        "serving.latency_p95",
        budget=0.05,
        threshold_ms=0.0001,  # every real decision is "bad": burn ~ 20
        fast_window_s=5.0,
        slow_window_s=10.0,
        burn_threshold=1.0,
        min_events=2,
    ),
)

HEALTHY_RULES = (
    SloRule(
        "serving.latency_p95",
        budget=0.05,
        threshold_ms=60_000.0,  # no sane decision is an hour late
        fast_window_s=5.0,
        slow_window_s=10.0,
        burn_threshold=1.0,
        min_events=2,
    ),
)


class TestOverloadReadiness:
    def test_overload_trips_burn_alarm_and_readyz(self, trained_pipeline, backward_capture):
        """Acceptance: induced overload (admission saturated + latency SLO
        burn) raises the alarm and flips ``/readyz`` to 503."""
        set_obs_enabled(True)
        reset_slo_monitor(rules=TIGHT_RULES)
        config = ServingConfig(port=0, check_liveness=False, max_sessions=1)

        async def body(gateway, host, port):
            gw_host, gw_port = gateway.address
            reader, writer, hello = await open_session(gw_host, gw_port)
            try:
                for _ in range(3):
                    await stream_utterance(reader, writer, backward_capture)
                # A second device is refused: admission is saturated.
                r2, w2, refused = await open_session(gw_host, gw_port)
                w2.close()
                ready = await http_get(host, port, "/readyz")
                alarms = await http_get(host, port, "/alarms")
            finally:
                await close_session(writer)
            return refused, ready, alarms

        refused, (status, _, ready_body), (_, _, alarms_body) = asyncio.run(
            _with_live_gateway(body, config=config, pipeline=trained_pipeline)
        )
        assert refused.get("error") == "busy"
        assert status == 503
        detail = json.loads(ready_body)
        assert detail["ready"] is False
        assert detail["admission"]["open"] is False
        assert "serving.latency_p95" in detail["alarms"]
        active = json.loads(alarms_body)["active"]
        assert [a["slo"] for a in active] == ["serving.latency_p95"]
        assert json.loads(alarms_body)["history"]  # the rising edge was recorded
        assert REGISTRY.counter("monitor.slo_alarms", slo="serving.latency_p95").value == 1

    def test_healthy_baseline_keeps_zero_alarms(self, trained_pipeline, backward_capture):
        set_obs_enabled(True)
        reset_slo_monitor(rules=HEALTHY_RULES)

        async def body(gateway, host, port):
            gw_host, gw_port = gateway.address
            reader, writer, _ = await open_session(gw_host, gw_port)
            try:
                for _ in range(2):
                    await stream_utterance(reader, writer, backward_capture)
                ready = await http_get(host, port, "/readyz")
                alarms = await http_get(host, port, "/alarms")
            finally:
                await close_session(writer)
            return ready, alarms

        (status, _, _), (_, _, alarms_body) = asyncio.run(
            _with_live_gateway(body, config=GATED, pipeline=trained_pipeline)
        )
        assert status == 200
        assert json.loads(alarms_body) == {"active": [], "history": []}
        assert slo_monitor().active_alarms() == []

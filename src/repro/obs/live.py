"""Live operational telemetry plane for the serving gateway.

The serving gateway's telemetry so far is post-hoc: metrics snapshots,
audit JSONL and bench reports read after the run.  This module adds the
*operational* view — an opt-in HTTP sidecar served from the gateway's
own event loop (stdlib ``asyncio`` only, no web framework) answering:

- ``/metrics`` — the full registry in Prometheus text exposition
  format (:func:`repro.obs.metrics.snapshot_to_prometheus`);
- ``/healthz`` — liveness: the loop is turning (uptime, session count);
- ``/readyz`` — readiness: admission still open (below
  ``max_sessions``) and no SLO burn-rate alarm firing
  (:mod:`repro.obs.slo`); 503 otherwise, with the failing checks
  in the JSON body;
- ``/sessions`` — per-session JSON (mode, streaming/gated flags, ring
  occupancy, current utterance id) via
  :meth:`~repro.serving.session.DeviceSession.status`;
- ``/alarms`` — the SLO monitor's currently-firing rules plus the
  rising-edge alarm history;
- ``/quality`` — the decision monitor's live quality report (the same
  schema-versioned document as ``QUALITY_<name>.json``): overall and
  per-misactivation-source confusion/FAR/FRR, sliced rates,
  calibration, drift-detector state and raised drift alarms, scraped
  mid-soak while traffic runs.

A background *load probe* task samples the event loop's scheduling lag
and the sessions' ring occupancy once per
:attr:`LiveConfig.probe_interval_s` (default 1 s), writing gauges
straight into :data:`~repro.obs.metrics.REGISTRY` — ``REPRO_LIVE=1`` is
itself the opt-in, so the probe does not also gate on ``REPRO_OBS``.

Off by default: without ``REPRO_LIVE=1`` (or an explicit
:class:`LiveConfig`) the gateway opens no extra socket, spawns no probe
task and never imports this module.

``python -m repro.obs.live watch`` renders the endpoints as a
self-refreshing terminal dashboard (``--once`` prints a single frame).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass

from .control import env_int, obs_enabled, warn_once
from .metrics import REGISTRY
from .slo import slo_monitor

DEFAULT_LIVE_PORT = 9469
"""Default sidecar port (``REPRO_LIVE_PORT``)."""

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

ROUTES = ("/metrics", "/healthz", "/readyz", "/sessions", "/alarms", "/quality")

_REQUEST_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class LiveConfig:
    """Sidecar tunables; :meth:`from_env` reads the bind address.

    ``REPRO_LIVE_HOST`` and ``REPRO_LIVE_PORT`` are deployment settings;
    a malformed or out-of-range port warns once and keeps the default
    (shared :mod:`repro.obs.control` reader).  A port passed directly
    outside [0, 65535], or a probe interval that is not finite and
    positive, raises ``ValueError``.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_LIVE_PORT
    probe_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        # NaN fails both comparisons; at 0 or below the probe would run
        # on every loop turn and misread the loop's lag.
        if not 0 < self.probe_interval_s < math.inf:
            raise ValueError("probe_interval_s must be finite and > 0")

    @classmethod
    def from_env(cls) -> "LiveConfig":
        port = env_int("REPRO_LIVE_PORT", cls.port)
        if not 0 <= port <= 65535:
            warn_once(
                "REPRO_LIVE_PORT",
                f"REPRO_LIVE_PORT={port} is outside [0, 65535]; using {cls.port}",
            )
            port = cls.port
        return cls(host=os.environ.get("REPRO_LIVE_HOST") or cls.host, port=port)


class LiveTelemetry:
    """The HTTP sidecar + load probe for one :class:`ServingGateway`.

    Runs on the gateway's event loop; the handler is read-only over
    gateway state (plain attribute reads of dicts and ints — safe from
    the same loop without locks).  One request per connection
    (``Connection: close``), GET only.
    """

    def __init__(self, gateway, config: LiveConfig | None = None) -> None:
        self.gateway = gateway
        self.config = config or LiveConfig.from_env()
        self._server: asyncio.AbstractServer | None = None
        self._probe: asyncio.Task | None = None
        self._started = 0.0

    async def start(self) -> asyncio.AbstractServer:
        """Bind the sidecar socket and spawn the load-probe task."""
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self._started = time.monotonic()
        self._probe = asyncio.get_running_loop().create_task(self._probe_loop())
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with port 0."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("live telemetry is not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def stop(self) -> None:
        """Cancel the probe and close the sidecar socket."""
        if self._probe is not None:
            self._probe.cancel()
            try:
                await self._probe
            except asyncio.CancelledError:
                pass
            self._probe = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Load probe

    async def _probe_loop(self) -> None:
        """Sample loop lag and session load once per probe interval.

        Loop lag is measured as the overshoot of ``asyncio.sleep``: a
        healthy loop wakes within a millisecond or two of the deadline;
        a loop starved by synchronous pipeline work (decisions run on
        the loop thread) wakes late by exactly the blocked time.
        """
        interval = self.config.probe_interval_s
        while True:
            before = time.monotonic()
            await asyncio.sleep(interval)
            lag_ms = max(0.0, (time.monotonic() - before - interval) * 1000.0)
            sessions = list(self.gateway.sessions.values())
            occupancy = max(
                (s.ring.length / s.ring.capacity for s in sessions if s.ring.capacity),
                default=0.0,
            )
            dropped = sum(s.ring.dropped for s in sessions)
            REGISTRY.gauge("live.event_loop_lag_ms").set(lag_ms)
            REGISTRY.gauge("serving.open_sessions").set(len(sessions))
            REGISTRY.gauge("serving.ring_occupancy_max").set(occupancy)
            REGISTRY.gauge("serving.ring_dropped_samples").set(dropped)

    # ------------------------------------------------------------------
    # HTTP plumbing

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request_line = await asyncio.wait_for(
                    reader.readline(), timeout=_REQUEST_TIMEOUT_S
                )
                while True:
                    header = await asyncio.wait_for(
                        reader.readline(), timeout=_REQUEST_TIMEOUT_S
                    )
                    if not header or header in (b"\r\n", b"\n"):
                        break
            except (asyncio.TimeoutError, ConnectionError):
                return
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) < 2:
                return
            method, target = parts[0], parts[1]
            path = target.split("?", 1)[0]
            if method != "GET":
                status, ctype, body = (
                    405,
                    "application/json",
                    _json_bytes({"error": "method-not-allowed", "allow": "GET"}),
                )
            else:
                status, ctype, body = self._route(path)
            reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed", 503: (
                "Service Unavailable"
            )}.get(status, "OK")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    def _route(self, path: str) -> tuple[int, str, bytes]:
        """Dispatch one GET; returns ``(status, content type, body)``."""
        if path == "/metrics":
            return 200, PROM_CONTENT_TYPE, REGISTRY.to_prometheus().encode()
        if path == "/healthz":
            return 200, "application/json", _json_bytes(self.health())
        if path == "/readyz":
            ready, detail = self.readiness()
            return (200 if ready else 503), "application/json", _json_bytes(detail)
        if path == "/sessions":
            sessions = [s.status() for s in self.gateway.sessions.values()]
            return 200, "application/json", _json_bytes({"sessions": sessions})
        if path == "/alarms":
            monitor = slo_monitor()
            body = {
                "active": monitor.active_alarms(),
                "history": [alarm.as_dict() for alarm in monitor.alarms],
            }
            return 200, "application/json", _json_bytes(body)
        if path == "/quality":
            from .monitor import quality_report

            # The same document write_quality_report persists, so the
            # scraped body round-trips through validate()/compare().
            return 200, "application/json", _json_bytes(quality_report("live"))
        return 404, "application/json", _json_bytes(
            {"error": "not-found", "routes": list(ROUTES)}
        )

    # ------------------------------------------------------------------
    # Health / readiness

    def health(self) -> dict:
        """Liveness body: the sidecar answering *is* the health signal."""
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "sessions": len(self.gateway.sessions),
            "obs": obs_enabled(),
        }

    def readiness(self) -> tuple[bool, dict]:
        """Admission + SLO view; not-ready when either check fails.

        Admission is *closed* while the gateway is at ``max_sessions``
        (the next connection would be busy-rejected); any firing SLO
        burn-rate alarm fails readiness until the burn decays out of
        its windows.
        """
        sessions = len(self.gateway.sessions)
        max_sessions = self.gateway.config.max_sessions
        admission_open = sessions < max_sessions
        alarms = slo_monitor().active_alarms()
        ready = admission_open and not alarms
        return ready, {
            "ready": ready,
            "admission": {
                "open": admission_open,
                "sessions": sessions,
                "max_sessions": max_sessions,
            },
            "alarms": [alarm["slo"] for alarm in alarms],
        }


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


# --------------------------------------------------------------------------
# `watch` terminal dashboard


def _fetch_json(base: str, path: str, timeout: float = 2.0) -> dict:
    """GET one endpoint as JSON (non-2xx bodies are still parsed)."""
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return json.loads(response.read().decode())
    except urllib.error.HTTPError as error:
        return json.loads(error.read().decode())


def render_dashboard(
    base: str,
    health: dict,
    ready: dict,
    sessions: dict,
    alarms: dict,
    quality: dict | None = None,
) -> str:
    """One dashboard frame as plain text (pure: testable without a socket)."""
    admission = ready.get("admission", {})
    active = alarms.get("active", [])
    lines = [
        f"repro.obs.live — {base}",
        (
            f"health {health.get('status', '?')}"
            f" · up {health.get('uptime_s', 0.0):.0f}s"
            f" · ready {'yes' if ready.get('ready') else 'NO'}"
            f" · sessions {admission.get('sessions', '?')}/{admission.get('max_sessions', '?')}"
            f" · alarms {len(active)}"
        ),
        "",
        "SESSIONS",
    ]
    rows = sessions.get("sessions", [])
    if not rows:
        lines.append("  (none connected)")
    for row in rows:
        ring = row.get("ring", {})
        state = "streaming" if row.get("streaming") else "idle"
        if row.get("streaming") and row.get("gated"):
            state = "gated"
        lines.append(
            f"  {row.get('session', '?'):<10} {row.get('mode', '?'):<10} {state:<10}"
            f" utt={row.get('utterance_id') or '-':<14}"
            f" ring {100.0 * ring.get('occupancy', 0.0):5.1f}%"
            f" dropped={ring.get('dropped', 0)}"
        )
    lines += ["", "ALARMS"]
    if not active:
        lines.append("  (none firing)")
    for alarm in active:
        lines.append(
            f"  {alarm.get('slo', '?'):<24}"
            f" burn fast={alarm.get('burn_fast', 0.0):.2f}"
            f" slow={alarm.get('burn_slow', 0.0):.2f}"
            f" (threshold {alarm.get('burn_threshold', 0.0):.2f})"
        )
    if quality is not None:
        lines += ["", "QUALITY"]
        overall = quality.get("overall") or {}
        calibration = quality.get("calibration") or {}
        drift_alarms = quality.get("alarms", [])
        lines.append(
            f"  decisions {quality.get('decisions', 0)}"
            f" · labelled {quality.get('labelled', 0)}"
            f" · far {overall.get('far', 0.0):.3f}"
            f" · frr {overall.get('frr', 0.0):.3f}"
            f" · ece {calibration.get('ece', 0.0):.3f}"
            f" · drift alarms {len(drift_alarms)}"
        )
        sources_section = quality.get("sources") or {}
        if not sources_section:
            lines.append("  (no labelled sources yet)")
        for label, entry in sorted(sources_section.items()):
            lines.append(
                f"  {label:<14} n={entry.get('n', 0):<6}"
                f" far={entry.get('far', 0.0):.3f}"
                f" frr={entry.get('frr', 0.0):.3f}"
            )
        for alarm in drift_alarms:
            lines.append(
                f"  drift {alarm.get('stream', '?')}/{alarm.get('detector', '?')}"
                f" at n={alarm.get('count', '?')}"
                f" (stat {alarm.get('statistic', 0.0):.3f}"
                f" > {alarm.get('threshold', 0.0):.3f})"
            )
    return "\n".join(lines) + "\n"


def watch(base: str, interval_s: float = 2.0, once: bool = False, out=None) -> int:
    """Poll the sidecar and redraw the dashboard until interrupted."""
    out = out or sys.stdout
    while True:
        try:
            frame = render_dashboard(
                base,
                _fetch_json(base, "/healthz"),
                _fetch_json(base, "/readyz"),
                _fetch_json(base, "/sessions"),
                _fetch_json(base, "/alarms"),
                _fetch_json(base, "/quality"),
            )
        except (OSError, json.JSONDecodeError) as error:
            frame = f"repro.obs.live — {base}\n(unreachable: {error})\n"
        if once:
            out.write(frame)
            return 0
        out.write("\x1b[2J\x1b[H" + frame)
        out.flush()
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:
            return 0


def main(argv=None) -> int:
    """``python -m repro.obs.live watch`` — terminal dashboard."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.live",
        description="Watch a serving gateway's live telemetry sidecar.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    watch_parser = sub.add_parser("watch", help="self-refreshing terminal dashboard")
    watch_parser.add_argument(
        "--url",
        default=f"http://127.0.0.1:{DEFAULT_LIVE_PORT}",
        help="sidecar base URL (default: %(default)s)",
    )
    watch_parser.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    watch_parser.add_argument(
        "--once", action="store_true", help="print one frame and exit (no redraw loop)"
    )
    args = parser.parse_args(argv)
    return watch(args.url.rstrip("/"), interval_s=args.interval, once=args.once)


if __name__ == "__main__":
    raise SystemExit(main())

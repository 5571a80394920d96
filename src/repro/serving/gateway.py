"""Asyncio session gateway: many devices, one gate, one process.

``ServingGateway`` accepts TCP connections (stdlib ``asyncio`` only)
and gives each one a :class:`~repro.serving.session.DeviceSession`.
Control messages are JSON lines, one object per line in each
direction; audio travels as binary frames.

Client → server ops::

    {"op": "wake"}
    {"op": "audio", "bytes": N}  then exactly N raw bytes
    {"op": "end", "truth": true|false|null}
    {"op": "followup"} / {"op": "mute"} / {"op": "command", "text": ...}
    {"op": "close"}

An audio frame is its JSON header line followed by ``N`` bytes of
little-endian float64 samples, C-order ``(n_mics, k)``.  The gateway
reads them with ``readexactly`` and hands them to ``np.frombuffer``: no
text decoding per chunk, and a newline inside the samples cannot split
a frame.

Server → client events: a hello line on connect (``{"event": "hello",
"session": "s000042", ...}``), ``early`` events pushed mid-stream the
moment an early verdict fires, and a ``decision`` event per ``end``
carrying the audit-grade verdict, its fingerprint, and
frames-to-decision.  ``audio`` ops are not acknowledged — the client
streams without round trips, which is what makes early events *early*.

Failure policy mirrors the fault ladder: protocol errors (bad JSON,
unknown op, out-of-order lifecycle, malformed samples) answer with an
``{"error": ...}`` line and keep the connection; an unexpected internal
error is degraded to an error event and counted, never allowed to take
the gateway down.  Two errors close the connection instead, because
the gateway can no longer tell where the next line starts: an audio
header whose ``bytes`` is not an int in ``[0, MAX_AUDIO_BYTES]``
(``bad-audio-length``; a legacy base64 ``pcm`` line is one) and a line
past asyncio's 64 KiB limit (``line-too-long``).  When
``max_sessions`` devices are connected, new connections get a ``busy``
error and are closed immediately — backpressure at admission, not
silent queueing.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time

import numpy as np

from ..core.pipeline import HeadTalkPipeline
from ..obs import counter_inc, gauge_set, windowed_inc
from ..obs.control import env_truthy
from .config import ServingConfig
from .session import DeviceSession, SessionError

MAX_AUDIO_BYTES = 1 << 24
"""Largest audio frame payload (16 MiB, about 11 s of 4-mic float64 at
48 kHz).  A header that names more is a ``bad-audio-length`` error."""


_BAD_AUDIO_LENGTH = {
    "error": "bad-audio-length",
    "detail": (
        f"an audio op needs 'bytes', an int in [0, {MAX_AUDIO_BYTES}], followed by "
        "exactly that many raw little-endian float64 bytes (base64 'pcm' is not read)"
    ),
}


def _is_audio_length(size) -> bool:
    """Whether an audio header's ``bytes`` field is a readable length."""
    return isinstance(size, int) and not isinstance(size, bool) and 0 <= size <= MAX_AUDIO_BYTES


class ServingGateway:
    """One serving process: a TCP listener multiplexing device sessions.

    Every session starts in HEADTALK mode, the :class:`DeviceSession`
    default; a client's ``mute`` and ``command`` ops change it.
    """

    def __init__(
        self,
        pipeline: HeadTalkPipeline,
        config: ServingConfig | None = None,
        *,
        clock=time.monotonic,
        live_config=None,
    ):
        self.pipeline = pipeline
        self.config = config or ServingConfig()
        self.clock = clock
        self.live_config = live_config
        self.live = None
        self.sessions: dict[str, DeviceSession] = {}
        self._ids = itertools.count()
        self._server: asyncio.AbstractServer | None = None
        self._handlers: set[asyncio.Task] = set()

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start accepting connections (port 0 picks a port).

        When live telemetry is opted in — an explicit ``live_config`` or
        ``REPRO_LIVE=1`` — the HTTP sidecar (:mod:`repro.obs.live`)
        starts on the same loop.  The import is lazy and the default is
        off: an unopted gateway opens no extra socket and spawns no
        probe task.
        """
        self._server = await asyncio.start_server(
            self._handle,
            host=self.config.host,
            port=self.config.port,
        )
        if self.live_config is not None or env_truthy("REPRO_LIVE"):
            from ..obs.live import LiveTelemetry

            self.live = LiveTelemetry(self, config=self.live_config)
            await self.live.start()
        return self._server

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with port 0."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("gateway is not started")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def stop(self) -> None:
        """Stop accepting connections, reap handlers, close the listener."""
        if self.live is not None:
            await self.live.stop()
            self.live = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        if len(self.sessions) >= self.config.max_sessions:
            counter_inc("serving.busy_rejections")
            windowed_inc("serving.rejection_rate")
            await self._send(writer, {"error": "busy", "max_sessions": self.config.max_sessions})
            writer.close()
            return
        session_id = f"s{next(self._ids):06d}"
        session = DeviceSession(session_id, self.pipeline, self.config, clock=self.clock)
        self.sessions[session_id] = session
        gauge_set("serving.active_sessions", len(self.sessions))
        try:
            await self._send(
                writer,
                {
                    "event": "hello",
                    "session": session_id,
                    "mode": session.controller.mode.value,
                    "n_mics": self.pipeline.array.n_mics,
                    "sample_rate": self.pipeline.array.sample_rate,
                },
            )
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = self._parse(line)
                if message is None:
                    await self._send(writer, {"error": "malformed-json"})
                    continue
                op = message.get("op")
                if op == "close":
                    break
                payload = b""
                if op == "audio":
                    size = message.get("bytes")
                    if not _is_audio_length(size):
                        # The payload's end is unknown, so the stream
                        # cannot be resynchronized: answer and close.
                        self._count_protocol_error("bad-audio-length")
                        await self._send(writer, _BAD_AUDIO_LENGTH)
                        break
                    payload = await reader.readexactly(size)
                for reply in self._dispatch(session, message, payload):
                    await self._send(writer, reply)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown (gateway.stop or loop teardown) cancelled this
            # handler mid-await: treat as a disconnect so the task ends
            # cleanly — a cancelled client-handler task makes 3.11's
            # streams callback log a spurious traceback.
            pass
        except ValueError:
            # A line past the stream's 64 KiB limit cannot be
            # resynchronized; drop the connection instead of the gateway.
            self._count_protocol_error("line-too-long")
        finally:
            session.close()
            self.sessions.pop(session_id, None)
            gauge_set("serving.active_sessions", len(self.sessions))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    def _count_protocol_error(kind: str) -> None:
        """Count one protocol error (per-kind counter + error-rate window)."""
        counter_inc("serving.protocol_errors", kind=kind)
        windowed_inc("serving.error_rate")

    def _parse(self, line: bytes) -> dict | None:
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            self._count_protocol_error("bad-json")
            return None
        if not isinstance(message, dict):
            self._count_protocol_error("not-an-object")
            return None
        return message

    def _dispatch(self, session: DeviceSession, message: dict, payload: bytes) -> list[dict]:
        """Apply one op to the session; returns the events to send back.

        ``payload`` is the audio frame's raw bytes (empty for other ops).
        """
        op = message.get("op")
        try:
            if op == "wake":
                return [session.begin_wake()]
            if op == "audio":
                event = session.push_audio(self._decode_audio(payload))
                return [event] if event is not None else []
            if op == "end":
                truth = message.get("truth")
                slices = message.get("slices")
                if truth is not None and not isinstance(truth, bool):
                    raise SessionError("truth must be a boolean or null")
                if slices is not None and not isinstance(slices, dict):
                    raise SessionError("slices must be an object or null")
                return [session.end_wake(truth=truth, slices=slices)]
            if op == "followup":
                return [session.followup()]
            if op == "mute":
                return [session.mute()]
            if op == "command":
                return [session.command(str(message.get("text", "")))]
            self._count_protocol_error("unknown-op")
            return [{"error": f"unknown-op:{op}"}]
        except SessionError as error:
            self._count_protocol_error("session")
            return [{"error": str(error)}]
        except (ValueError, TypeError) as error:
            self._count_protocol_error("bad-payload")
            return [{"error": str(error)}]
        except Exception as error:  # degrade: one bad op must not kill the loop
            counter_inc("serving.internal_errors", kind=type(error).__name__)
            return [{"error": f"internal:{type(error).__name__}"}]

    def _decode_audio(self, payload: bytes) -> np.ndarray:
        """Little-endian float64, C-order ``(n_mics, k)``."""
        if len(payload) % 8:
            raise SessionError("audio byte length is not a multiple of 8")
        data = np.frombuffer(payload, dtype="<f8")
        n_mics = self.pipeline.array.n_mics
        if data.size % n_mics:
            raise SessionError(
                f"audio sample count {data.size} does not divide into {n_mics} channels"
            )
        return data.reshape(n_mics, -1)


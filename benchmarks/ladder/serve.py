"""The gateway child process and the parent's asyncio load generator.

The gateway runs in a forked child, so it inherits the trained gate and
the rendered bank without a second training, and the generator's JSON
and base64 encoding runs on the other core.  Parent and child talk over
a pipe: the child reports its port, starts tracing on ``"trace"`` and,
on ``"stop"``, shuts the gateway down and sends back its CPU samples,
spans and loop-lag samples.  The child samples its own CPU time every
:data:`CPU_SAMPLE_S` on its loop, so the parent can charge CPU to any
stretch of the run without a round trip while traffic flows, and takes
a reference unit (:mod:`.reference`) every :data:`PERIOD_S` to clock
the host's speed on its own core.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass

from repro.serving import ServingConfig, ServingGateway, close_session, open_session
from repro.serving.replay import stream_utterance
from repro.serving.soak import StepClock

from .reference import PERIOD_S, Reference
from .trace import Tracer

HOST = "127.0.0.1"
LAG_PROBE_S = 0.010
CPU_SAMPLE_S = 0.050
CONTROL_TIMEOUT_S = 20.0


def cpu_sample() -> tuple[float, float]:
    """``(wall clock, CPU seconds of this process)``; both clocks are monotonic."""
    return time.perf_counter(), time.process_time()


async def _cpu_sampler(samples: list) -> None:
    while True:
        samples.append(cpu_sample())
        await asyncio.sleep(CPU_SAMPLE_S)


async def _reference_sampler(reference: Reference) -> None:
    while True:
        await asyncio.sleep(PERIOD_S)
        reference.sample()


async def _lag_probe(lags: list) -> None:
    """Overshoot (ms) of a 10 ms sleep on the gateway loop, per tick."""
    while True:
        start = time.perf_counter()
        await asyncio.sleep(LAG_PROBE_S)
        lags.append((time.perf_counter() - start - LAG_PROBE_S) * 1000.0)


async def _serve(pipeline, config: ServingConfig, conn) -> None:
    # Each wake lands past the session window, so every utterance is gated.
    clock = StepClock(pipeline.config.session_seconds + 1.0)
    gateway = ServingGateway(pipeline, config, clock=clock)
    await gateway.start()
    loop = asyncio.get_running_loop()
    stopping = loop.create_future()
    tracer: Tracer | None = None
    lags: list = []
    probe: asyncio.Task | None = None
    samples: list = []
    sampler = loop.create_task(_cpu_sampler(samples))
    reference = Reference()
    clocker = loop.create_task(_reference_sampler(reference))

    def on_control() -> None:
        nonlocal tracer, probe
        try:
            command = conn.recv()
        except EOFError:  # the parent went away
            command = "stop"
        if command == "trace":
            tracer = Tracer().install()
            probe = loop.create_task(_lag_probe(lags))
            conn.send("tracing")
        elif command == "stop" and not stopping.done():
            stopping.set_result(None)

    loop.add_reader(conn.fileno(), on_control)
    conn.send(gateway.address[1])
    try:
        await stopping
    finally:
        loop.remove_reader(conn.fileno())
        samples.append(cpu_sample())
        for task in (sampler, clocker, probe):
            if task is not None:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
        spans = tracer.uninstall() if tracer is not None else []
        await gateway.stop()
    conn.send(
        {"cpu_samples": samples, "reference": reference.samples, "spans": spans, "lags": lags}
    )


def _child_main(pipeline, config: ServingConfig, conn) -> None:
    asyncio.run(_serve(pipeline, config, conn))


class GatewayChild:
    """A forked gateway serving ``pipeline`` on a free localhost port."""

    def __init__(self, pipeline, config: ServingConfig):
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_child_main, args=(pipeline, config, child_conn), daemon=True
        )
        self.process.start()
        child_conn.close()
        try:
            self.port = self._recv()
        except BaseException:
            self.close()
            raise

    def _recv(self):
        if not self._conn.poll(CONTROL_TIMEOUT_S):
            raise TimeoutError("gateway child did not answer")
        return self._conn.recv()

    def start_trace(self) -> None:
        """Install the span tracer and the loop-lag probe in the child."""
        self._conn.send("trace")
        self._recv()

    def stop(self) -> dict:
        """Stop the gateway; returns ``{"cpu_samples", "reference", "spans", "lags"}``."""
        self._conn.send("stop")
        payload = self._recv()
        self.close()
        return payload

    def close(self) -> None:
        """Reap the child (terminating it if it does not exit)."""
        self.process.join(CONTROL_TIMEOUT_S)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(CONTROL_TIMEOUT_S)
        self._conn.close()


@dataclass
class Outcome:
    """One measured utterance: when it was sent, when its verdict came."""

    due: float
    done: float
    failure: str | None
    early: bool = False


class Client:
    """The generator's connections to one gateway, with the bank they play."""

    def __init__(self, bank: dict, expected: dict, chunk_samples: int):
        self.bank = bank
        self.expected = expected
        self.chunk_samples = chunk_samples
        self.connections: list = []

    async def connect(self, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer, hello = await open_session(HOST, port)
            if "error" in hello:
                writer.close()
                raise ConnectionError(f"gateway refused a connection: {hello}")
            self.connections.append((reader, writer))

    async def close(self) -> None:
        for _, writer in self.connections:
            await close_session(writer)
        self.connections.clear()

    async def play(self, connection, item) -> Outcome:
        """Stream one utterance and check its verdict against the batch one."""
        key, truth, slices = item
        reader, writer = connection
        due = time.perf_counter()
        try:
            out = await stream_utterance(
                reader,
                writer,
                self.bank[key],
                chunk_samples=self.chunk_samples,
                truth=truth,
                slices=slices,
            )
        except (ConnectionError, OSError, ValueError):
            return Outcome(due, time.perf_counter(), "connection")
        done = time.perf_counter()
        decision = out["decision"]
        if decision is None:
            errored = any("error" in event for event in [out["wake"], *out["events"]])
            return Outcome(due, done, "error-event" if errored else "no-decision")
        early = bool(decision["early"])
        failure = None
        if decision["fingerprint"] != self.expected[key]:
            failure = "fingerprint"
        elif early and decision["accepted"]:
            failure = "early-flip"
        elif decision.get("dropped_samples"):
            failure = "dropped-samples"
        return Outcome(due, done, failure, early)

    async def warm_up(self, items, per_connection: int) -> None:
        """Stream ``per_connection`` utterances on each connection, unchecked."""

        async def one(connection):
            for _ in range(per_connection):
                await self.play(connection, next(items))

        await asyncio.gather(*(one(c) for c in self.connections))

    async def closed_loop(self, items, seconds: float, deck: int) -> tuple[list, float, float]:
        """Each connection streams back to back for ``seconds``, in whole decks.

        After the deadline the connections finish the deck under way, so
        every run plays each capture in its exact share.
        """
        outcomes: list[Outcome] = []
        start = time.perf_counter()
        deadline = start + seconds
        sent = 0

        async def worker(connection):
            nonlocal sent
            while sent % deck or time.perf_counter() < deadline:
                sent += 1
                outcome = await self.play(connection, next(items))
                outcomes.append(outcome)
                if outcome.failure == "connection":
                    return

        await asyncio.gather(*(worker(c) for c in self.connections))
        return outcomes, start, time.perf_counter()

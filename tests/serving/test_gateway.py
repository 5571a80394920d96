"""ServingGateway: the wire protocol end to end over real sockets."""

import asyncio
import json

import numpy as np
import pytest

from repro.acoustics.propagation import Capture
from repro.obs import REGISTRY, observed
from repro.serving import ServingConfig, ServingGateway, replay
from repro.serving.gateway import MAX_AUDIO_BYTES
from repro.serving.replay import (
    _recv,
    _send,
    close_session,
    open_session,
    send_audio,
    stream_capture,
    stream_utterance,
)

CONFIG = ServingConfig(check_liveness=False)


def _frame(payload: bytes) -> bytes:
    """An audio frame carrying ``payload`` verbatim."""
    return json.dumps({"op": "audio", "bytes": len(payload)}).encode() + b"\n" + payload


def _protocol_errors(kind: str) -> float:
    return REGISTRY.counter("serving.protocol_errors", kind=kind).value


async def _until_no_sessions(gateway) -> dict:
    # The handler's finally block races the client side.
    for _ in range(50):
        if not gateway.sessions:
            break
        await asyncio.sleep(0.01)
    return dict(gateway.sessions)


async def _with_gateway(pipeline, body, config=CONFIG):
    gateway = ServingGateway(pipeline, config)
    await gateway.start()
    try:
        host, port = gateway.address
        return await body(gateway, host, port)
    finally:
        await gateway.stop()


class TestRoundTrip:
    def test_rejection_streams_early_then_decides(self, trained_pipeline, backward_capture):
        async def body(gateway, host, port):
            return await stream_capture(host, port, backward_capture)

        out = asyncio.run(_with_gateway(trained_pipeline, body))
        assert out["hello"]["event"] == "hello"
        assert out["hello"]["n_mics"] == trained_pipeline.array.n_mics
        assert out["wake"]["gated"] is True
        assert out["early"] is not None
        # The early event was pushed before the decision event.
        kinds = [e.get("event") for e in out["events"]]
        assert kinds.index("early") < kinds.index("decision")
        decision = out["decision"]
        assert decision["kind"] == "soft-muted"
        assert decision["early"] is True
        batch = trained_pipeline.evaluate(backward_capture, check_liveness=False)
        assert decision["fingerprint"] == list(batch.fingerprint())

    def test_acceptance_has_no_early_event(self, trained_pipeline, forward_capture):
        async def body(gateway, host, port):
            return await stream_capture(host, port, forward_capture)

        out = asyncio.run(_with_gateway(trained_pipeline, body))
        assert out["early"] is None
        assert out["decision"]["accepted"] is True
        assert out["decision"]["kind"] == "uploaded"
        batch = trained_pipeline.evaluate(forward_capture, check_liveness=False)
        assert out["decision"]["fingerprint"] == list(batch.fingerprint())

    def test_sessions_are_cleaned_up(self, trained_pipeline, forward_capture):
        async def body(gateway, host, port):
            await stream_capture(host, port, forward_capture)
            return await _until_no_sessions(gateway)

        assert asyncio.run(_with_gateway(trained_pipeline, body)) == {}


class TestFramedAudio:
    def test_round_trip_across_chunk_sizes(self, trained_pipeline, side_capture, monkeypatch):
        crop = Capture(side_capture.channels[:, :3000], side_capture.sample_rate)
        runs = [
            (side_capture, 777),
            (side_capture, 4097),
            (side_capture, side_capture.n_samples),
            (crop, 1),
        ]
        payloads = []

        async def recording(writer, chunk):
            payloads.append(np.asarray(chunk, dtype="<f8").tobytes())
            await send_audio(writer, chunk)

        monkeypatch.setattr(replay, "send_audio", recording)

        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            outs = []
            for capture, chunk_samples in runs:
                outs.append(
                    await stream_utterance(reader, writer, capture, chunk_samples=chunk_samples)
                )
            await close_session(writer)
            return outs

        outs = asyncio.run(_with_gateway(trained_pipeline, body))
        for (capture, chunk_samples), out in zip(runs, outs):
            batch = trained_pipeline.evaluate(capture, check_liveness=False)
            assert out["decision"]["fingerprint"] == list(batch.fingerprint()), chunk_samples
        assert len(payloads) == sum(len(range(0, c.n_samples, k)) for c, k in runs)
        # Raw samples carry newline bytes; the length header, not a
        # delimiter, says where each frame ends.
        assert any(b"\n" in payload for payload in payloads)


class TestAdmission:
    def test_busy_rejection_at_max_sessions(self, trained_pipeline):
        config = ServingConfig(check_liveness=False, max_sessions=1)

        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            assert hello["event"] == "hello"
            _, writer2, refused = await open_session(host, port)
            writer2.close()
            await close_session(writer)
            # Once the slot frees up, new connections are admitted again.
            await _until_no_sessions(gateway)
            reader3, writer3, hello3 = await open_session(host, port)
            await close_session(writer3)
            return refused, hello3

        refused, hello3 = asyncio.run(_with_gateway(trained_pipeline, body, config))
        assert refused["error"] == "busy"
        assert refused["max_sessions"] == 1
        assert hello3["event"] == "hello"


class TestProtocolErrors:
    def test_errors_keep_the_connection_usable(self, trained_pipeline, forward_capture):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            replies = []

            async def roundtrip(raw):
                writer.write(raw)
                await writer.drain()
                replies.append(await _recv(reader))

            await roundtrip(b"this is not json\n")
            await roundtrip(b'["an", "array"]\n')
            await roundtrip(json.dumps({"op": "warp"}).encode() + b"\n")
            # Lifecycle misuse: audio and end outside an open wake.
            await roundtrip(_frame(forward_capture.channels[:, :2048].tobytes()))
            await roundtrip(json.dumps({"op": "end"}).encode() + b"\n")
            # Malformed samples inside a wake: 12 bytes are not whole
            # float64s, and 3 samples do not split over 4 mics.
            await _send(writer, {"op": "wake"})
            await _recv(reader)
            await roundtrip(_frame(bytes(12)))
            await roundtrip(_frame(bytes(24)))
            await roundtrip(json.dumps({"op": "end", "truth": "yes"}).encode() + b"\n")
            await _send(writer, {"op": "end"})
            await _recv(reader)  # empty utterance still yields a decision
            # The same connection then carries a clean utterance.
            out = await stream_utterance(reader, writer, forward_capture)
            await close_session(writer)
            return replies, out

        assert trained_pipeline.array.n_mics == 4
        replies, out = asyncio.run(_with_gateway(trained_pipeline, body))
        assert all("error" in reply for reply in replies)
        assert replies[0]["error"] == "malformed-json"
        assert replies[1]["error"] == "malformed-json"
        assert replies[2]["error"] == "unknown-op:warp"
        assert replies[3]["error"] == "audio outside an open utterance"
        assert "multiple of 8" in replies[5]["error"]
        assert "does not divide into 4 channels" in replies[6]["error"]
        assert out["decision"]["accepted"] is True

    @pytest.mark.parametrize(
        "header",
        [
            {"op": "audio"},
            {"op": "audio", "bytes": -1},
            {"op": "audio", "bytes": "64"},
            {"op": "audio", "bytes": True},
            {"op": "audio", "bytes": MAX_AUDIO_BYTES + 1},
            {"op": "audio", "pcm": "AAAAAAAAAAA="},
        ],
        ids=["missing", "negative", "string", "bool", "over-bound", "legacy-pcm"],
    )
    def test_bad_audio_length_answers_and_closes(self, trained_pipeline, header):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            await _send(writer, {"op": "wake"})
            await _recv(reader)
            await _send(writer, header)
            reply = await _recv(reader)
            tail = await reader.read()
            writer.close()
            return reply, tail, await _until_no_sessions(gateway)

        with observed(True):
            before = _protocol_errors("bad-audio-length")
            reply, tail, sessions = asyncio.run(_with_gateway(trained_pipeline, body))
            counted = _protocol_errors("bad-audio-length") - before
        assert reply["error"] == "bad-audio-length"
        assert "'bytes'" in reply["detail"] and "pcm" in reply["detail"]
        assert tail == b""  # the gateway closed the connection
        assert sessions == {}
        assert counted == 1

    def test_overlong_line_drops_the_connection(self, trained_pipeline):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            padding = "x" * (1 << 16)  # past asyncio's default 64 KiB line limit
            await _send(writer, {"op": "audio", "bytes": 0, "padding": padding})
            try:
                dropped = await reader.read() == b""
            except ConnectionResetError:  # closed with the line's tail unread
                dropped = True
            writer.close()
            return dropped, await _until_no_sessions(gateway)

        with observed(True):
            before = _protocol_errors("line-too-long")
            dropped, sessions = asyncio.run(_with_gateway(trained_pipeline, body))
            counted = _protocol_errors("line-too-long") - before
        assert dropped
        assert sessions == {}
        assert counted == 1

    def test_disconnect_inside_a_payload_removes_the_session(self, trained_pipeline):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            await _send(writer, {"op": "wake"})
            await _recv(reader)
            writer.write(json.dumps({"op": "audio", "bytes": 64}).encode() + b"\n" + bytes(10))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            return await _until_no_sessions(gateway)

        assert asyncio.run(_with_gateway(trained_pipeline, body)) == {}

    def test_zero_byte_frame_is_an_empty_chunk(self, trained_pipeline):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            await _send(writer, {"op": "wake"})
            await _recv(reader)
            await send_audio(writer, np.zeros((4, 0)))
            await _send(writer, {"op": "end"})
            reply = await _recv(reader)  # audio is unacknowledged: next is the decision
            await close_session(writer)
            return reply

        reply = asyncio.run(_with_gateway(trained_pipeline, body))
        assert reply["event"] == "decision"
        assert reply["frames_seen"] == 0

    def test_close_op_closes_the_connection(self, trained_pipeline):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            await _send(writer, {"op": "close"})
            line = await reader.readline()
            writer.close()
            return line

        assert asyncio.run(_with_gateway(trained_pipeline, body)) == b""


class TestModesOverTheWire:
    def test_mute_and_command_ops(self, trained_pipeline):
        async def body(gateway, host, port):
            reader, writer, hello = await open_session(host, port)
            await _send(writer, {"op": "mute"})
            muted = await _recv(reader)
            await _send(writer, {"op": "mute"})
            unmuted = await _recv(reader)
            await _send(writer, {"op": "command", "text": "exit headtalk mode"})
            normal = await _recv(reader)
            await _send(writer, {"op": "command", "text": "sudo rm -rf"})
            refused = await _recv(reader)
            await _send(writer, {"op": "followup"})
            followup = await _recv(reader)
            await close_session(writer)
            return muted, unmuted, normal, refused, followup

        muted, unmuted, normal, refused, followup = asyncio.run(
            _with_gateway(trained_pipeline, body)
        )
        assert muted["mode"] == "mute"
        assert unmuted["mode"] == "normal"
        assert normal["mode"] == "normal"
        assert "error" in refused
        assert followup["kind"] == "uploaded"  # NORMAL mode uploads follow-ups

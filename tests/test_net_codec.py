"""Wire-codec hardening of the real-network backend (:mod:`repro.net`).

Every endpoint listens on loopback during a run, so any local process
can connect and write bytes.  Nothing read off a socket may be
unpickled into an arbitrary call: the hello is a fixed-width integer,
and frame bodies resolve no global but the payload classes of
``repro`` algorithms.  A malformed frame must fail the run at once with
the codec's error, not as a barrier timeout much later.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
import sys
import time

import pytest

import repro.net.runner as net_runner
from repro.api import _ensure_registry
from repro.core.flood_max import MaxIdMsg
from repro.graphs import Network, ring
from repro.net import engine as net_engine
from repro.net.codec import (CodecError, decode_body, encode_frame,
                             encode_hello, read_hello)
from repro.net.links import LOOPBACK, open_mesh
from repro.sim.backend import RunRequest

CALLS = []


def _tripwire(*args):
    CALLS.append(args)


class _Reduces:
    """Pickles as a call of ``target(*args)`` on load."""

    def __init__(self, target, *args):
        self.target, self.args = target, args

    def __reduce__(self):
        return self.target, self.args


def _frame_body(payload) -> bytes:
    return pickle.dumps((0, 1, 0, payload), protocol=pickle.HIGHEST_PROTOCOL)


def test_payload_frame_round_trips():
    frame = encode_frame(3, 7, 1, MaxIdMsg(42))
    assert decode_body(frame[4:]) == (3, 7, 1, MaxIdMsg(42))


def test_foreign_global_is_refused_without_being_called():
    body = _frame_body(_Reduces(_tripwire, "called"))
    with pytest.raises(CodecError, match="forbidden global"):
        decode_body(body)
    assert CALLS == []


def test_repro_global_that_is_not_a_payload_class_is_refused(capsys):
    from repro.cli import main
    body = _frame_body(_Reduces(main, ["list"]))
    with pytest.raises(CodecError, match="forbidden global repro.cli.main"):
        decode_body(body)
    assert capsys.readouterr().out == ""


def _global_ref(module: str, name: str) -> bytes:
    """A pickle that only names the global ``module.name``."""
    parts = [pickle.PROTO, b"\x04"]
    for text in (module, name):
        parts += [pickle.SHORT_BINUNICODE, bytes([len(text)]), text.encode()]
    return b"".join(parts + [pickle.STACK_GLOBAL, pickle.STOP])


def test_unimported_repro_module_is_not_imported():
    """Importing ``repro.__main__`` would run the CLI."""
    assert "repro.__main__" not in sys.modules
    with pytest.raises(CodecError, match="forbidden global repro.__main__"):
        decode_body(_global_ref("repro.__main__", "main"))
    assert "repro.__main__" not in sys.modules


def test_garbage_and_misshapen_frames_are_codec_errors():
    with pytest.raises(CodecError, match="undecodable"):
        decode_body(b"\x00" * 16)
    with pytest.raises(CodecError, match="malformed frame"):
        decode_body(pickle.dumps(("not", "a", "frame", None)))


async def _read_hello_from(data: bytes):
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await read_hello(reader)


def test_integer_hello_round_trips():
    assert asyncio.run(_read_hello_from(encode_hello(7))) == 7


def test_non_integer_hello_is_refused():
    body = pickle.dumps("7")
    with pytest.raises(CodecError, match="malformed hello"):
        asyncio.run(_read_hello_from(struct.pack(">I", len(body)) + body))


@pytest.mark.net
@pytest.mark.parametrize("hello", [
    struct.pack(">I", 5) + pickle.dumps(1)[:5],  # not the integer format
    encode_hello(0),  # a neighbour that already dialed in
    encode_hello(2),  # a node that never dials node 1
], ids=["pickled", "hijack", "stranger"])
def test_listener_closes_connections_with_a_refused_hello(hello):
    async def scenario():
        endpoints = await open_mesh(Network.build(ring(4), seed=0), 5.0)
        try:
            before = dict(endpoints[1].writers)
            reader, writer = await asyncio.open_connection(
                LOOPBACK, endpoints[1].port)
            writer.write(hello)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(), 5.0) == b""
            writer.close()
            return before, dict(endpoints[1].writers)
        finally:
            for endpoint in endpoints:
                endpoint.kill()

    before, after = asyncio.run(scenario())
    assert after == before


@pytest.mark.net
def test_malformed_frame_fails_fast_with_codec_error(monkeypatch):
    sent = []

    def corrupt_first(*args):
        frame = encode_frame(*args)
        sent.append(args)
        if len(sent) == 1:
            return frame[:4] + b"\x00" * (len(frame) - 4)
        return frame

    monkeypatch.setattr(net_runner, "encode_frame", corrupt_first)
    spec = _ensure_registry()["flood-max"]
    request = RunRequest(network=Network.build(ring(4), seed=3),
                         factory=spec.factory, seed=3, knowledge={"n": 4},
                         algorithm="flood-max")
    start = time.monotonic()
    with pytest.raises(CodecError, match="undecodable"):
        net_engine.run(request, round_timeout=20.0)
    assert time.monotonic() - start < 5.0

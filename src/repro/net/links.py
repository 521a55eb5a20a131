"""Per-node TCP endpoints and the loopback mesh.

Each node owns a :class:`NodeEndpoint`: one listening socket plus one
established TCP connection per neighbour (the lower-indexed endpoint of
every undirected edge dials the higher-indexed one, which is how the
mesh stays at exactly one connection per edge).  The endpoint splits
YACA-style into a *sender* side (``send``/``drain`` over per-peer
writers) and a *listener* side (one reader task per connection that
parses length-prefixed frames and files them into per-delivery-round
buffers).

The round barrier lives in :meth:`NodeEndpoint.expect`: the coordinator
knows exactly how many frames each node must receive for a delivery
round (the simulator's bookkeeping tells it), and ``expect`` blocks on
the arrival event until that many frames are buffered.  Frames for
*later* rounds arriving early is fine — they sit in their own buffer
until their round comes up.  A malformed frame stops its reader and
fails the next ``expect`` on that endpoint with the reader's
:class:`~repro.net.codec.CodecError`, rather than a barrier timeout.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Set, Tuple

from ..graphs.network import Network
from . import codec
from .errors import TransportTimeout

LOOPBACK = "127.0.0.1"


class NodeEndpoint:
    """One node's sockets: a listener plus per-peer connections."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.server: Optional[asyncio.base_events.Server] = None
        self.port: int = 0
        #: peer index -> writer for the shared per-edge connection.
        self.writers: Dict[int, asyncio.StreamWriter] = {}
        #: reader tasks, one per established connection.
        self.reader_tasks: List["asyncio.Task[None]"] = []
        #: delivery round -> frames received for that round.
        self._buffers: Dict[int, List[codec.Frame]] = {}
        #: set whenever a frame arrives; expect() clears and re-checks.
        self._arrival = asyncio.Event()
        #: peers touched by send() since the last drain().
        self._touched: Set[int] = set()
        #: bytes actually moved over the wire (transport telemetry).
        self.wire_bytes_out = 0
        self.wire_bytes_in = 0
        #: a CodecError a reader task hit; expect() re-raises it.
        self.error: Optional[codec.CodecError] = None
        #: fires once every expected dialer has said hello.
        self._ready = asyncio.Event()
        #: lower-indexed neighbours that have not dialed in yet.
        self._dialers: Set[int] = set()

    # -- listener side -------------------------------------------------

    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._on_accept, host=LOOPBACK, port=0)
        sockets = self.server.sockets or []
        self.port = sockets[0].getsockname()[1]

    async def _on_accept(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        """Admit a dialer that names a neighbour still expected to dial
        in; close any other connection."""
        try:
            peer = await codec.read_hello(reader)
        except codec.CodecError:
            peer = None
        if peer not in self._dialers:
            writer.close()
            return
        self._dialers.discard(peer)
        self.writers[peer] = writer
        self.reader_tasks.append(
            asyncio.ensure_future(self._read_loop(reader)))
        if not self._dialers:
            self._ready.set()

    def attach(self, peer: int, reader: asyncio.StreamReader,
               writer: asyncio.StreamWriter) -> None:
        """Register an outbound connection this endpoint dialed."""
        self.writers[peer] = writer
        self.reader_tasks.append(
            asyncio.ensure_future(self._read_loop(reader)))

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        while True:
            try:
                body = await codec.read_raw(reader)
                if body is None:
                    return
                self.wire_bytes_in += codec.HEADER_SIZE + len(body)
                frame = codec.decode_body(body)
            except codec.CodecError as exc:
                self.error = exc
                self._arrival.set()
                return
            self._buffers.setdefault(frame[1], []).append(frame)
            self._arrival.set()

    # -- barrier side --------------------------------------------------

    async def expect(self, delivery_round: int, count: int,
                     timeout: float) -> None:
        """Block until ``count`` frames for ``delivery_round`` arrived.

        Raises the reader's :class:`~repro.net.codec.CodecError` once a
        malformed frame arrived on any of this endpoint's connections.
        """
        while True:
            if self.error is not None:
                raise self.error
            if len(self._buffers.get(delivery_round, ())) >= count:
                return
            self._arrival.clear()
            try:
                await asyncio.wait_for(self._arrival.wait(), timeout)
            except asyncio.TimeoutError:
                raise TransportTimeout(self.index, delivery_round, timeout,
                                       what="frame delivery") from None

    def take(self, delivery_round: int) -> List[codec.Frame]:
        """Remove and return all frames buffered for ``delivery_round``."""
        return self._buffers.pop(delivery_round, [])

    # -- sender side ---------------------------------------------------

    def send(self, peer: int, frame: bytes) -> None:
        """Queue one wire frame to ``peer`` (actual I/O happens on drain)."""
        writer = self.writers[peer]
        if writer.is_closing():
            return
        writer.write(frame)
        self.wire_bytes_out += len(frame)
        self._touched.add(peer)

    async def drain(self) -> None:
        """Flush every writer touched since the last drain."""
        for peer in sorted(self._touched):
            writer = self.writers.get(peer)
            if writer is not None and not writer.is_closing():
                try:
                    await writer.drain()
                except ConnectionError:
                    pass
        self._touched.clear()

    # -- teardown ------------------------------------------------------

    def kill(self) -> None:
        """Synchronously sever this node from the mesh (crash injection).

        Cancels reader tasks and closes sockets.  TCP flushes buffered
        data before FIN, so frames written in earlier rounds still reach
        their peers.
        """
        for task in self.reader_tasks:
            task.cancel()
        for writer in self.writers.values():
            if not writer.is_closing():
                writer.close()
        if self.server is not None:
            self.server.close()


async def open_mesh(network: Network, timeout: float) -> List[NodeEndpoint]:
    """Build one loopback TCP connection per undirected edge.

    For every edge ``(u, v)`` with ``u < v``, node ``u`` dials node
    ``v``'s listener and announces itself with a hello frame; both sides
    then share the connection full-duplex.
    """
    n = network.num_nodes
    endpoints = [NodeEndpoint(i) for i in range(n)]

    dial_pairs: List[Tuple[int, int]] = []
    for u in range(n):
        for port in range(network.degree(u)):
            v = network.neighbor_via_port(u, port)
            if u < v:
                dial_pairs.append((u, v))

    for u, v in dial_pairs:
        endpoints[v]._dialers.add(u)
    for ep in endpoints:
        if not ep._dialers:
            ep._ready.set()

    for ep in endpoints:
        await ep.start()

    async def dial(u: int, v: int) -> None:
        reader, writer = await asyncio.open_connection(
            LOOPBACK, endpoints[v].port)
        writer.write(codec.encode_hello(u))
        await writer.drain()
        endpoints[u].attach(v, reader, writer)

    await asyncio.gather(*(dial(u, v) for u, v in dial_pairs))
    for ep in endpoints:
        try:
            await asyncio.wait_for(ep._ready.wait(), timeout)
        except asyncio.TimeoutError:
            raise TransportTimeout(ep.index, -1, timeout,
                                   what="mesh handshake") from None
    return endpoints

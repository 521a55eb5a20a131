"""The socket driver of the simulator's round core.

:class:`NetRunner` runs one algorithm instance per node as N asyncio
tasks exchanging length-prefixed pickled frames over loopback TCP.  It
is a synchronizer in the sense of Aspnes's notes: the synchronous round
loop of :mod:`repro.sim.scheduler` run over an asynchronous network.
Each round it calls the simulator's four round steps in the order
:meth:`~repro.sim.scheduler.Simulator.run` does, so the event queue,
loss/delay/crash draws, accounting, activation order, and trace events
are the event loop's own code, and the :class:`RunResult` is the event
loop's bit for bit.  This module adds only the transport:

* **Frames.**  Every delivery the core books is also written as a frame
  from the sender's endpoint to the receiver's — except to a crashed
  receiver, whose sockets are closed.
* **Barrier.**  Between steps 1 and 2 the runner awaits, per receiver,
  exactly the number of frames the core booked for it, and hands the
  receiver the decoded frames in place of the in-memory payloads.
  Frames are sorted by source, which is the core's submission order:
  all of them were sent in the previous round (Δ = 1, the only delay
  :mod:`repro.net.engine` accepts), nodes are activated in ascending
  index order, and each sends at most one message per port per round
  (the CONGEST discipline enforced by ``NodeContext``) on simple graphs.
* **Node tasks.**  Step 3 runs inside the activated node's own task,
  which then drains the sockets it wrote to; the coordinator awaits the
  reply before activating the next node, so the global send order — and
  with it the shared loss stream — is the event loop's.
* **Crashes.**  A crash-stop fault also cancels the victim's task and
  closes its sockets.  TCP flushes written data before FIN, so frames it
  sent in earlier rounds still arrive.

A wedged peer trips the barrier's timeout instead of deadlocking the
run, and a malformed frame fails it at once with the codec's error.
"""

from __future__ import annotations

import asyncio
from typing import (TYPE_CHECKING, Awaitable, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

from ..graphs.network import Network
from ..sim.contract import ProcessFactory, RunResult
from ..sim.message import Payload
from ..sim.models import ExecutionModel
from ..sim.process import Delivery
from ..sim.scheduler import Simulator
from ..sim.wakeup import WakeupModel
from .codec import encode_frame
from .links import NodeEndpoint, open_mesh
from .node import NodeRunner

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Tracer

DEFAULT_ROUND_TIMEOUT = 30.0


class NetRunner(Simulator):
    """Drives the simulator's round core over real loopback sockets."""

    _wired = True

    def __init__(self, network: Network, process_factory: ProcessFactory, *,
                 seed: int = 0,
                 knowledge: Optional[Mapping[str, int]] = None,
                 wakeup: Optional[WakeupModel] = None,
                 model: Optional[ExecutionModel] = None,
                 congest_bits: Optional[int] = None,
                 tracer: Optional["Tracer"] = None,
                 timeline: bool = False,
                 round_timeout: float = DEFAULT_ROUND_TIMEOUT,
                 hang_nodes: Sequence[int] = ()) -> None:
        super().__init__(network, process_factory, seed=seed,
                         knowledge=knowledge, wakeup=wakeup, model=model,
                         congest_bits=congest_bits, tracer=tracer,
                         timeline=timeline)
        self._round_timeout = round_timeout
        self._hang_nodes = set(hang_nodes)
        # Transport state, materialized inside run_async (needs a loop).
        self._endpoints: List[NodeEndpoint] = []
        self._runners: List[NodeRunner] = []

    def _transmit(self, src: int, dst: int, dst_port: int,
                  payload: Payload, delivery_round: int) -> None:
        if not self._contexts[dst]._crashed:
            self._endpoints[src].send(
                dst, encode_frame(src, delivery_round, dst_port, payload))

    def _crash_node(self, r: int, node: int) -> None:
        super()._crash_node(r, node)
        self._runners[node].kill()
        self._endpoints[node].kill()

    def run(self, max_rounds: Optional[int] = None, *,
            raise_on_limit: bool = False) -> RunResult:
        """Blocking entry point: :meth:`run_async` on a fresh event loop."""
        return asyncio.run(self.run_async(max_rounds,
                                          raise_on_limit=raise_on_limit))

    async def run_async(self, max_rounds: Optional[int] = None, *,
                        raise_on_limit: bool = False) -> RunResult:
        """Open the mesh, execute to quiescence, tear everything down."""
        limit = self._begin_run(max_rounds)
        timeout = self._round_timeout
        try:
            self._endpoints = await open_mesh(self.network, timeout)
            self._runners = [NodeRunner(i)
                             for i in range(self.network.num_nodes)]
            for idx in self._hang_nodes:
                self._runners[idx].hang = True
            while True:
                r = self._next_round(limit, raise_on_limit)
                if r is None:
                    break
                inboxes = self._open_round(r)
                await self._collect(r, inboxes)
                for idx in self._plan_round(r, inboxes):
                    await self._runners[idx].activate(
                        self._activation(idx, r, inboxes.get(idx, [])),
                        r, timeout)
                self._close_round(r)
            return self._end_run()
        finally:
            await self._teardown()

    async def _collect(self, r: int,
                       inboxes: Dict[int, List[Delivery]]) -> None:
        """The round barrier: swap each receiver's booked deliveries for
        the frames it read off its sockets, in source order."""
        for dst in sorted(inboxes):
            endpoint = self._endpoints[dst]
            await endpoint.expect(r, len(inboxes[dst]), self._round_timeout)
            frames = endpoint.take(r)
            frames.sort(key=lambda frame: frame[0])
            inboxes[dst] = [Delivery(port, payload)
                            for _, _, port, payload in frames]

    def _activation(self, idx: int, r: int, inbox: List[Delivery]
                    ) -> Callable[[], Awaitable[None]]:
        """What node ``idx`` runs in its own task: its activation, then a
        drain of the sockets it wrote to."""
        async def command() -> None:
            self._activate(idx, r, inbox)
            await self._endpoints[idx].drain()
        return command

    async def _teardown(self) -> None:
        for runner in self._runners:
            if not runner.task.done():
                runner.task.cancel()
        if self._runners:
            await asyncio.gather(*(runner.task for runner in self._runners),
                                 return_exceptions=True)
        for endpoint in self._endpoints:
            endpoint.kill()
        reader_tasks = [task for endpoint in self._endpoints
                        for task in endpoint.reader_tasks]
        if reader_tasks:
            await asyncio.gather(*reader_tasks, return_exceptions=True)
        for endpoint in self._endpoints:
            if endpoint.server is not None:
                try:
                    await endpoint.server.wait_closed()
                except Exception:
                    pass

    # -- transport telemetry -------------------------------------------
    @property
    def wire_bytes(self) -> Tuple[int, int]:
        """(bytes written, bytes read) across all endpoints."""
        out = sum(e.wire_bytes_out for e in self._endpoints)
        into = sum(e.wire_bytes_in for e in self._endpoints)
        return out, into

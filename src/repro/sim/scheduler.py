"""The synchronous round scheduler: one round core, two drivers.

Implements the model of Section 2: computation proceeds in synchronous
rounds; in every round each awake node may send at most one message per
incident edge, receives the messages its neighbors sent in the previous
round, and performs local computation.

The scheduler is *event-driven over rounds*: it maintains the set of
future event rounds (message deliveries, alarms, spontaneous wakeups) and
jumps directly from one event round to the next.  Semantically this is
identical to executing every intermediate round — nothing can happen in a
round with no deliveries, no alarms, and no wakeups — but it makes runs
whose span is exponential (Theorem 4.1: the agent with smallest ID ``i``
finishes around round ``2m · 2^i``) run in time proportional to the
number of *events*, not rounds.

All round bookkeeping lives here, cut into four synchronous steps that
every driver calls in the same order:

1. :meth:`Simulator._open_round` takes the round's due deliveries, after
   firing due crash-stop faults and purging deliveries to crashed nodes;
2. :meth:`Simulator._plan_round` drains due wakeups and alarms and lists
   the round's activations in order;
3. :meth:`Simulator._activate` runs one node's wakeup code and handler;
4. :meth:`Simulator._close_round` counts the round and feeds the status
   census to the timeline and tracer.

:meth:`Simulator.run` calls the steps in a plain loop over in-memory
buffers.  The socket backend (:class:`repro.net.runner.NetRunner`) is a
second driver of the same steps — a synchronizer over real sockets: it
writes a frame for every booked delivery, waits for each receiver's
frames between steps 1 and 2, and runs step 3 inside the node's own
task.  Both drivers therefore share every counter, random draw, and
trace event.

Hot-path design (the paper's claims are scaling statements, so sweep
throughput at large n is the binding constraint):

* **O(1) event queue.**  Messages always deliver exactly one round
  ahead, so in-flight traffic is one flat ``node -> inbox`` map plus a
  single ``_delivery_round`` scalar; alarms and spontaneous wakeups
  each sit in a min-heap.  Finding the next event round peeks at three
  monotone sources — no dict scans proportional to the number of
  buffered rounds.
* **Lazy envelopes.**  An :class:`Envelope` is materialized only when
  the run records its send log; otherwise sends are accounted straight
  into :class:`Metrics` from ``(src, dst, kind, size)`` scalars, with
  payload sizes memoized per instance.
* **Flat port tables.**  ``(dst, dst_port)`` of a send resolve through
  the network's precomputed ``port_table``/``peer_port_table`` — two
  list indexes, no method calls or reverse-dict lookups.
* **Batched broadcast.**  :meth:`NodeContext.broadcast` (and
  ``multicast``) submit all ports of one payload in a single call:
  one CONGEST check, one size computation, one bulk metrics update.

Execution models (:mod:`repro.sim.models`) generalize the delivery
rule: the default :class:`~repro.sim.models.SynchronousModel` (Δ = 1,
no faults) keeps the flat buffer above, while any other model takes
the *general path* — a ring of ``Δ`` delivery buffers indexed by
``delivery_round mod Δ`` (delivery rounds in flight always lie in the
half-open window ``(r, r + Δ]``, so the ring never collides),
per-message loss draws, and a crash-stop heap applied at the start of
each executed round.  A send picks its path with one flag test.
"""

from __future__ import annotations

import heapq
import random
from typing import (TYPE_CHECKING, Dict, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from ..graphs.network import Network
from .contract import DEFAULT_MAX_ROUNDS, ProcessFactory, RunResult, wakeup_rng
from .errors import CongestViolation, ModelViolation, RoundLimitExceeded
from .message import Envelope, Payload
from .metrics import Metrics
from .models import SYNCHRONOUS, ExecutionModel
from .process import Delivery, NodeContext, NodeProcess
from .status import Status
from .wakeup import Simultaneous, WakeupModel

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Tracer

__all__ = ["DEFAULT_MAX_ROUNDS", "ProcessFactory", "RunResult", "Simulator"]


class Simulator:
    """Runs one algorithm instance per node of a :class:`Network`.

    Parameters
    ----------
    network:
        The concrete network (topology + IDs + ports).
    process_factory:
        Zero-argument callable returning a fresh :class:`NodeProcess`
        per node (e.g. ``lambda: LeastElementElection()``).
    seed:
        Master seed deriving all per-node private coins and the wakeup
        schedule; identical seeds reproduce runs exactly.
    knowledge:
        Mapping of global parameters granted to every node, e.g.
        ``{"n": 100}`` or ``{"n": 100, "D": 12}`` (Table 1's
        "Knowledge" column).  Algorithms read it via ``ctx.knowledge``.
    wakeup:
        Wakeup model; defaults to the model's wakeup, then simultaneous
        wakeup.  An explicit argument overrides the execution model's.
    model:
        :class:`~repro.sim.models.ExecutionModel` configuring message
        delays, crash-stop faults, and message loss.  ``None`` (the
        default) is the paper's synchronous fault-free model and keeps
        the flat-buffer fast path.
    watch_edges:
        Edges whose first crossing should be recorded (bridge-crossing
        experiments, Section 3.1).
    congest_bits:
        When set, any payload larger than this many bits raises
        :class:`CongestViolation` — used to certify that the CONGEST
        algorithms really ship O(log n)-bit messages.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` receiving structured
        events (round begin/end, sends, deliveries, drops, crashes,
        wakeups, status transitions).  ``None`` (the default) costs one
        branch per send and per round.  Tracing never perturbs a run —
        a traced run's metrics and outcome are identical to the
        untraced run with the same seeds.
    timeline:
        Record a per-round time series
        (:class:`~repro.obs.timeline.Timeline`) of messages sent /
        delivered / dropped and the node-status census, surfaced as
        ``RunResult.timeline``.  Off by default for the same reason.
    """

    #: Whether every booked delivery is also handed to :meth:`_transmit`
    #: (set by the socket driver).  The in-memory buffers stay the
    #: reference either way: they decide who is owed how many frames.
    _wired = False

    def __init__(self, network: Network, process_factory: ProcessFactory, *,
                 seed: int = 0,
                 knowledge: Optional[Mapping[str, int]] = None,
                 wakeup: Optional[WakeupModel] = None,
                 model: Optional[ExecutionModel] = None,
                 watch_edges: Optional[Set[Tuple[int, int]]] = None,
                 record_sends: bool = False,
                 congest_bits: Optional[int] = None,
                 tracer: Optional["Tracer"] = None,
                 timeline: bool = False) -> None:
        self.network = network
        self.seed = seed
        self.knowledge: Mapping[str, int] = dict(knowledge or {})
        self._congest_bits = congest_bits
        self.metrics = Metrics(watch_edges=watch_edges, record_sends=record_sends)
        #: Lazy-envelope fast path: edge watches and send recording are
        #: the only consumers of per-send Envelope objects.
        self._fast_sends = not record_sends and not watch_edges
        self._tracer = tracer
        self.model = model if model is not None else SYNCHRONOUS
        n = network.num_nodes
        self._processes: List[NodeProcess] = [process_factory() for _ in range(n)]
        self._contexts: List[NodeContext] = [NodeContext(self, i) for i in range(n)]
        self._started: List[bool] = [False] * n

        wake_model = wakeup if wakeup is not None else self.model.wakeup
        if wake_model is None:
            wake_model = Simultaneous()
        wake_rng = wakeup_rng(seed)
        self._wake_schedule = wake_model.schedule(n, wake_rng)
        self._pending_wakeups: Dict[int, List[int]] = {}
        for i, r in enumerate(self._wake_schedule):
            if r is not None:
                self._pending_wakeups.setdefault(r, []).append(i)
        #: Distinct spontaneous-wakeup rounds, min-heap ordered.
        self._wakeup_heap: List[int] = sorted(self._pending_wakeups)

        # Flat delivery buffers: under the synchronous model messages
        # always deliver exactly one round after they are sent, so a
        # single node->inbox map plus the scalar round it belongs to
        # replaces a nested Dict[round, Dict[node, List[Delivery]]].
        self._inboxes: Dict[int, List[Delivery]] = {}
        self._delivery_round: Optional[int] = None

        self._alarm_heap: List[Tuple[int, int]] = []
        self._alarm_set: Set[Tuple[int, int]] = set()
        self._current_round = 0
        #: Nodes whose alarms fired in the current round.
        self._fired: Set[int] = set()
        self._ran = False
        self._truncated = False

        # Hot-path views of the network's flat port tables.
        self._port_table = network.port_table
        self._peer_table = network.peer_port_table

        # Observation only reads state the run produces anyway — it
        # draws no randomness and reorders nothing, so a traced run is
        # bit-identical to the untraced one (tests/test_obs.py).
        self._observed = tracer is not None or timeline
        if timeline:
            from ..obs.timeline import Timeline
            self.metrics.timeline = Timeline()
        #: (sent, dropped, activations) when the current round opened.
        self._round_base = (0, 0, 0)
        #: Messages handed to receivers in the current round.
        self._round_delivered = 0

        #: General (modeled) path: delays in [1, Δ], loss, crash-stop.
        self._modeled = not self.model.is_synchronous
        if self._modeled:
            mdl = self.model
            self._delta = mdl.delay.max_delay
            self._delay_policy = mdl.delay
            self._loss = mdl.loss
            #: Delay and loss draws, consumed in send order; reproducible
            #: from (simulator seed, model seed) alone.
            self._model_rng = random.Random(f"model:{seed}:{mdl.seed}")
            crash_map = mdl.crash.schedule(
                n, random.Random(f"crash:{seed}:{mdl.seed}"))
            self._crash_heap: List[Tuple[int, int]] = sorted(
                (r, node) for node, r in crash_map.items())
            #: Ring of Δ delivery buffers, slot = delivery_round mod Δ;
            #: each occupied slot is ``[round, {dst: [Delivery]}, count]``.
            self._ring: List[Optional[list]] = [None] * self._delta

        # Broadcast aggregation (complete graphs, default model, event
        # loop only): a full broadcast is buffered as one (src, payload)
        # record instead of deg(src) inbox appends, and receivers'
        # inboxes are expanded lazily one node at a time during the
        # round.  On a clique this halves per-message work and caps
        # buffered delivery state at O(n) records instead of O(n^2)
        # Delivery objects.  Observed runs take the plain path:
        # per-receiver deliver counts require expanded inboxes, and
        # plain == aggregated is already bit-identical
        # (test_implicit.py), so nothing observable moves.  Point sends
        # carry a *mark* (the number of broadcast records buffered at
        # submission time) so lazy expansion interleaves them with
        # broadcast-derived deliveries in exact submission order.
        self._aggregate = (not self._wired and not self._modeled
                           and self._fast_sends and not self._observed
                           and bool(getattr(network.topology, "is_complete",
                                            False)))
        if self._aggregate:
            #: dst -> ([Delivery, ...], [mark, ...]) for point/partial sends.
            self._point_box: Dict[int, Tuple[List[Delivery], List[int]]] = {}
            #: One (src, payload) record per full broadcast, in send order.
            self._bcast_records: List[Tuple[int, Payload]] = []

    # ------------------------------------------------------------------
    # Hooks used by NodeContext
    # ------------------------------------------------------------------
    def _submit_send(self, src: int, port: int, payload: Payload) -> None:
        size = payload.size_bits()  # memoized; shared with the metrics
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation(
                f"payload {payload.kind()} is {size} bits "
                f"(> CONGEST limit of {self._congest_bits})")
        dst = self._port_table[src][port]
        dst_port = self._peer_table[src][port]
        r = self._current_round
        if self._modeled:
            if self._fast_sends:
                # Watches force the envelope path, so no crossing can be
                # misattributed here — this branch only counts.
                self.metrics.record_send(src, dst, payload.kind(), size, r)
            self._post_modeled(src, dst, dst_port, payload, size, r)
            return
        if self._fast_sends:
            self.metrics.record_send(src, dst, payload.kind(), size, r)
        else:
            self.metrics.on_send(Envelope(
                src=src, dst=dst, dst_port=dst_port, payload=payload,
                sent_round=r))
        if self._aggregate:
            entry = self._point_box.get(dst)
            if entry is None:
                entry = self._point_box[dst] = ([], [])
            entry[0].append(Delivery(dst_port, payload))
            entry[1].append(len(self._bcast_records))
        else:
            inboxes = self._inboxes
            box = inboxes.get(dst)
            if box is None:
                box = inboxes[dst] = []
            box.append(Delivery(dst_port, payload))
            if self._wired:
                self._transmit(src, dst, dst_port, payload, r + 1)
        if self._tracer is not None:
            self._tracer.send(r, src, payload.kind(), size, 1, dst=dst)
        self._delivery_round = r + 1

    def _submit_multicast(self, src: int, ports: Sequence[int],
                          payload: Payload) -> None:
        """Batched send of one payload over several ports.

        Semantically identical to ``_submit_send`` per port (in the
        given port order) but pays the CONGEST check, size computation,
        and metrics update once for the whole fan-out.  On the general
        path loss and delay are still drawn per message — each edge of
        the fan-out is an independent link.
        """
        size = payload.size_bits()
        if self._congest_bits is not None and size > self._congest_bits:
            raise CongestViolation(
                f"payload {payload.kind()} is {size} bits "
                f"(> CONGEST limit of {self._congest_bits})")
        port_row = self._port_table[src]
        peer_row = self._peer_table[src]
        r = self._current_round
        if self._fast_sends:
            self.metrics.record_broadcast(src, payload.kind(), size,
                                          len(ports))
        if self._modeled:
            for port in ports:
                self._post_modeled(src, port_row[port], peer_row[port],
                                   payload, size, r)
            return
        if self._aggregate:
            if len(ports) == self.network.degree(src):
                # All ports (claim_ports guarantees distinctness): this
                # is a full broadcast regardless of port order.
                self._bcast_records.append((src, payload))
            else:
                box = self._point_box
                mark = len(self._bcast_records)
                for port in ports:
                    dst = port_row[port]
                    entry = box.get(dst)
                    if entry is None:
                        entry = box[dst] = ([], [])
                    entry[0].append(Delivery(peer_row[port], payload))
                    entry[1].append(mark)
            self._delivery_round = r + 1
            return
        inboxes = self._inboxes
        for port in ports:
            dst = port_row[port]
            box = inboxes.get(dst)
            if box is None:
                box = inboxes[dst] = []
            box.append(Delivery(peer_row[port], payload))
        if not self._fast_sends:
            for port in ports:
                self.metrics.on_send(Envelope(
                    src=src, dst=port_row[port], dst_port=peer_row[port],
                    payload=payload, sent_round=r))
        if self._wired:
            for port in ports:
                self._transmit(src, port_row[port], peer_row[port],
                               payload, r + 1)
        if self._tracer is not None:
            self._tracer.send(r, src, payload.kind(), size, len(ports))
        self._delivery_round = r + 1

    def _submit_broadcast(self, src: int, payload: Payload) -> None:
        """Full fan-out of one payload over every port of ``src``, in
        port order (one record on the aggregated path)."""
        self._submit_multicast(src, range(self.network.degree(src)), payload)

    def _post_modeled(self, src: int, dst: int, dst_port: int,
                      payload: Payload, size: int, r: int) -> None:
        """One message on the general path: loss draw, accounting, and
        delay draw into the delivery ring.

        The sampled delay is hard-checked against ``[1, Δ]`` — a rogue
        :class:`~repro.sim.models.DelayPolicy` returning anything else
        would silently land in another round's ring slot, so it fails
        loudly here instead.
        """
        loss = self._loss
        lost = not loss.is_null and loss.drops(src, dst, r, self._model_rng)
        if not self._fast_sends:
            self.metrics.on_send(Envelope(
                src=src, dst=dst, dst_port=dst_port, payload=payload,
                sent_round=r), crossed=not lost)
        tracer = self._tracer
        if tracer is not None:
            tracer.send(r, src, payload.kind(), size, 1, dst=dst)
            if lost:
                tracer.drop(r, "loss", 1, src=src, dst=dst)
        if lost:
            self.metrics.messages_dropped += 1
            return
        delta = self._delta
        d = self._delay_policy.sample(src, dst, r, self._model_rng)
        if not 1 <= d <= delta:
            raise ModelViolation(
                f"delay policy returned {d} for ({src} -> {dst}), "
                f"outside [1, {delta}]")
        dr = r + d
        slot = self._ring[dr % delta]
        if slot is None:
            slot = self._ring[dr % delta] = [dr, {}, 0]
        box = slot[1].get(dst)
        if box is None:
            box = slot[1][dst] = []
        box.append(Delivery(dst_port, payload))
        slot[2] += 1
        if self._wired:
            self._transmit(src, dst, dst_port, payload, dr)

    def _transmit(self, src: int, dst: int, dst_port: int,
                  payload: Payload, delivery_round: int) -> None:
        """Transport hook for one booked delivery (wired drivers only)."""
        raise NotImplementedError

    def _submit_alarm(self, node: int, round_index: int) -> None:
        key = (round_index, node)
        if key not in self._alarm_set:
            self._alarm_set.add(key)
            heapq.heappush(self._alarm_heap, key)

    def _note_activity(self, round_index: int) -> None:
        self.metrics.on_activity(round_index)

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: Optional[int] = None, *,
            raise_on_limit: bool = False) -> RunResult:
        """Execute until quiescence (or ``max_rounds``) and return the result.

        Quiescence means: no messages in flight, no pending alarms, no
        future spontaneous wakeups — by induction nothing can ever happen
        again, so the run's outcome is final.
        """
        limit = self._begin_run(max_rounds)
        activate = self._activate
        while True:
            r = self._next_round(limit, raise_on_limit)
            if r is None:
                break
            if self._aggregate:
                self._run_round_agg(r)
            else:
                inboxes = self._open_round(r)
                for idx in self._plan_round(r, inboxes):
                    activate(idx, r, inboxes.get(idx, []))
            self._close_round(r)
        return self._end_run()

    def _begin_run(self, max_rounds: Optional[int]) -> int:
        """Mark this single-use instance as run; return the round limit."""
        if self._ran:
            raise RuntimeError(f"{type(self).__name__} instances are single-use")
        self._ran = True
        if self._tracer is not None:
            self._tracer.run_begin(n=self.network.num_nodes,
                                   m=self.network.num_edges,
                                   seed=self.seed,
                                   model=self.model.describe())
        return max_rounds if max_rounds is not None else DEFAULT_MAX_ROUNDS

    def _next_round(self, limit: int, raise_on_limit: bool) -> Optional[int]:
        """Advance to the next event round; ``None`` once the run is over.

        Peeks at the monotone event sources: the delivery buffers, the
        alarm and wakeup heaps and, on the general path, the crash
        heap.  Crash rounds are event rounds *while alarms or
        spontaneous wakeups are pending*: applying a crash at its
        scheduled round halts the victim and thereby prunes its alarms
        and its unspent wakeup — a crashed node's far-future alarm or
        wakeup must not keep an otherwise quiescent run alive.  With
        neither pending, lazy application suffices (deliveries apply
        due crashes at their own rounds), so a crash scheduled past
        quiescence neither truncates the run nor executes empty rounds.
        """
        # Alarms belonging to halted nodes can never cause activity;
        # discard them so they don't keep an otherwise-finished run
        # alive (e.g. the never-taken 2^ID steps of destroyed Theorem
        # 4.1 agents).
        heap = self._alarm_heap
        contexts = self._contexts
        while heap and contexts[heap[0][1]]._halted:
            self._alarm_set.discard(heapq.heappop(heap))
        wakeups = self._wakeup_heap
        if self._modeled:
            # Likewise wakeup rounds owed entirely to halted (e.g.
            # crashed) nodes.
            pending = self._pending_wakeups
            while wakeups:
                nodes = pending.get(wakeups[0])
                if nodes and not all(contexts[i]._halted for i in nodes):
                    break
                pending.pop(heapq.heappop(wakeups), None)
            due = [slot[0] for slot in self._ring if slot is not None]
            if self._crash_heap and (heap or wakeups):
                due.append(self._crash_heap[0][0])
        else:
            due = [] if self._delivery_round is None else [self._delivery_round]
        if heap:
            due.append(heap[0][0])
        if wakeups:
            due.append(wakeups[0])
        if not due:
            return None
        r = min(due)
        if r > limit:
            self._truncated = True
            if raise_on_limit:
                raise RoundLimitExceeded(limit)
            return None
        self._current_round = r
        return r

    def _open_round(self, r: int) -> Dict[int, List[Delivery]]:
        """Step 1: begin round ``r`` and take its due deliveries.

        On the general path, crash-stop faults due by now fire before
        anything else in the round: a node crashed at round c performs
        no action at c or later, and deliveries addressed to it die with
        it (counted as dropped).
        """
        tracer = self._tracer
        if self._observed:
            if tracer is not None:
                tracer.round_begin(r)
                woken = self._pending_wakeups.get(r)
                if woken:
                    tracer.wakeup(r, sorted(woken))
            metrics = self.metrics
            self._round_base = (metrics.messages, metrics.messages_dropped,
                                metrics.activations)
        if self._modeled:
            inboxes = self._take_modeled(r)
        elif self._delivery_round == r:
            inboxes = self._inboxes
            # Fresh buffer: sends made *during* this round target r + 1.
            self._inboxes = {}
            self._delivery_round = None
        else:
            inboxes = {}
        if self._observed:
            delivered = 0
            for node in sorted(inboxes):
                count = len(inboxes[node])
                delivered += count
                if tracer is not None:
                    tracer.deliver(r, node, count)
            self._round_delivered = delivered
        return inboxes

    def _take_modeled(self, r: int) -> Dict[int, List[Delivery]]:
        """General-path step 1: ring-slot delivery, crash application,
        and delivered/dropped accounting."""
        ring = self._ring
        slot = ring[r % self._delta]
        if slot is not None and slot[0] == r:
            _, inboxes, delivered = slot
            ring[r % self._delta] = None
        else:
            inboxes, delivered = {}, 0
        crash_heap = self._crash_heap
        while crash_heap and crash_heap[0][0] <= r:
            self._crash_node(r, heapq.heappop(crash_heap)[1])
        if inboxes and self.metrics.crashed_nodes:
            contexts = self._contexts
            for idx in [i for i in inboxes if contexts[i]._crashed]:
                dead = len(inboxes.pop(idx))
                delivered -= dead
                self.metrics.messages_dropped += dead
                if self._tracer is not None:
                    self._tracer.drop(r, "crash", dead, dst=idx)
        self.metrics.messages_delivered += delivered
        return inboxes

    def _crash_node(self, r: int, node: int) -> None:
        """Fire one scheduled crash-stop fault."""
        self._contexts[node]._crash()
        self.metrics.crashed_nodes.append(node)
        if self._tracer is not None:
            self._tracer.crash(r, node)

    def _due_timers(self, r: int) -> Tuple[List[int], Set[int]]:
        """Pop the nodes woken spontaneously at ``r`` and those whose
        alarms fire by ``r``; the latter also become :attr:`_fired`."""
        woken = self._pending_wakeups.pop(r, [])
        wakeups = self._wakeup_heap
        while wakeups and wakeups[0] <= r:
            heapq.heappop(wakeups)
        fired: Set[int] = set()
        heap = self._alarm_heap
        while heap and heap[0][0] <= r:
            key = heapq.heappop(heap)
            self._alarm_set.discard(key)
            fired.add(key[1])
        self._fired = fired
        return woken, fired

    def _plan_round(self, r: int,
                    inboxes: Dict[int, List[Delivery]]) -> List[int]:
        """Step 2: the nodes to activate, in ascending order.

        Every woken, alarmed or receiving node counts as an activation;
        halted ones are then skipped.  Only a node's own activation can
        halt it, so skipping them up front is exact.
        """
        woken, fired = self._due_timers(r)
        if woken or fired:
            active = sorted(set(woken) | inboxes.keys() | fired)
        else:
            active = sorted(inboxes)
        if inboxes:
            # Message deliveries mark activity even if receivers are halted.
            self.metrics.on_activity(r)
        self.metrics.activations += len(active)
        contexts = self._contexts
        return [idx for idx in active if not contexts[idx]._halted]

    def _activate(self, idx: int, r: int, inbox: List[Delivery]) -> None:
        """Step 3: one node's activation in round ``r``; its round
        handler runs if it received messages or an alarm fired."""
        ctx = self._contexts[idx]
        ctx._round = r
        if ctx._outbox:
            ctx._flush_outbox()
        if not self._started[idx]:
            # A sleeping node woken by a message runs its wakeup code
            # before processing the inbox (Theorem 4.1's wakeup phase
            # relies on this ordering).
            self._started[idx] = True
            self.metrics.on_activity(r)
            self._processes[idx].on_start(ctx)
        if inbox or idx in self._fired:
            self._processes[idx].on_round(ctx, inbox)

    def _close_round(self, r: int) -> None:
        """Step 4: count the round; observed runs record its census."""
        metrics = self.metrics
        metrics.rounds_executed += 1
        if not self._observed:
            return
        sent0, dropped0, active0 = self._round_base
        undecided = elected = 0
        for ctx in self._contexts:
            status = ctx._status
            if status is Status.UNDECIDED:
                undecided += 1
            elif status is Status.ELECTED:
                elected += 1
        row = dict(sent=metrics.messages - sent0,
                   delivered=self._round_delivered,
                   dropped=metrics.messages_dropped - dropped0,
                   active=metrics.activations - active0,
                   undecided=undecided, elected=elected)
        if metrics.timeline is not None:
            metrics.timeline.append(round=r, **row)
        if self._tracer is not None:
            self._tracer.round_end(r, **row)

    def _end_run(self) -> RunResult:
        if not self._modeled:
            # Fast-path delivered accounting, settled once instead of
            # per send: without loss or crashes every sent message is
            # delivered except those still buffered at truncation.
            if self._aggregate:
                degree = self.network.degree
                pending = (sum(len(e[0]) for e in self._point_box.values())
                           + sum(degree(src)
                                 for src, _ in self._bcast_records))
            else:
                pending = sum(map(len, self._inboxes.values()))
            self.metrics.messages_delivered = self.metrics.messages - pending
        if self._tracer is not None:
            self._tracer.run_end(self._truncated, self.metrics.summary())
        return RunResult(
            network=self.network,
            statuses=[ctx.status for ctx in self._contexts],
            outputs=[ctx.output for ctx in self._contexts],
            metrics=self.metrics,
            truncated=self._truncated,
            wake_schedule=list(self._wake_schedule),
        )

    # ------------------------------------------------------------------
    # Aggregated rounds (complete graphs, default model, event loop)
    # ------------------------------------------------------------------
    def _run_round_agg(self, r: int) -> None:
        """Steps 1–3 on the aggregated path: same activation semantics
        and ordering as the plain steps, but each receiver's inbox is
        expanded from the broadcast records *on demand*, right before
        its activation, and discarded after — peak delivery state is
        one inbox plus the records, never the full O(Σ deg) expansion.

        On a clique, one broadcast record reaches every node but its
        sender, so with two or more distinct senders the active set is
        all of V; with one sender it is V minus that sender (unless a
        point send, wakeup, or alarm targets it too).
        """
        if self._delivery_round == r:
            points = self._point_box
            records = self._bcast_records
            # Fresh buffers: sends made *during* this round target r + 1.
            self._point_box = {}
            self._bcast_records = []
            self._delivery_round = None
        else:
            points, records = {}, []
        woken, fired = self._due_timers(r)

        n = self.network.num_nodes
        skip: Optional[int] = None
        if records:
            srcs = {src for src, _ in records}
            if len(srcs) == 1:
                (sole,) = srcs
                if (sole not in points and sole not in fired
                        and sole not in woken):
                    skip = sole
            active: Sequence[int] = range(n)
            count = n - (skip is not None)
        else:
            if woken or fired:
                active = sorted(set(woken) | points.keys() | fired)
            else:
                active = sorted(points)
            count = len(active)
        if points or records:
            # Message deliveries mark activity even if receivers are halted.
            self.metrics.on_activity(r)
        self.metrics.activations += count

        contexts = self._contexts
        expand = self.network.expand_broadcasts
        for idx in active:
            if idx == skip or contexts[idx]._halted:
                continue
            entry = points.get(idx)
            if records:
                if entry is None:
                    inbox = expand(idx, records, Delivery)
                else:
                    inbox = self._merge_inbox(idx, entry, records)
            else:
                inbox = entry[0] if entry is not None else []
            self._activate(idx, r, inbox)

    def _merge_inbox(self, idx: int,
                     entry: Tuple[List[Delivery], List[int]],
                     records: List[Tuple[int, Payload]]) -> List[Delivery]:
        """Interleave one receiver's point deliveries with its broadcast
        expansions by submission order.

        ``entry`` holds the point deliveries plus, per delivery, the
        number of broadcast records buffered when it was submitted — a
        point delivery with mark ``k`` was sent after records
        ``0 .. k-1`` and before record ``k``.
        """
        pts, marks = entry
        inbound = self.network.inbound_ports(idx)
        out: List[Delivery] = []
        pi = 0
        npts = len(pts)
        for ri, (src, payload) in enumerate(records):
            while pi < npts and marks[pi] <= ri:
                out.append(pts[pi])
                pi += 1
            if src != idx:
                out.append(Delivery(inbound[src], payload))
        if pi < npts:
            out.extend(pts[pi:])
        return out

    # ------------------------------------------------------------------
    # Introspection helpers (tests / experiments)
    # ------------------------------------------------------------------
    @property
    def processes(self) -> Sequence[NodeProcess]:
        return self._processes

    @property
    def contexts(self) -> Sequence[NodeContext]:
        return self._contexts

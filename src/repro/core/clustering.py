"""Theorem 4.7 / Algorithm 1: the clustering election.

Paper claim
-----------
:Result:    Theorem 4.7 / Algorithm 1
:Time:      O(D log n)
:Messages:  O(m + n log n)
:Knowledge: n

Three phases (knowledge: ``n``):

* **Phase 1 — cluster construction.**  Each node becomes a candidate
  with probability ``8·ln n / n`` (Θ(log n) candidates w.h.p.).  Every
  candidate grows a BFS tree by flooding ``JOIN`` requests; a
  non-candidate joins the first request it receives (ties broken toward
  the larger cluster ID), forwards the request once, and ACKs its
  parent.  Because every node forwards its cluster label to all
  non-parent neighbors, each node ends the phase knowing, per port, the
  neighbor's cluster and ID — in particular its incident *inter-cluster*
  edges.  O(m) messages, O(D) rounds.

* **Phase 2 — sparsify inter-cluster edges.**  Each node's local
  inter-cluster graph (one candidate edge per adjacent cluster pair,
  lexicographically smallest endpoint IDs) is convergecast up the BFS
  tree, merged and re-sparsified at every hop, until the candidate
  (root) holds the global sparsified inter-cluster graph — at most one
  edge per cluster pair, i.e. O(log² n) entries w.h.p.  The root then
  broadcasts it back down.  Graphs are shipped as streams of
  O(log n)-bit per-edge fragments over tree edges only, so the phase
  costs O(n · log² n / log n)-ish fragment messages and O(D log n)
  rounds w.h.p. (the paper packs labels a bit tighter; DESIGN.md §7).

* **Phase 3 — election on the overlay.**  Every node computes its
  *active* ports — BFS-tree edges plus the surviving inter-cluster
  edges — and runs the Theorem 4.4 election with ``f(n) = n`` (all
  nodes candidates) restricted to that overlay.  The overlay is
  connected (one edge survives per adjacent cluster pair) with diameter
  O(D log n), and has only O(n + log² n) edges, so this phase adds
  O(n log n) messages and O(D log n) rounds.

Totals: O(m + n log n) messages and O(D log n) rounds, w.h.p., with the
election succeeding whenever at least one candidate exists (w.h.p.).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..graphs.ids import id_space_size
from ..sim.message import Payload
from ..sim.process import Delivery, NodeContext
from .base import ElectionProcess, require_knowledge
from .waves import ExtinctionWave, Key

#: (cluster_lo, cluster_hi) -> (uid_lo, uid_hi): one edge per cluster pair.
InterEdge = Tuple[int, int, int, int]

TAG_ELECT = "alg1-elect"


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinMsg(Payload):
    """Phase 1 BFS growth: 'join cluster ``cluster``' (from ``sender_uid``)."""

    cluster: int
    sender_uid: int


@dataclass(frozen=True)
class JoinAckMsg(Payload):
    """Phase 1: 'I joined through you' (parent records a child port)."""


@dataclass(frozen=True)
class InterHeaderMsg(Payload):
    """Phase 2 stream header: ``count`` edge fragments follow.

    ``down`` distinguishes the root's broadcast from the convergecast.
    """

    count: int
    down: bool


@dataclass(frozen=True)
class InterEdgeMsg(Payload):
    """One inter-cluster edge fragment (O(log n) bits)."""

    c_lo: int
    c_hi: int
    uid_lo: int
    uid_hi: int
    down: bool


def candidate_probability(n: int) -> float:
    """The paper's Phase-1 rate: 8·log n / n, capped at 1."""
    return min(1.0, 8.0 * math.log(max(2, n)) / n)


def sparsify(edges: Dict[Tuple[int, int], Tuple[int, int]],
             updates: List[InterEdge]) -> None:
    """Keep the lexicographically smallest edge per cluster pair."""
    for c_lo, c_hi, u_lo, u_hi in updates:
        pair = (c_lo, c_hi)
        edge = (u_lo, u_hi)
        if pair not in edges or edge < edges[pair]:
            edges[pair] = edge


class ClusteringElection(ElectionProcess):
    """O(D log n)-time, O(m + n log n)-message election (Algorithm 1)."""

    def __init__(self, rate: "Optional[Callable[[int], float]]" = None) -> None:
        #: Phase-1 candidate probability as a function of n (defaults to
        #: the paper's 8·ln n / n); exposed for the candidate-rate
        #: ablation in ``tests/test_clustering.py::TestCustomRate``.
        self._rate = rate if rate is not None else candidate_probability
        # Phase 1 state
        self._cluster: Optional[int] = None
        self._is_candidate = False
        self._parent_port: Optional[int] = None
        self._children: Set[int] = set()
        self._neighbor_info: Dict[int, Tuple[int, int]] = {}  # port -> (cluster, uid)
        self._join_round: Optional[int] = None
        self._local_ready = False
        # Phase 2 state
        self._inter: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._stream_expect: Dict[int, Optional[int]] = {}  # port -> remaining
        self._children_done: Set[int] = set()
        self._sent_up = False
        self._final: Optional[Set[InterEdge]] = None
        self._down_expect: Optional[int] = None
        self._down_buffer: List[InterEdge] = []
        # Phase 3 state
        self._wave: Optional[ExtinctionWave] = None
        self._stash: List[Delivery] = []

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self._n = require_knowledge(ctx, "n")
        if ctx.rng.random() < self._rate(self._n):
            self._is_candidate = True
            self._cluster = ctx.uid
            self._join_round = ctx.round
            ctx.output["candidate"] = True
            for port in ctx.ports:
                ctx.send_soon(port, JoinMsg(ctx.uid, ctx.uid))
            ctx.set_alarm_in(3)

    # ------------------------------------------------------------------
    def on_round(self, ctx: NodeContext, inbox: List[Delivery]) -> None:
        joins: List[Tuple[int, JoinMsg]] = []
        for port, payload in inbox:
            if isinstance(payload, JoinMsg):
                joins.append((port, payload))
            elif isinstance(payload, JoinAckMsg):
                self._children.add(port)
            elif isinstance(payload, InterHeaderMsg):
                self._on_header(ctx, port, payload)
            elif isinstance(payload, InterEdgeMsg):
                self._on_edge(ctx, port, payload)
            else:
                self._stash.append(Delivery(port, payload))
        if joins:
            self._on_joins(ctx, joins)
        # Local info becomes final 3 rounds after joining.
        if (not self._local_ready and self._join_round is not None
                and ctx.round >= self._join_round + 3):
            self._local_ready = True
            self._build_local_inter(ctx)
        self._maybe_send_up(ctx)
        if self._wave is not None and self._stash:
            pending, self._stash = self._stash, []
            rest = self._wave.handle(ctx, pending)
            assert not rest, f"unexpected messages: {rest}"

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _on_joins(self, ctx: NodeContext, joins: List[Tuple[int, JoinMsg]]) -> None:
        for port, msg in joins:
            self._neighbor_info[port] = (msg.cluster, msg.sender_uid)
        if self._cluster is None:
            # Adopt: largest cluster ID among simultaneous arrivals.
            port, msg = max(joins, key=lambda pm: (pm[1].cluster, -pm[0]))
            self._cluster = msg.cluster
            self._parent_port = port
            self._join_round = ctx.round
            ctx.send_soon(port, JoinAckMsg())
            for p in ctx.ports:
                if p != port:
                    ctx.send_soon(p, JoinMsg(msg.cluster, ctx.uid))
            ctx.set_alarm_in(3)

    def _build_local_inter(self, ctx: NodeContext) -> None:
        assert self._cluster is not None
        updates: List[InterEdge] = []
        for port, (cluster, uid) in self._neighbor_info.items():
            if cluster == self._cluster:
                continue
            c_lo, c_hi = sorted((self._cluster, cluster))
            u_lo, u_hi = sorted((ctx.uid, uid))
            updates.append((c_lo, c_hi, u_lo, u_hi))
        sparsify(self._inter, updates)
        for port in self._children:
            self._stream_expect.setdefault(port, None)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _on_header(self, ctx: NodeContext, port: int, msg: InterHeaderMsg) -> None:
        if msg.down:
            self._down_expect = msg.count
            self._maybe_finish_down(ctx)
        else:
            self._stream_expect[port] = msg.count
            if msg.count == 0:
                self._children_done.add(port)

    def _on_edge(self, ctx: NodeContext, port: int, msg: InterEdgeMsg) -> None:
        entry = (msg.c_lo, msg.c_hi, msg.uid_lo, msg.uid_hi)
        if msg.down:
            self._down_buffer.append(entry)
            self._maybe_finish_down(ctx)
        else:
            sparsify(self._inter, [entry])
            remaining = self._stream_expect.get(port)
            assert remaining is not None and remaining > 0
            self._stream_expect[port] = remaining - 1
            if remaining - 1 == 0:
                self._children_done.add(port)

    def _maybe_send_up(self, ctx: NodeContext) -> None:
        if self._sent_up or not self._local_ready:
            return
        if self._children_done != self._children:
            return
        self._sent_up = True
        entries = [(c[0], c[1], e[0], e[1]) for c, e in sorted(self._inter.items())]
        if self._is_candidate:
            # Root: the merged graph is final; broadcast it down.
            self._final = set(entries)
            self._broadcast_down(ctx, entries)
            self._start_election(ctx)
        else:
            assert self._parent_port is not None
            ctx.send_soon(self._parent_port,
                          InterHeaderMsg(len(entries), down=False))
            for entry in entries:
                ctx.send_soon(self._parent_port, InterEdgeMsg(*entry, down=False))

    def _broadcast_down(self, ctx: NodeContext, entries: List[InterEdge]) -> None:
        for port in sorted(self._children):
            ctx.send_soon(port, InterHeaderMsg(len(entries), down=True))
            for entry in entries:
                ctx.send_soon(port, InterEdgeMsg(*entry, down=True))

    def _maybe_finish_down(self, ctx: NodeContext) -> None:
        if (self._final is None and self._down_expect is not None
                and len(self._down_buffer) == self._down_expect):
            self._final = set(self._down_buffer)
            self._broadcast_down(ctx, sorted(self._final))
            self._start_election(ctx)

    # ------------------------------------------------------------------
    # Phase 3
    # ------------------------------------------------------------------
    def _active_ports(self, ctx: NodeContext) -> List[int]:
        assert self._final is not None and self._cluster is not None
        ports: Set[int] = set(self._children)
        if self._parent_port is not None:
            ports.add(self._parent_port)
        for port, (cluster, uid) in self._neighbor_info.items():
            if cluster == self._cluster:
                continue
            c_lo, c_hi = sorted((self._cluster, cluster))
            u_lo, u_hi = sorted((ctx.uid, uid))
            if (c_lo, c_hi, u_lo, u_hi) in self._final:
                ports.add(port)
        return sorted(ports)

    def _start_election(self, ctx: NodeContext) -> None:
        ports = self._active_ports(ctx)
        ctx.output["overlay_degree"] = len(ports)
        rank = ctx.rng.randint(1, id_space_size(self._n))
        self._wave = ExtinctionWave(
            TAG_ELECT, ports, (rank, ctx.uid),
            on_won=self._won, on_finished=self._finished)
        self._wave.start(ctx)

    def _won(self, ctx: NodeContext) -> Tuple[int, ...]:
        ctx.elect()
        return ()

    def _finished(self, ctx: NodeContext, key: Key, data: Tuple[int, ...],
                  is_winner: bool) -> None:
        if not is_winner:
            ctx.set_non_elected()
        ctx.output["leader_uid"] = key[-1]
        ctx.halt()

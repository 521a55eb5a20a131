"""Theorem 4.10 / Algorithm 2: the "Double-Win Growing Kingdom" election.

Paper claim
-----------
:Result:    Theorem 4.10 / Algorithm 2
:Time:      O(D log n)
:Messages:  O(m log n), deterministic
:Knowledge: none (D for the known-D variant)

Deterministic election in which leader candidates grow BFS *kingdoms*
phase by phase, with a 4-stage election per phase (the paper's ELECT /
ACK / CONFIRM / VICTOR messages).  The double-win idea: a candidate
survives a phase only if it beats not just its colliding neighbors but
also their neighbors (it wins over its whole 2-neighborhood in the
*kingdom graph*), which at least halves the candidate count per phase
(Lemma 4.8) while spending O(m) messages per phase (Lemma 4.9).

Realization in this reproduction
--------------------------------
We exploit the simultaneous-wakeup synchronous model to run globally
agreed phase windows, which every node can compute from the round
number alone (no knowledge of any parameter is needed):

* Phase ``p`` occupies rounds ``[T_p, T_p + 4·L_p)`` with stage length
  ``L_p = R_p + 1``, split into four equal stages.
* **Stage 1 (ELECT)** — every surviving candidate floods
  ``ELECT(p, id, ttl=R_p)``.  A non-candidate adopts the first arrival
  (highest ID among simultaneous ones), forwards it once to the ports it
  has not heard from, and records every other candidate ID it sees as a
  *collision observation*; candidates never adopt.  Nodes whose TTL
  expired send a PRESENT beacon on still-silent ports at the stage
  boundary, so a port silent through stage 1 certifies uncovered
  territory behind it (the *frontier* flag).
* **Stage 2 (ACK)** — time-driven convergecast along BFS-tree levels:
  a node of depth d sends its ACK at offset ``R_p - d``, aggregating the
  maximum foreign candidate ID observed in its subtree and the frontier
  flag.  The candidate ends the stage knowing ``M1 = max(own,
  foreign-in-kingdom)`` and whether its kingdom touched uncovered space.
* **Stage 3 (CONFIRM)** — the candidate broadcasts ``M1`` down its
  tree; border nodes also push it across border edges into neighboring
  kingdoms (the "inform your neighbors about this higher ID" half of
  double-win).
* **Stage 4 (VICTOR)** — convergecast of the maximum over received
  CONFIRMs (own kingdom's and cross-border ones): the candidate learns
  ``M2``, the largest candidate ID within two hops of the kingdom
  graph.  It survives iff ``M2`` equals its own ID; it *elects itself*
  iff additionally no foreign candidate was observed anywhere in its
  kingdom and no frontier was seen — i.e. its kingdom is the entire
  graph and it is alone.  The winner floods LEADER; everyone else ends
  non-elected.

Two radius schedules are provided:

* :class:`KnownDiameterKingdomElection` — ``R_p = D`` for all p, the
  simplified variant of Section 4.3 ("Knowledge of D"): candidates at
  least halve per phase, giving O(D log n) rounds and O(m log n)
  messages.  Knowledge: ``D``.
* :class:`KingdomElection` — ``R_p = 2^(p-1)`` (the paper's doubling
  radii) with no knowledge at all.  Message complexity stays
  O(m log n); the time is O(D log n) in the typical regime where
  collisions eliminate candidates while the radius is still growing.
  (The paper's fully event-driven phase scheduling, which guarantees
  O(D log n) time unconditionally, leaves several low-level collision
  details unspecified; DESIGN.md §7 records this deviation.)

Both variants are deterministic and always elect exactly one leader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..sim.message import Payload
from ..sim.process import Delivery, NodeContext
from .base import ElectionProcess, require_knowledge


# ----------------------------------------------------------------------
# Messages (all O(log n) bits)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElectMsg(Payload):
    """Stage 1: kingdom growth. ``ttl`` counts remaining hops."""

    phase: int
    candidate: int
    ttl: int


@dataclass(frozen=True)
class PresentMsg(Payload):
    """Stage-1 boundary beacon: 'this port leads to covered territory'."""

    phase: int
    candidate: int


@dataclass(frozen=True)
class AckMsg(Payload):
    """Stage 2 convergecast: subtree aggregate toward the candidate."""

    phase: int
    candidate: int
    foreign_max: int     # 0 = no foreign candidate observed
    frontier: bool


@dataclass(frozen=True)
class ConfirmMsg(Payload):
    """Stage 3 broadcast of M1 (also pushed across kingdom borders)."""

    phase: int
    candidate: int
    m1: int


@dataclass(frozen=True)
class VictorMsg(Payload):
    """Stage 4 convergecast of the 2-hop maximum."""

    phase: int
    candidate: int
    value: int


@dataclass(frozen=True)
class LeaderMsg(Payload):
    """Flooded by the unique survivor; everyone decides and halts."""

    leader_uid: int


# ----------------------------------------------------------------------
# Per-phase node state
# ----------------------------------------------------------------------
@dataclass
class PhaseState:
    phase: int
    start: int                   # T_p
    radius: int                  # R_p
    is_candidate: bool
    kingdom: int = 0             # candidate ID of the adopted kingdom
    depth: int = 0
    parent_port: Optional[int] = None
    received_from: Set[int] = field(default_factory=set)
    sent_to: Set[int] = field(default_factory=set)
    # Ports we forwarded ELECT through.  A port with no inbound traffic
    # and no outbound ELECT leads to territory this phase never covered:
    # PRESENT beacons must NOT count here (a beacon proves *we* exist,
    # not that the neighbor does — an idle neighbor never answers it).
    sent_elect: Set[int] = field(default_factory=set)
    children: Set[int] = field(default_factory=set)
    border_ports: Set[int] = field(default_factory=set)
    foreign_max: int = 0         # max foreign candidate ID seen/aggregated
    frontier: bool = False
    m1: int = 0
    confirm_seen: int = 0        # max of CONFIRM values heard (any source)
    victor_agg: int = 0
    member: bool = False         # adopted into some kingdom this phase

    @property
    def stage_len(self) -> int:
        return self.radius + 1

    # Stage boundary rounds -------------------------------------------------
    @property
    def t2(self) -> int:
        return self.start + self.stage_len

    @property
    def t3(self) -> int:
        return self.start + 2 * self.stage_len

    @property
    def t4(self) -> int:
        return self.start + 3 * self.stage_len

    @property
    def end(self) -> int:
        return self.start + 4 * self.stage_len

    def observe_foreign(self, port: int, candidate: int) -> None:
        self.border_ports.add(port)
        self.foreign_max = max(self.foreign_max, candidate)


class _KingdomBase(ElectionProcess):
    """Shared machinery; subclasses fix the radius schedule."""

    def __init__(self, double_win: bool = True) -> None:
        #: Ablation switch: with ``double_win=False`` a candidate's
        #: survival uses only M1 (its kingdom + direct neighbors),
        #: ignoring the CONFIRM/VICTOR 2-hop aggregation.  Correctness
        #: is unaffected (the elect condition is unchanged) but the
        #: halving guarantee of Lemma 4.8 is lost — star-like kingdom
        #: graphs keep all their leaf candidates alive.  Tested by
        #: ``tests/test_kingdom_ablation.py::TestAblationCost``.
        self.double_win = double_win
        self._alive = True          # still a candidate
        self._decided = False
        self._state: Optional[PhaseState] = None
        self._phases_run = 0
        self._survived = False
        self._elect_ready = False

    # -- radius schedule (subclass hook) --------------------------------
    def radius(self, ctx: NodeContext, phase: int) -> int:
        raise NotImplementedError

    def phase_start(self, ctx: NodeContext, phase: int) -> int:
        """T_p = sum of the first p-1 phase lengths (4·(R_q + 1))."""
        total = 0
        for q in range(1, phase):
            total += 4 * (self.radius(ctx, q) + 1)
        return total

    # ------------------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        if ctx.degree == 0:
            ctx.elect()
            ctx.halt()
            return
        self._begin_phase(ctx, 1)

    def _begin_phase(self, ctx: NodeContext, phase: int) -> None:
        self._phases_run = phase
        ctx.output["phases"] = phase
        state = PhaseState(phase=phase, start=self.phase_start(ctx, phase),
                           radius=self.radius(ctx, phase),
                           is_candidate=self._alive)
        self._state = state
        if state.is_candidate:
            state.kingdom = ctx.uid
            state.member = True
            state.sent_to = set(ctx.ports)
            state.sent_elect = set(ctx.ports)
            ctx.broadcast(ElectMsg(phase, ctx.uid, state.radius))
            # Candidates drive the phase clock: M1/CONFIRM at T2 + R,
            # decide at T4 + R, next phase at `end`.
            ctx.set_alarm_at(state.t2 + state.radius)
            ctx.set_alarm_at(state.t4 + state.radius)
            ctx.set_alarm_at(state.end)

    # ------------------------------------------------------------------
    def on_round(self, ctx: NodeContext, inbox: List[Delivery]) -> None:
        if self._decided:
            return
        # Process messages in stage order, and same-round ELECTs with the
        # highest candidate ID first (the paper's collision tie-break).
        stage_order = {ElectMsg: 0, PresentMsg: 1, AckMsg: 2,
                       ConfirmMsg: 3, VictorMsg: 4, LeaderMsg: -1}

        def sort_key(delivery: Delivery):
            payload = delivery.payload
            candidate = -payload.candidate if isinstance(payload, ElectMsg) else 0
            return (stage_order[type(payload)], candidate, delivery.port)

        for port, payload in sorted(inbox, key=sort_key):
            if isinstance(payload, LeaderMsg):
                self._on_leader(ctx, port, payload)
                return
            handler = {
                ElectMsg: self._on_elect,
                PresentMsg: self._on_present,
                AckMsg: self._on_ack,
                ConfirmMsg: self._on_confirm,
                VictorMsg: self._on_victor,
            }[type(payload)]
            handler(ctx, port, payload)
        if not self._decided:
            self._run_due_actions(ctx)

    # ------------------------------------------------------------------
    # Stage 1: ELECT + PRESENT
    # ------------------------------------------------------------------
    def _ensure_phase(self, ctx: NodeContext, phase: int) -> PhaseState:
        """Roll a non-candidate's state forward to ``phase``."""
        state = self._state
        if state is None or state.phase < phase:
            state = PhaseState(phase=phase,
                               start=self.phase_start(ctx, phase),
                               radius=self.radius(ctx, phase),
                               is_candidate=False)
            self._state = state
        return state

    def _on_elect(self, ctx: NodeContext, port: int, msg: ElectMsg) -> None:
        state = self._ensure_phase(ctx, msg.phase)
        if msg.phase < state.phase:
            return  # straggler from a finished phase (cannot happen with
                    # global windows, but drop defensively)
        state.received_from.add(port)
        if state.is_candidate or (state.member and msg.candidate != state.kingdom):
            # Collision with a foreign kingdom.
            state.observe_foreign(port, msg.candidate)
            return
        if state.member:
            return  # duplicate from our own kingdom
        # First arrival: adopt.  on_round sorts same-round ELECTs with
        # the highest candidate ID first, so ties go to the paper's
        # max-ID rule; later same-round ELECTs land in the
        # foreign-observation branch above.
        state.member = True
        state.kingdom = msg.candidate
        state.parent_port = port
        state.depth = ctx.round - state.start
        schedule_present = False
        if msg.ttl > 1:
            forward = [p for p in ctx.ports if p not in state.received_from]
            state.sent_to.update(forward)
            state.sent_elect.update(forward)
            ctx.multicast(forward, ElectMsg(msg.phase, msg.candidate,
                                            msg.ttl - 1))
        else:
            schedule_present = True
        # Convergecast / victor alarms (time-driven).
        ack_round = state.t2 + (state.radius - state.depth)
        victor_round = state.t4 + (state.radius - state.depth)
        if ack_round > ctx.round:
            ctx.set_alarm_at(ack_round)
        if victor_round > ctx.round:
            ctx.set_alarm_at(victor_round)
        if schedule_present:
            present_round = state.t2 - 1
            if present_round > ctx.round:
                ctx.set_alarm_at(present_round)
            elif present_round == ctx.round:
                self._send_present(ctx, state)

    def _on_present(self, ctx: NodeContext, port: int, msg: PresentMsg) -> None:
        state = self._ensure_phase(ctx, msg.phase)
        if msg.phase != state.phase:
            return
        state.received_from.add(port)
        if state.member and msg.candidate != state.kingdom:
            state.observe_foreign(port, msg.candidate)
        elif not state.member:
            # An uncovered node hears a beacon: nothing to do (it stays
            # idle this phase).
            pass

    def _send_present(self, ctx: NodeContext, state: PhaseState) -> None:
        quiet = [p for p in ctx.ports
                 if p not in state.received_from and p not in state.sent_to]
        state.sent_to.update(quiet)
        ctx.multicast(quiet, PresentMsg(state.phase, state.kingdom))

    # ------------------------------------------------------------------
    # Stage 2: ACK
    # ------------------------------------------------------------------
    def _on_ack(self, ctx: NodeContext, port: int, msg: AckMsg) -> None:
        state = self._state
        if state is None or msg.phase != state.phase or msg.candidate != state.kingdom:
            return
        state.children.add(port)
        state.foreign_max = max(state.foreign_max, msg.foreign_max)
        state.frontier = state.frontier or msg.frontier

    def _send_ack(self, ctx: NodeContext, state: PhaseState) -> None:
        # Frontier check: a port with no inbound traffic and no ELECT
        # forward leads to uncovered territory (PRESENT sends excluded —
        # see PhaseState.sent_elect).
        for p in ctx.ports:
            if p not in state.received_from and p not in state.sent_elect:
                state.frontier = True
        if state.parent_port is not None:
            ctx.send(state.parent_port,
                     AckMsg(state.phase, state.kingdom,
                            state.foreign_max, state.frontier))

    # ------------------------------------------------------------------
    # Stage 3: CONFIRM
    # ------------------------------------------------------------------
    def _on_confirm(self, ctx: NodeContext, port: int, msg: ConfirmMsg) -> None:
        state = self._state
        if state is None or msg.phase != state.phase:
            return
        if state.member and msg.candidate == state.kingdom:
            # Intra-kingdom broadcast from our parent: forward.
            state.m1 = msg.m1
            state.confirm_seen = max(state.confirm_seen, msg.m1)
            self._forward_confirm(ctx, state, msg.m1)
        else:
            # Cross-border CONFIRM from a neighboring kingdom.
            state.confirm_seen = max(state.confirm_seen, msg.m1)

    def _forward_confirm(self, ctx: NodeContext, state: PhaseState, m1: int) -> None:
        targets = sorted(state.children)
        targets += [p for p in sorted(state.border_ports)
                    if p not in state.children and p != state.parent_port]
        ctx.multicast(targets, ConfirmMsg(state.phase, state.kingdom, m1))

    # ------------------------------------------------------------------
    # Stage 4: VICTOR
    # ------------------------------------------------------------------
    def _on_victor(self, ctx: NodeContext, port: int, msg: VictorMsg) -> None:
        state = self._state
        if state is None or msg.phase != state.phase or msg.candidate != state.kingdom:
            return
        state.victor_agg = max(state.victor_agg, msg.value)

    def _send_victor(self, ctx: NodeContext, state: PhaseState) -> None:
        value = max(state.victor_agg, state.confirm_seen, state.m1)
        if state.parent_port is not None:
            ctx.send(state.parent_port,
                     VictorMsg(state.phase, state.kingdom, value))

    # ------------------------------------------------------------------
    # Time-driven actions
    # ------------------------------------------------------------------
    def _run_due_actions(self, ctx: NodeContext) -> None:
        state = self._state
        if state is None or not state.member:
            return
        r = ctx.round
        if r == state.t2 - 1 and state.sent_to != set(ctx.ports):
            self._send_present(ctx, state)
        if not state.is_candidate:
            if r == state.t2 + (state.radius - state.depth):
                self._send_ack(ctx, state)
            if r == state.t4 + (state.radius - state.depth):
                self._send_victor(ctx, state)
        else:
            if r == state.t2 + state.radius:
                self._candidate_after_ack(ctx, state)
            if r == state.t4 + state.radius:
                self._candidate_decide(ctx, state)
            if r == state.end:
                self._candidate_next_phase(ctx, state)

    # -- candidate stage transitions -------------------------------------
    def _candidate_after_ack(self, ctx: NodeContext, state: PhaseState) -> None:
        for p in ctx.ports:
            if p not in state.received_from and p not in state.sent_elect:
                state.frontier = True
        state.m1 = max(ctx.uid, state.foreign_max)
        self._forward_confirm(ctx, state, state.m1)

    def _candidate_decide(self, ctx: NodeContext, state: PhaseState) -> None:
        if self.double_win:
            m2 = max(state.m1, state.victor_agg, state.confirm_seen)
        else:
            m2 = state.m1  # ablation: single-win (1-hop information only)
        state.victor_agg = m2
        self._survived = (m2 == ctx.uid)
        self._elect_ready = (state.foreign_max == 0 and not state.frontier)

    def _candidate_next_phase(self, ctx: NodeContext, state: PhaseState) -> None:
        if not self._alive:
            return
        if self._survived and self._elect_ready:
            self._decided = True
            ctx.elect()
            ctx.output["leader_uid"] = ctx.uid
            ctx.broadcast(LeaderMsg(ctx.uid))
            ctx.halt()
            return
        if not self._survived:
            self._alive = False
            ctx.set_non_elected()
            return
        self._begin_phase(ctx, state.phase + 1)

    # ------------------------------------------------------------------
    def _on_leader(self, ctx: NodeContext, port: int, msg: LeaderMsg) -> None:
        self._decided = True
        if msg.leader_uid != ctx.uid:
            ctx.set_non_elected()
        ctx.output["leader_uid"] = msg.leader_uid
        ctx.broadcast(LeaderMsg(msg.leader_uid), exclude=(port,))
        ctx.halt()


class KnownDiameterKingdomElection(_KingdomBase):
    """Section 4.3 simplified variant: fixed radius D per phase.

    O(D log n) rounds, O(m log n) messages, deterministic.
    Knowledge: ``D``.
    """

    def radius(self, ctx: NodeContext, phase: int) -> int:
        return max(1, require_knowledge(ctx, "D"))

    def phase_start(self, ctx: NodeContext, phase: int) -> int:
        d = max(1, require_knowledge(ctx, "D"))
        return (phase - 1) * 4 * (d + 1)


class KingdomElection(_KingdomBase):
    """Doubling-radius variant: R_p = 2^(p-1); no knowledge required.

    O(m log n) messages; O(D log n) time in the typical regime (see the
    module docstring for the worst-case caveat).  Deterministic.
    """

    def radius(self, ctx: NodeContext, phase: int) -> int:
        return 1 << (phase - 1)

    def phase_start(self, ctx: NodeContext, phase: int) -> int:
        # sum over q < phase of 4·(2^(q-1) + 1)
        return 4 * ((1 << (phase - 1)) - 1) + 4 * (phase - 1)

"""Flood-max: the classical O(D)-time leader election baseline.

Paper claim
-----------
:Result:    Peleg [20] baseline (witnesses the tightness of Thm 3.13)
:Time:      O(D)
:Messages:  O(m · min(n, D))
:Knowledge: n (or D, for the exact horizon)

Peleg [20] ("Time-optimal leader election in general networks", JPDC
1990) gives an O(D)-round election; the paper cites it as the witness
that the Ω(D) lower bound of Theorem 3.13 is tight.  The textbook
realization when a bound ``T >= D`` is known (``D`` itself, or ``n - 1``
when only ``n`` is known) is:

* every node floods the largest ID it has seen, forwarding only strict
  improvements;
* after ``T`` rounds the value has stabilized network-wide; the unique
  node whose own ID equals the flooded maximum elects itself.

Time is exactly ``T + O(1)`` rounds; messages are O(m · min(n, T)) in
the worst case (each edge carries only strictly increasing values), with
the classic Ω(m·n)-ish worst case on adversarially decreasing rings —
which is precisely why the paper develops the cheaper algorithms of
Section 4.  This baseline is the time-optimal, message-suboptimal
reference point of the ``headline-sublinear`` claim in ``repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.message import Payload
from ..sim.process import Delivery, NodeContext
from .base import ElectionProcess, optional_knowledge, require_knowledge


@dataclass(frozen=True)
class MaxIdMsg(Payload):
    """The largest identifier the sender has seen so far."""

    uid: int


class FloodMaxElection(ElectionProcess):
    """O(D)-time election by flooding the maximum ID.

    Knowledge: ``D`` (preferred) or ``n`` (fallback bound ``T = n - 1``).
    Deterministic; always elects exactly one leader within ``T + 1``
    rounds under simultaneous wakeup.
    """

    def __init__(self) -> None:
        self._best = 0
        self._deadline = 0

    def on_start(self, ctx: NodeContext) -> None:
        d = optional_knowledge(ctx, "D")
        if d is None:
            d = require_knowledge(ctx, "n") - 1
        horizon = max(1, d)
        self._best = ctx.uid
        self._deadline = ctx.round + horizon
        ctx.broadcast(MaxIdMsg(ctx.uid))
        ctx.set_alarm_in(1)

    def on_round(self, ctx: NodeContext, inbox: List[Delivery]) -> None:
        improved = False
        for _, payload in inbox:
            assert isinstance(payload, MaxIdMsg)
            if payload.uid > self._best:
                self._best = payload.uid
                improved = True
        if ctx.round >= self._deadline:
            if self._best == ctx.uid:
                ctx.elect()
            else:
                ctx.set_non_elected()
            ctx.output["leader_uid"] = self._best
            ctx.halt()
            return
        if improved:
            ctx.broadcast(MaxIdMsg(self._best))
        ctx.set_alarm_in(1)

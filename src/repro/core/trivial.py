"""The introduction's zero-message Monte Carlo algorithm.

Paper claim
-----------
:Result:    Introduction's 1/n example
:Time:      0 rounds
:Messages:  0 messages
:Knowledge: n

Section 1: *"Each node elects itself as leader with probability 1/n."*
The probability of exactly one leader is ``n · (1/n) · (1 - 1/n)^(n-1) ≈
1/e ≈ 0.368`` — a constant-probability election with **zero** messages
and **zero** rounds, demonstrating why the paper's lower bounds must
assume a sufficiently *large* constant success probability (> 53/56 for
messages, > 15/16-ish for time).

The ``intro-trivial`` claim of ``repro report`` reproduces the ≈ 1/e
success rate.
"""

from __future__ import annotations

from typing import List

from ..sim.process import Delivery, NodeContext
from .base import ElectionProcess, require_knowledge


class TrivialSelfElection(ElectionProcess):
    """Elect yourself with probability 1/n; send nothing.

    Knowledge: ``n``.  Succeeds with probability ≈ 1/e; never sends a
    message and finishes in round 0.
    """

    def on_start(self, ctx: NodeContext) -> None:
        n = require_knowledge(ctx, "n")
        if ctx.rng.random() < 1.0 / n:
            ctx.elect()
        else:
            ctx.set_non_elected()
        ctx.halt()

    def on_round(self, ctx: NodeContext, inbox: List[Delivery]) -> None:
        raise AssertionError("trivial election never receives messages")

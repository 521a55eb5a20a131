"""Scheduler semantics: the synchronous model of Section 2."""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import Network, complete, path, ring, star
from repro.sim import (
    CongestViolation,
    ExecutionModel,
    ExplicitCrashes,
    ExplicitWakeup,
    ModelViolation,
    NodeContext,
    NodeProcess,
    Payload,
    RoundLimitExceeded,
    Simulator,
    Status,
)


@dataclass(frozen=True)
class Ping(Payload):
    hops: int = 0


class Quiet(NodeProcess):
    """Does nothing: the run must end immediately at quiescence."""


class PingOnce(NodeProcess):
    """Node 0 (by smallest uid) pings all neighbors in round 0."""

    def on_start(self, ctx: NodeContext) -> None:
        self.got: List[int] = []
        if ctx.knowledge.get("starter") == ctx.uid:
            ctx.broadcast(Ping())

    def on_round(self, ctx: NodeContext, inbox) -> None:
        self.got.extend(d.port for d in inbox)
        ctx.output["received_round"] = ctx.round


def build(topology, factory, **kw):
    net = Network.build(topology, seed=1)
    return net, Simulator(net, factory, seed=1, **kw)


class TestDeliveryTiming:
    def test_message_arrives_next_round(self):
        net, sim = build(path(2), PingOnce,
                         knowledge={"starter": min(Network.build(path(2), seed=1).ids)})
        result = sim.run()
        receiver = [o for o in result.outputs if "received_round" in o]
        assert receiver and receiver[0]["received_round"] == 1

    def test_quiescent_run_ends_at_round_zero(self):
        _, sim = build(ring(5), Quiet)
        result = sim.run()
        assert result.rounds == 0
        assert result.messages == 0


class TestAlarms:
    class AlarmProc(NodeProcess):
        def on_start(self, ctx):
            ctx.set_alarm_at(1_000_000)

        def on_round(self, ctx, inbox):
            ctx.output["woke_at"] = ctx.round

    def test_round_skipping_jumps_to_alarm(self):
        _, sim = build(ring(5), self.AlarmProc)
        result = sim.run()
        assert all(o["woke_at"] == 1_000_000 for o in result.outputs)
        # Only two event rounds were actually executed: 0 and 1e6.
        assert result.metrics.rounds_executed == 2

    def test_alarm_must_be_future(self):
        class Bad(NodeProcess):
            def on_start(self, ctx):
                with pytest.raises(ValueError):
                    ctx.set_alarm_at(0)
                with pytest.raises(ValueError):
                    ctx.set_alarm_in(0)

        _, sim = build(ring(3), Bad)
        sim.run()


class TestModelRules:
    def test_double_send_same_port_rejected(self):
        class Doubler(NodeProcess):
            def on_start(self, ctx):
                ctx.send(0, Ping())
                with pytest.raises(ModelViolation):
                    ctx.send(0, Ping())

        _, sim = build(ring(3), Doubler)
        sim.run()

    def test_send_soon_defers_to_next_round(self):
        class Spammer(NodeProcess):
            def on_start(self, ctx):
                if ctx.uid == ctx.knowledge["starter"]:
                    ctx.send_soon(0, Ping(1))
                    ctx.send_soon(0, Ping(2))
                    ctx.send_soon(0, Ping(3))

            def on_round(self, ctx, inbox):
                for d in inbox:
                    ctx.output.setdefault("arrivals", []).append(
                        (ctx.round, d.payload.hops))

        net = Network.build(path(2), seed=1)
        sim = Simulator(net, Spammer, seed=1,
                        knowledge={"starter": min(net.ids)})
        result = sim.run()
        arrivals = next(o["arrivals"] for o in result.outputs if "arrivals" in o)
        assert [h for _, h in arrivals] == [1, 2, 3]  # FIFO order kept
        assert [r for r, _ in arrivals] == [1, 2, 3]  # one per round

    def test_invalid_port_rejected(self):
        class BadPort(NodeProcess):
            def on_start(self, ctx):
                with pytest.raises(ModelViolation):
                    ctx.send(ctx.degree, Ping())

        _, sim = build(ring(3), BadPort)
        sim.run()

    def test_multicast_failed_batch_is_atomic(self):
        class Batcher(NodeProcess):
            def on_start(self, ctx):
                with pytest.raises(ModelViolation):
                    ctx.multicast([0, ctx.degree], Ping())  # bad 2nd port
                with pytest.raises(ModelViolation):
                    ctx.multicast([1, 1], Ping())  # duplicate in batch
                # Nothing was claimed or sent: the corrected batch works.
                ctx.multicast([0, 1], Ping())

        _, sim = build(ring(3), Batcher)
        result = sim.run()
        assert result.messages == 2 * 3  # two ports per node, three nodes

    def test_halted_node_cannot_defer_sends(self):
        # Deferral would silently drop the message (halted nodes are
        # never activated again), so every send path must raise.
        class HaltedSender(NodeProcess):
            def on_start(self, ctx):
                ctx.send(0, Ping())
                ctx.halt()
                with pytest.raises(ModelViolation):
                    ctx.send_soon(0, Ping())  # busy port: would defer
                with pytest.raises(ModelViolation):
                    ctx.multicast_soon([0], Ping())
                with pytest.raises(ModelViolation):
                    ctx.broadcast(Ping())

        _, sim = build(ring(3), HaltedSender)
        result = sim.run()
        assert result.messages == 3  # only the pre-halt sends

    def test_halt_with_deferred_sends_rejected(self):
        # The queued message would never leave, so halting must wait
        # until the outbox has drained.
        class HaltsWithBacklog(NodeProcess):
            def on_start(self, ctx):
                ctx.send_soon(0, Ping(1))
                ctx.send_soon(0, Ping(2))  # busy port: deferred
                with pytest.raises(ModelViolation):
                    ctx.halt()
                assert not ctx.halted

            def on_round(self, ctx, inbox):
                ctx.halt()  # the round-1 flush emptied the outbox

        _, sim = build(ring(3), HaltsWithBacklog)
        result = sim.run()
        assert result.messages == 2 * 3  # the deferred sends left too

    def test_crash_drops_deferred_sends(self):
        # Crash-stop is not a voluntary halt: the backlog is lost.
        class Streamer(NodeProcess):
            def on_start(self, ctx):
                if ctx.uid == ctx.knowledge["starter"]:
                    for hops in range(3):
                        ctx.send_soon(0, Ping(hops))

        net = Network.build(path(2), seed=1)
        sim = Simulator(net, Streamer, seed=1,
                        knowledge={"starter": net.id_of(0)},
                        model=ExecutionModel(crash=ExplicitCrashes({0: 1})))
        result = sim.run()
        assert result.messages == 1
        assert result.metrics.crashed_nodes == [0]

    def test_multicast_soon_failed_batch_is_atomic(self):
        class Batcher(NodeProcess):
            def on_start(self, ctx):
                with pytest.raises(ModelViolation):
                    ctx.multicast_soon([0, ctx.degree], Ping())
                ctx.multicast_soon([0, 1], Ping())
                # A reuse of port 0 defers instead of raising.
                ctx.multicast_soon([0], Ping())

            def on_round(self, ctx, inbox):
                pass

        _, sim = build(ring(3), Batcher)
        result = sim.run()
        assert result.messages == 3 * 3  # 2 immediate + 1 deferred per node

    def test_congest_enforcement(self):
        @dataclass(frozen=True)
        class Huge(Payload):
            blob: str = "x" * 1000

        class Sender(NodeProcess):
            def on_start(self, ctx):
                ctx.send(0, Huge())

        net = Network.build(ring(3), seed=1)
        sim = Simulator(net, Sender, seed=1, congest_bits=256)
        with pytest.raises(CongestViolation):
            sim.run()


@dataclass(frozen=True)
class Tagged(Payload):
    """A deferred-send probe: its sender and the number of the call
    that handed it over (calls count per sender)."""
    src: int
    seq: int


class Scripted(NodeProcess):
    """Replays a per-node script: ``script[uid][round]`` lists
    ``(multi, ports)`` calls, each either one ``multicast_soon(ports)``
    or a ``send_soon`` per port."""

    def __init__(self, script: Dict[int, Dict[int, list]]) -> None:
        self.script = script

    def on_start(self, ctx):
        self.seq = 0
        self.log = ctx.output["arrivals"] = []
        for r in self.script.get(ctx.uid, {}):
            if r > 0:
                ctx.set_alarm_at(r)
        self._play(ctx)

    def on_round(self, ctx, inbox):
        self.log.extend((d.payload, ctx.round) for d in inbox)
        self._play(ctx)

    def _play(self, ctx):
        for multi, ports in self.script.get(ctx.uid, {}).get(ctx.round, ()):
            ports = list(dict.fromkeys(p % ctx.degree for p in ports))
            payload = Tagged(ctx.uid, self.seq)
            if multi:
                ctx.multicast_soon(ports, payload)
            else:
                for port in ports:
                    ctx.send_soon(port, payload)
            self.seq += 1


class TestDeferredSends:
    @settings(max_examples=60, deadline=None)
    @given(graph=st.sampled_from(["path3", "ring4", "star4", "clique4"]),
           calls=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    st.booleans(),
                                    st.lists(st.integers(0, 3), min_size=1,
                                             max_size=4)),
                          min_size=1, max_size=40))
    def test_per_port_fifo_in_earliest_free_round(self, graph, calls):
        # Dense scripts (4 nodes, 4 rounds, up to 40 calls) so backlogs
        # build up on several ports of one node at once.
        topology = {"path3": path(3), "ring4": ring(4), "star4": star(4),
                    "clique4": complete(4)}[graph]
        net = Network.build(topology, seed=1)
        n = net.num_nodes
        script: Dict[int, Dict[int, list]] = {}
        for node, r, multi, ports in calls:
            uid = net.id_of(node % n)
            script.setdefault(uid, {}).setdefault(r, []).append((multi, ports))
        result = Simulator(net, lambda: Scripted(script), seed=1).run()

        # Expected departures: each (sender, port) stream in call order,
        # each message in the first round after its predecessor's.
        expected: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for uid in sorted(script):
            degree = net.degree(net.index_of_id(uid))
            seq = 0
            for r in sorted(script[uid]):
                for _multi, ports in script[uid][r]:
                    for port in dict.fromkeys(p % degree for p in ports):
                        stream = expected.setdefault((uid, port), [])
                        leave = max(r, stream[-1][1] + 1) if stream else r
                        stream.append((seq, leave))
                    seq += 1

        # Observed departures, keyed by the sender's port (recovered from
        # the network's port table).  Equality with ``expected`` also
        # means at most one message per port per round.
        observed: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for idx, out in enumerate(result.outputs):
            for payload, arrived in out["arrivals"]:
                src = net.index_of_id(payload.src)
                port = next(p for p in range(net.degree(src))
                            if net.neighbor_via_port(src, p) == idx)
                observed.setdefault((payload.src, port), []).append(
                    (payload.seq, arrived - 1))
        for stream in observed.values():
            stream.sort(key=lambda entry: entry[1])
        assert observed == expected
        assert result.messages == sum(map(len, expected.values()))

    def test_long_stream_sets_one_alarm_per_round(self):
        # A B-message stream on one port needs B rounds, hence at most
        # B alarms plus the one set when the queue first fills.  An alarm
        # per re-deferred message would cost about B²/2.
        B = 200

        class Streamer(NodeProcess):
            def on_start(self, ctx):
                if ctx.uid == ctx.knowledge["starter"]:
                    for hops in range(B):
                        ctx.send_soon(0, Ping(hops))

            def on_round(self, ctx, inbox):
                ctx.output.setdefault("hops", []).extend(
                    (ctx.round, d.payload.hops) for d in inbox)

        net = Network.build(path(2), seed=1)
        sim = Simulator(net, Streamer, seed=1,
                        knowledge={"starter": net.id_of(0)})
        alarms = []
        submit = sim._submit_alarm
        sim._submit_alarm = lambda node, r: (alarms.append(r),
                                             submit(node, r))
        result = sim.run()
        assert len(alarms) <= B + 1
        assert result.outputs[1]["hops"] == [(r + 1, r) for r in range(B)]


class TestHalting:
    class HaltAfterFirst(NodeProcess):
        def on_start(self, ctx):
            if ctx.uid == ctx.knowledge["starter"]:
                ctx.broadcast(Ping())

        def on_round(self, ctx, inbox):
            ctx.output["hits"] = ctx.output.get("hits", 0) + 1
            ctx.halt()
            # Forward anyway before halting would be illegal; check halt
            # stops everything next time.

    def test_halted_nodes_drop_messages(self):
        net = Network.build(star(5), seed=1)
        hub_uid = net.id_of(0)
        sim = Simulator(net, self.HaltAfterFirst, seed=1,
                        knowledge={"starter": hub_uid})
        result = sim.run()
        # Leaves each got one hit then halted.
        assert all(o.get("hits", 0) <= 1 for o in result.outputs)


class TestWakeup:
    class Recorder(NodeProcess):
        def on_start(self, ctx):
            ctx.output["start_round"] = ctx.round
            ctx.broadcast(Ping())

        def on_round(self, ctx, inbox):
            pass

    def test_explicit_wakeup_schedule(self):
        net = Network.build(path(4), seed=1)
        sim = Simulator(net, self.Recorder, seed=1,
                        wakeup=ExplicitWakeup([0, None, None, None]))
        result = sim.run()
        starts = [o["start_round"] for o in result.outputs]
        assert starts[0] == 0
        # Sleepers wake when the ping flood reaches them.
        assert starts == [0, 1, 2, 3]

    def test_all_asleep_rejected(self):
        with pytest.raises(ValueError):
            ExplicitWakeup([None, None])


class TestRunLimits:
    class Forever(NodeProcess):
        def on_start(self, ctx):
            ctx.set_alarm_in(1)

        def on_round(self, ctx, inbox):
            ctx.set_alarm_in(1)

    def test_truncation_flag(self):
        _, sim = build(ring(3), self.Forever)
        result = sim.run(max_rounds=50)
        assert result.truncated

    def test_raise_on_limit(self):
        _, sim = build(ring(3), self.Forever)
        with pytest.raises(RoundLimitExceeded):
            sim.run(max_rounds=50, raise_on_limit=True)

    def test_simulator_single_use(self):
        _, sim = build(ring(3), Quiet)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()


class TestStatuses:
    class ElectSelf(NodeProcess):
        def on_start(self, ctx):
            if ctx.uid == ctx.knowledge["starter"]:
                ctx.elect()
            else:
                ctx.set_non_elected()

    def test_unique_leader_detection(self):
        net = Network.build(ring(5), seed=1)
        sim = Simulator(net, self.ElectSelf, seed=1,
                        knowledge={"starter": net.id_of(2)})
        result = sim.run()
        assert result.has_unique_leader
        assert result.leader_uid == net.id_of(2)
        assert result.elected_indices == [2]
        assert result.statuses.count(Status.NON_ELECTED) == 4

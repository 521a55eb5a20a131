"""Message payload sizing and metrics accounting."""

from dataclasses import dataclass, fields
from typing import Any, FrozenSet, List, Optional, Tuple, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.message as message
from repro.api import _ensure_registry
from repro.core.waves import WaveRankMsg
from repro.graphs import Network, path
from repro.sim import Envelope, Metrics, NodeProcess, Payload, Simulator


@dataclass(frozen=True)
class Small(Payload):
    a: int = 3
    b: int = 200


@dataclass(frozen=True)
class WithTuple(Payload):
    key: tuple = (5, 6)


class TestPayloadSizes:
    def test_scalar_fields_counted(self):
        # 8-bit header + bit lengths of 3 (2) and 200 (8)
        assert Small().size_bits() == 8 + 2 + 8

    def test_tuple_fields_counted(self):
        assert WithTuple().size_bits() > 8

    def test_wave_rank_is_congest_sized(self):
        msg = WaveRankMsg("least-el", (123456, 789))
        assert msg.size_bits() < 256

    def test_kind(self):
        assert Small().kind() == "Small"


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def registry_payloads() -> List[type]:
    """Every Payload subclass the registry's algorithms import."""
    _ensure_registry()
    return sorted((c for c in _subclasses(Payload)
                   if c.__module__.startswith("repro.")),
                  key=lambda c: (c.__module__, c.__name__))


def reference_bits(payload: Payload) -> int:
    """The recursive definition every size must agree with."""
    return 8 + sum(message._value_bits(getattr(payload, f.name))
                   for f in fields(payload))


@dataclass(frozen=True)
class Mixed(Payload):
    """Annotated-kind fields next to kinds the plan does not cover."""
    n: int
    members: FrozenSet[int]
    inner: Optional[Payload]
    extra: Any


@dataclass(frozen=True)
class Unresolvable(Payload):
    """An annotation that names no importable type."""
    value: "NoSuchType"  # noqa: F821


_INTS = st.one_of(st.integers(), st.just(0),
                  st.integers(min_value=2**64, max_value=2**200),
                  st.integers(min_value=-2**200, max_value=-2**64))
_ANY = st.one_of(_INTS, st.booleans(), st.none(), st.text(max_size=6),
                 st.frozensets(st.integers(-9, 9), max_size=3))
#: Values per annotation: mostly of the annotated type, sometimes not
#: (``bool``/``None`` in an ``int`` field must still size exactly).
_VALUES = {
    int: st.one_of(_INTS, st.booleans(), st.none()),
    bool: st.one_of(st.booleans(), st.none(), _INTS),
    str: st.one_of(st.text(max_size=12), st.none()),
    Tuple[int, ...]: st.one_of(
        st.lists(_INTS, max_size=4).map(tuple),
        st.lists(_ANY, max_size=4).map(tuple),
        st.lists(_INTS, max_size=4), st.none()),
}


class TestAnnotationSizing:
    def test_registry_payloads_are_all_annotated_kinds(self):
        classes = registry_payloads()
        assert len(classes) >= 20
        for cls in classes:
            for hint in get_type_hints(cls).values():
                assert hint in _VALUES, (cls, hint)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_annotation_size_equals_recursive_reference(self, data):
        cls = data.draw(st.sampled_from(registry_payloads()))
        hints = get_type_hints(cls)
        payload = cls(**{f.name: data.draw(_VALUES[hints[f.name]], f.name)
                         for f in fields(cls)})
        assert payload.size_bits() == reference_bits(payload)

    def test_well_typed_values_skip_the_recursion(self, monkeypatch):
        calls = []
        monkeypatch.setattr(message, "_value_bits",
                            lambda v: calls.append(v) or 0)
        example = {int: -3, bool: True, str: "tag",
                   Tuple[int, ...]: (0, 2**70, -1)}
        for cls in registry_payloads():
            hints = get_type_hints(cls)
            cls(**{f.name: example[hints[f.name]]
                   for f in fields(cls)}).size_bits()
        assert calls == []

    @pytest.mark.parametrize("payload", [
        Mixed(n=-2**65, members=frozenset({1, -4}),
              inner=Small(), extra=[True, None, "ab"]),
        Mixed(n=True, members=frozenset(), inner=None, extra=(1, (2, 3))),
        Mixed(n=0, members=frozenset({0}), inner=WaveRankMsg("t", ()),
              extra=2.5),
        Unresolvable(value=(7, -7)),
        Unresolvable(value=None),
        WithTuple(key=(5, -6, 2**64)),
    ])
    def test_other_kinds_take_the_fallback(self, payload, monkeypatch):
        expected = reference_bits(payload)
        seen = []
        recursive = message._value_bits
        monkeypatch.setattr(message, "_value_bits",
                            lambda v: seen.append(v) or recursive(v))
        assert payload.size_bits() == expected
        uncovered = [getattr(payload, f.name) for f in fields(payload)
                     if f.name != "n" or type(payload.n) is not int]
        assert all(any(v is value for v in seen) for value in uncovered)


class TestEnvelope:
    def test_edge_is_normalized(self):
        e = Envelope(src=5, dst=2, dst_port=0, payload=Small(), sent_round=1)
        assert e.edge == (2, 5)


class TestMetrics:
    def test_counts_accumulate(self):
        m = Metrics()
        m.on_send(Envelope(0, 1, 0, Small(), 0))
        m.on_send(Envelope(1, 0, 0, Small(), 1))
        assert m.messages == 2
        assert m.bits == 2 * Small().size_bits()
        assert m.per_node_sent[0] == 1
        assert m.per_kind["Small"] == 2

    def test_edge_watch_records_first_crossing_only(self):
        m = Metrics(watch_edges={(1, 0)})
        m.on_send(Envelope(2, 3, 0, Small(), 0))   # elsewhere
        m.on_send(Envelope(0, 1, 0, Small(), 4))   # crossing
        m.on_send(Envelope(1, 0, 0, Small(), 9))   # second crossing ignored
        watch = m.first_watched_crossing()
        assert watch is not None
        assert watch.first_crossing_round == 4
        assert watch.messages_before_crossing == 1
        assert m.messages_before_any_crossing() == 1

    def test_unwatched_returns_none(self):
        m = Metrics(watch_edges={(5, 6)})
        m.on_send(Envelope(0, 1, 0, Small(), 0))
        assert m.first_watched_crossing() is None
        assert m.messages_before_any_crossing() is None

    def test_summary_keys(self):
        m = Metrics()
        assert set(m.summary()) == {"messages", "messages_delivered",
                                    "messages_dropped", "bits", "rounds",
                                    "rounds_executed", "max_payload_bits",
                                    "crashes"}

    def test_summary_distinguishes_span_from_work(self):
        # An event-driven run that jumps over empty rounds has a large
        # span ("rounds") but little work ("rounds_executed"); summary()
        # must report both so sweep rows can tell them apart.
        m = Metrics()
        m.on_activity(1_000_000)
        m.rounds_executed = 2
        s = m.summary()
        assert s["rounds"] == 1_000_000
        assert s["rounds_executed"] == 2

    def test_record_send_matches_envelope_path(self):
        # The lazy (envelope-free) fast path and the envelope slow path
        # must account identically.
        fast, slow = Metrics(), Metrics()
        fast.record_send(0, 1, Small().kind(), Small().size_bits(), 0)
        slow.on_send(Envelope(0, 1, 0, Small(), 0))
        assert fast.summary() == slow.summary()
        assert fast.per_kind == slow.per_kind
        assert fast.per_node_sent == slow.per_node_sent

    def test_record_broadcast_matches_per_send(self):
        bulk, loop = Metrics(), Metrics()
        size = Small().size_bits()
        bulk.record_broadcast(3, "Small", size, 4)
        for dst in (0, 1, 2, 4):
            loop.record_send(3, dst, "Small", size, 0)
        assert bulk.summary() == loop.summary()
        assert bulk.per_kind == loop.per_kind
        assert bulk.per_node_sent == loop.per_node_sent


class TestSendLog:
    def test_record_sends_option(self):
        class Pinger(NodeProcess):
            def on_start(self, ctx):
                if ctx.degree:
                    ctx.send(0, Small())

        net = Network.build(path(3), seed=0)
        sim = Simulator(net, Pinger, seed=0, record_sends=True)
        result = sim.run()
        assert len(result.metrics.send_log) == result.messages
        assert all(isinstance(e, Envelope) for e in result.metrics.send_log)

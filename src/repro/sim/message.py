"""Message payloads and in-flight envelopes.

The CONGEST model allows one message of ``O(log n)`` bits per edge per
round; the LOCAL model drops the size restriction (Section 2).  Payload
classes report their size so :class:`repro.sim.metrics.Metrics` can track
bit complexity and the scheduler can optionally enforce CONGEST.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, get_type_hints

#: Default size charged for a scalar field (an ID, a rank, a counter):
#: all of these are O(log n)-bit quantities in the paper's model.
WORD_BITS = 64


def _value_bits(value: Any) -> int:
    """Recursive size estimate for a payload field value."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        # |value| magnitude bits, plus one sign bit for negatives, so
        # the charge is continuous through 0.  (It used to be a flat
        # WORD_BITS for any negative, making e.g. the negated-key waves
        # of Corollary 4.5 look 64-bit regardless of magnitude.)
        bits = max(1, value.bit_length())
        return bits + 1 if value < 0 else bits
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, list, frozenset, set)):
        return sum(_value_bits(v) for v in value) + len(value)
    if isinstance(value, Payload):
        return value.size_bits()
    return WORD_BITS


#: The field annotations sized without :func:`_value_bits`, mapped to the
#: exact runtime type a value must have to take that shortcut.
_SIZED_ANNOTATIONS: Dict[Any, type] = {
    int: int, bool: bool, str: str, Tuple[int, ...]: tuple,
}

#: Per-class sizing plan: ``(field name, expected type or None)`` per
#: dataclass field; ``None`` means always size through :func:`_value_bits`.
_SIZE_PLANS: Dict[type, Tuple[Tuple[str, Optional[type]], ...]] = {}


def _size_plan(cls: type) -> Tuple[Tuple[str, Optional[type]], ...]:
    """Derive (once per class) how each field of ``cls`` is sized, from
    its annotation; unresolvable annotations take the fallback."""
    try:
        hints = get_type_hints(cls)
    except Exception:  # e.g. a string annotation naming a local class
        hints = {}
    plan = tuple((f.name, _SIZED_ANNOTATIONS.get(hints.get(f.name)))
                 for f in fields(cls))
    _SIZE_PLANS[cls] = plan
    return plan


@dataclass(frozen=True)
class Payload:
    """Base class for algorithm messages.

    Subclasses are frozen dataclasses whose size is the sum of their
    fields' sizes plus a constant header.  Each field is sized by its
    annotation — ``int``, ``bool``, ``str`` or ``Tuple[int, ...]`` —
    read once per class; any other annotation, or a value whose exact
    type differs from it (``None`` or ``True`` in an ``int`` field), is
    sized by the recursive :func:`_value_bits`, which defines every
    size.  Structures larger than O(log n) bits (e.g. Algorithm 1's
    inter-cluster graph) are fragmented into many small payloads.

    Sizes are memoized per instance (payloads are immutable), so a
    payload broadcast over many ports is measured once, and the CONGEST
    check plus bit accounting share a single computation.
    """

    def size_bits(self) -> int:
        cached = self.__dict__.get("_size_bits")
        if cached is not None:
            return cached
        plan = _SIZE_PLANS.get(type(self))
        if plan is None:
            plan = _size_plan(type(self))
        total = 8  # message-type header
        for name, expected in plan:
            value = getattr(self, name)
            vtype = type(value)
            if vtype is not expected:
                total += _value_bits(value)
            elif vtype is int:
                total += (value.bit_length() or 1) + (value < 0)
            elif vtype is tuple:
                total += len(value)
                for item in value:
                    if type(item) is int:
                        total += (item.bit_length() or 1) + (item < 0)
                    else:
                        total += _value_bits(item)
            elif vtype is str:
                total += 8 * len(value)
            else:  # bool
                total += 1
        self.__dict__["_size_bits"] = total
        return total

    def kind(self) -> str:
        """Short tag used in metrics breakdowns."""
        return type(self).__name__


@dataclass(frozen=True)
class Envelope:
    """A message in flight: fixed at send time, delivered next round."""

    src: int            # sender node index
    dst: int            # receiver node index
    dst_port: int       # receiver's local port for the shared edge
    payload: Payload
    sent_round: int

    @property
    def edge(self) -> Tuple[int, int]:
        u, v = self.src, self.dst
        return (u, v) if u < v else (v, u)

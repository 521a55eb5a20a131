"""Span recorder and profiler hook of the traced run.

Layers are measured from outside the program: :func:`instrument` wraps
the public entry points of ``graphs``, ``sim``, ``sim.columnar``,
``experiments``, ``report`` and ``net`` so that each call records a
span (name, start, end, parent span, job id).  Spans stay in memory and
are written out when the run ends.  The hot inner layers (scheduler,
payload sizing, metrics, the algorithms in ``core``, the columnar
kernels) are called far too often to wrap, so their self time and call
counts come from ``cProfile``, which runs only inside a traced job.

Wrappers record nothing outside :meth:`SpanRecorder.job`, so the
oracle's own runs (such as the event-loop twin of a socket election)
never show up in the layer figures.
"""

from __future__ import annotations

import contextlib
import contextvars
import cProfile
import functools
import importlib
import inspect
import os
import pstats
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Source file (relative to ``src/repro``) -> self-time metric.
SELF_TIME_FILES = {
    "sim/scheduler.py": "sim.scheduler.self_s",
    "sim/metrics.py": "sim.metrics.self_s",
    "sim/message.py": "sim.message.size_bits_s",
    "sim/columnar/kernels.py": "sim.columnar.kernels.self_s",
    "core/waves.py": "core.waves.self_s",
    "core/least_el.py": "core.least_el.self_s",
    "core/clustering.py": "core.clustering.self_s",
    "core/kingdom.py": "core.kingdom.self_s",
    "core/spanner_le.py": "core.spanner_le.self_s",
}

#: ``(source file, function name)`` -> (call-count metric, whether to
#: count only calls from other files).  The send primitives call each
#: other and ``size_bits`` recurses into nested payloads; those inner
#: calls are not extra sends or sizings.
CALL_COUNTS = {
    ("sim/message.py", "size_bits"): ("sim.message.size_bits.calls", True),
    ("sim/process.py", "send"): ("sim.process.send.calls", True),
    ("sim/process.py", "send_soon"): ("sim.process.send.calls", True),
    ("sim/process.py", "multicast"): ("sim.process.send.calls", True),
    ("sim/process.py", "multicast_soon"): ("sim.process.send.calls", True),
    ("sim/scheduler.py", "_submit_alarm"): ("sim.scheduler.alarms", False),
    ("net/runner.py", "_submit_alarm"): ("sim.scheduler.alarms", False),
}

#: Library code (stdlib, numpy, builtins) is charged to the repro
#: module that called it, through at most this many library frames.
_PROPAGATION_DEPTH = 8


class SpanRecorder:
    """In-memory spans, work counters and a profiler for traced jobs."""

    def __init__(self, src_root: str) -> None:
        self.spans: List[list] = []
        self.work: Counter = Counter()
        self.profile = cProfile.Profile()
        self._prefix = os.path.join(os.path.abspath(src_root), "repro") + os.sep
        self._job: Optional[str] = None
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_parent_span", default=None)

    @contextlib.contextmanager
    def job(self, job_id: str):
        """Trace everything the enclosed block calls, as job ``job_id``."""
        self._job = job_id
        self.profile.enable()
        try:
            yield
        finally:
            self.profile.disable()
            self._job = None

    # -- spans ---------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable[[Any, tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` recording a span per call; ``on_result(rec, args,
        result)`` reads work counts off the result."""
        rec = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if rec._job is None:
                    return await fn(*args, **kwargs)
                span, token = rec._begin(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    rec._end(span, token)
                if on_result is not None:
                    on_result(rec, args, result)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._job is None:
                return fn(*args, **kwargs)
            span, token = rec._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._end(span, token)
            if on_result is not None:
                on_result(rec, args, result)
            return result
        return traced

    def _begin(self, name: str) -> Tuple[list, contextvars.Token]:
        span = [name, time.perf_counter(), None, self._parent.get(), self._job]
        self.spans.append(span)
        return span, self._parent.set(len(self.spans) - 1)

    def _end(self, span: list, token: contextvars.Token) -> None:
        span[2] = time.perf_counter()
        self._parent.reset(token)

    def patch_function(self, module: str, attr: str, name: str,
                       on_result=None) -> None:
        """Wrap ``module.attr`` everywhere ``repro`` imported it by name."""
        original = getattr(importlib.import_module(module), attr)
        traced = self.wrap(original, name, on_result)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(attr) is original):
                setattr(mod, attr, traced)

    def patch_method(self, cls: type, attr: str, name: str,
                     on_result=None) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(
                self.wrap(raw.__func__, name, on_result)))
        else:
            setattr(cls, attr, self.wrap(raw, name, on_result))

    # -- totals --------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Additive per-layer totals of everything traced so far."""
        totals: Counter = Counter()
        intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _job in self.spans:
            if end is None or self._inside_same_name(name, parent):
                continue
            intervals[name].append((start, end))
            totals[f"{name}.calls"] += 1
        for name, spans in intervals.items():
            totals[f"{name}_s"] = _union_length(spans)
        totals.update(self._profile_totals())
        totals.update(self.work)
        return dict(totals)

    def _inside_same_name(self, name: str, parent: Optional[int]) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def _profile_totals(self) -> Counter:
        try:
            stats = pstats.Stats(self.profile).stats  # type: ignore[attr-defined]
        except TypeError:  # nothing was profiled
            return Counter()
        totals: Counter = Counter()
        pending: Dict[tuple, float] = defaultdict(float)
        for func, (_cc, ncalls, tottime, _ct, callers) in stats.items():
            source = self._source(func[0])
            if source is None:
                pending[func] += tottime
                continue
            metric = SELF_TIME_FILES.get(source)
            if metric is not None:
                totals[metric] += tottime
            count = CALL_COUNTS.get((source, func[2]))
            if count is not None:
                metric, external_only = count
                totals[metric] += ncalls if not external_only else sum(
                    c[0] for caller, c in callers.items()
                    if caller[0] != func[0])
        # gprof-style: library time goes to its callers in proportion to
        # their share of its cumulative time, until it reaches repro code.
        for _ in range(_PROPAGATION_DEPTH):
            if not pending:
                break
            upward: Dict[tuple, float] = defaultdict(float)
            for func, mass in pending.items():
                callers = stats[func][4]
                weight = sum(c[3] for c in callers.values())
                if weight <= 0:
                    continue
                for caller, c in callers.items():
                    share = mass * c[3] / weight
                    source = self._source(caller[0])
                    if source is None:
                        upward[caller] += share
                    elif source in SELF_TIME_FILES:
                        totals[SELF_TIME_FILES[source]] += share
            pending = upward
        return totals

    def _source(self, filename: str) -> Optional[str]:
        if not filename.startswith(self._prefix):
            return None
        return filename[len(self._prefix):].replace(os.sep, "/")

    def dump(self) -> Dict[str, Any]:
        return {"spans": self.spans, "totals": self.totals()}


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ----------------------------------------------------------------------
def _count_run(rec: SpanRecorder, _args: tuple, result: Any) -> None:
    for run in result if isinstance(result, list) else [result]:
        rec.work["sim.messages"] += run.messages
        rec.work["sim.bits"] += run.bits
        rec.work["sim.activations"] += run.metrics.activations
        rec.work["sim.rounds_executed"] += run.metrics.rounds_executed


def _count_cache_hit(rec: SpanRecorder, _args: tuple, result: Any) -> None:
    rec.work["experiments.cache.hits"] += result is not None


def _count_wire(rec: SpanRecorder, args: tuple, result: Any) -> None:
    rec.work["net.wire_bytes"] += args[0].wire_bytes[0]
    rec.work["net.messages"] += result.messages


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def instrument(rec: SpanRecorder) -> None:
    """Wrap every layer entry point the per-layer metrics are built on."""
    import repro.cli  # noqa: F401 - binds the names patched below
    from repro.experiments import cache
    from repro.graphs.network import Network
    from repro.graphs.topology import Topology
    from repro.net import links
    from repro.net.runner import NetRunner
    from repro.report.claims import CLAIMS
    from repro.sim import backend
    from repro.sim.scheduler import Simulator

    rec.patch_function("repro.graphs.specs", "parse_graph_spec", "graphs.parse")
    for cls in _subclasses(Topology):
        if "diameter" in vars(cls):
            rec.patch_method(cls, "diameter", "graphs.diameter")
    rec.patch_method(Network, "build", "graphs.network_build")

    for cls, attr in ((backend.EventLoopBackend, "run"),
                      (backend.ColumnarBackend, "run"),
                      (backend.ColumnarBackend, "run_batch"),
                      (backend.NetBackend, "run")):
        rec.patch_method(cls, attr, "sim.backend.run")
    # Work is counted where each engine finishes a run, once per run.
    rec.patch_method(Simulator, "run", "sim.simulator.run", _count_run)
    rec.patch_function("repro.sim.columnar.engine", "run", "sim.columnar.run",
                       _count_run)
    rec.patch_function("repro.sim.columnar.batch", "run_batch",
                       "sim.columnar.run", _count_run)
    rec.patch_function("repro.net.engine", "run", "net.engine.run", _count_run)

    rec.patch_method(cache.ResultCache, "get", "experiments.cache.get",
                     _count_cache_hit)
    rec.patch_method(cache.ResultCache, "put", "experiments.cache.put")
    rec.patch_function("repro.experiments.runner", "execute_cell",
                       "experiments.execute_cell")
    rec.patch_function("repro.experiments.tasks", "execute_elect_group",
                       "experiments.execute_cell")
    rec.patch_function("repro.experiments.aggregate", "aggregate",
                       "experiments.aggregate")

    for claim in CLAIMS.values():  # frozen dataclasses
        object.__setattr__(claim, "evaluate",
                           rec.wrap(claim.evaluate, "report.evaluate"))
    rec.patch_function("repro.report.render", "write_report", "report.render")
    rec.patch_function("repro.report.render", "summary_table", "report.render")

    rec.patch_function("repro.net.links", "open_mesh", "net.open_mesh")
    rec.patch_method(links.NodeEndpoint, "expect", "net.barrier_wait")
    rec.patch_method(NetRunner, "run_async", "net.run_async", _count_wire)
    rec.patch_method(NetRunner, "_teardown", "net.teardown")


def layer_metrics(totals: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from summed :meth:`SpanRecorder.totals`.

    Layers a workload never reaches read 0, which is itself the
    prediction for them (for example the ``net`` figures outside
    ``elect-net``).
    """
    t = Counter(totals)
    metrics = {name: t[name] for name in (
        "graphs.parse_s", "graphs.parse.calls",
        "graphs.diameter_s", "graphs.diameter.calls",
        "graphs.network_build_s", "graphs.network_build.calls",
        "sim.backend.run_s", "sim.message.size_bits_s",
        "sim.message.size_bits.calls", "sim.scheduler.self_s",
        "sim.process.send.calls", "sim.scheduler.alarms",
        "sim.metrics.self_s", "sim.messages", "sim.bits",
        "sim.activations", "sim.rounds_executed",
        "sim.columnar.run_s", "sim.columnar.kernels.self_s",
        "experiments.cache.get_s", "experiments.cache.get.calls",
        "experiments.cache.put_s", "experiments.cache.put.calls",
        "experiments.execute_cell_s", "experiments.aggregate_s",
        "report.evaluate_s", "report.render_s",
        "net.open_mesh_s", "net.barrier_wait_s", "net.teardown_s",
        "net.wire_bytes")}
    for module in ("waves", "least_el", "clustering", "kingdom", "spanner_le"):
        metrics[f"core.{module}.self_s"] = t[f"core.{module}.self_s"]
    gets = t["experiments.cache.get.calls"]
    metrics["experiments.cache.hit_ratio"] = (
        t["experiments.cache.hits"] / gets if gets else 0.0)
    metrics["net.rounds_s"] = max(0.0, t["net.run_async_s"]
                                  - t["net.open_mesh_s"] - t["net.teardown_s"])
    metrics["net.wire_bytes_per_message"] = (
        t["net.wire_bytes"] / t["net.messages"] if t["net.messages"] else 0.0)
    return metrics

"""Observability: tracing, time series, telemetry, and logging.

This package is the opt-in window into a run.  Nothing in it is on any
hot path: the simulator's default configuration carries a ``None``
tracer and records no timeline, and its round core records the
per-round census only when a consumer asks for one.

* :mod:`repro.obs.trace` — structured event traces: a :class:`Tracer`
  protocol the scheduler drives, JSONL and Chrome trace-event
  (``chrome://tracing`` / Perfetto) writers, readers, and a schema
  validator.
* :mod:`repro.obs.timeline` — per-round time series (messages,
  deliveries, drops, node-status counts) with ASCII sparklines and
  JSON/CSV export; surfaced as ``RunResult.timeline``.
* :mod:`repro.obs.telemetry` — experiment-runner telemetry (per-cell
  wall clock, cache hit/miss counters, worker utilization) and the
  ``--progress`` live status line.
* :mod:`repro.obs.log` — the ``repro.*`` stdlib-``logging`` hierarchy
  and the CLI's ``--verbose``/``-q`` wiring.
"""

from .log import configure_logging, get_logger
from .telemetry import ProgressLine, RunnerTelemetry
from .timeline import Timeline, TimelinePoint, sparkline
from .trace import (
    ChromeTracer,
    JsonlTracer,
    RecordingTracer,
    TeeTracer,
    TraceError,
    Tracer,
    chrome_trace,
    read_trace,
    replay_round_counts,
    validate_trace,
)

__all__ = [
    "ChromeTracer",
    "JsonlTracer",
    "ProgressLine",
    "RecordingTracer",
    "RunnerTelemetry",
    "TeeTracer",
    "Timeline",
    "TimelinePoint",
    "TraceError",
    "Tracer",
    "chrome_trace",
    "configure_logging",
    "get_logger",
    "read_trace",
    "replay_round_counts",
    "sparkline",
    "validate_trace",
]

"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload elect-sparse --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the
same figures for people, plus the run's provenance.  A record of the
run (every job, and the spans of a traced run) is written under
``.perfbench/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import jobs
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Fresh interpreters started per run to time set-up, spread over the
#: run; the median counts.
SETUP_PROBES = 7
SETUP_CODE = ("import repro.api, repro.cli; repro.api._ensure_registry(); "
              "print('ready', flush=True)")
#: Warm ``repro report`` re-runs against each cold job's cache, so the
#: re-runs are spread over the whole run.
WARM_PER_COLD = 3


@dataclass
class RunResult:
    outcomes: List[jobs.JobOutcome] = field(default_factory=list)
    #: Warm re-runs and other checked jobs outside the timed sample.
    extra: List[jobs.JobOutcome] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)
    spans: List[list] = field(default_factory=list)

    @property
    def checked(self) -> List[jobs.JobOutcome]:
        return self.outcomes + self.extra


# ----------------------------------------------------------------------
class Deadline:
    """Ends a run of whole cycles as near ``seconds`` as it can, calling
    ``between`` at the end of every cycle."""

    def __init__(self, seconds: float, between: Callable[[], None]) -> None:
        self.seconds = seconds
        self.between = between
        self.start = self.cycle_start = time.perf_counter()

    def another_cycle(self) -> bool:
        """Whether a next cycle, expected to last as long as the one just
        finished, would end nearer the deadline than stopping now."""
        self.between()
        now = time.perf_counter()
        last, self.cycle_start = now - self.cycle_start, now
        return now - self.start + last / 2 < self.seconds


def setup_seconds() -> float:
    """Spawn to ready of one fresh interpreter: imports + registry."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                            env=jobs.child_env(ROOT), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class SetupProbes:
    """Set-up times taken at cycle ends about ``seconds / SETUP_PROBES``
    apart, so their median stands for the whole run and not for the few
    seconds a burst of probes would cover on a shared host."""

    def __init__(self, seconds: float) -> None:
        self.every = seconds / SETUP_PROBES
        self.samples = [setup_seconds()]
        self.last = time.perf_counter()

    def between_cycles(self) -> None:
        if (len(self.samples) < SETUP_PROBES
                and time.perf_counter() - self.last >= self.every):
            self.samples.append(setup_seconds())
            self.last = time.perf_counter()

    def finish(self) -> List[float]:
        """All samples, topped up to ``SETUP_PROBES`` if the run had
        fewer cycle ends than that."""
        while len(self.samples) < SETUP_PROBES:
            self.samples.append(setup_seconds())
        return self.samples


def job_tail(walls: List[float]) -> float:
    """The 90th percentile of the job times, interpolated between jobs.

    A fixed percentile, not the highest one with ten jobs beyond it:
    the job count of a run grows as the program gets faster, and a
    percentile that rose with it would make a faster program look
    slower in the tail."""
    if len(walls) < 2:
        return walls[0]
    return statistics.quantiles(walls, n=10, method="inclusive")[-1]


def end_to_end(run: RunResult, setup: List[float], warm_s: float,
               peak_rss_kb: int) -> None:
    walls = [o.wall_s for o in run.outcomes]
    run.metrics.update({
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": job_tail(walls),
        "messages_per_s": sum(o.messages for o in run.outcomes) / sum(walls),
        "warm_s": warm_s,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    })
    run.notes.update({"jobs": len(walls), "setup_samples": setup})


# ----------------------------------------------------------------------
def report_smoke(seconds: float, scratch: str, trace: bool,
                 between: Callable[[], None]) -> RunResult:
    """Cold reports, each in a fresh interpreter with an empty cache
    directory and each followed by warm re-runs against its cache."""
    run = RunResult()

    def dirs(tag: str) -> Tuple[str, str]:
        return (os.path.join(scratch, tag, "cache"),
                os.path.join(scratch, tag, "out"))

    if trace:
        return _traced_report(run, dirs)
    deadline = Deadline(seconds, between)
    i = 0
    while i == 0 or deadline.another_cycle():
        cache, out = dirs(f"cold{i}")
        run.outcomes.append(jobs.run_report(ROOT, cache, out, cold=True))
        for k in range(WARM_PER_COLD):
            _, out = dirs(f"cold{i}/warm{k}")
            run.extra.append(jobs.run_report(ROOT, cache, out, cold=False))
        shutil.rmtree(os.path.join(scratch, f"cold{i}"))
        i += 1
    return run


def _traced_report(run: RunResult, dirs) -> RunResult:
    totals: Dict[str, float] = {}
    walls = {False: 0.0, True: 0.0}
    prints = {}
    for traced in (False, True):
        cache, out = dirs(f"trace{int(traced)}")
        for cold in (True, False):
            tag = "cold" if cold else "warm"
            spans_file = os.path.join(os.path.dirname(cache), f"{tag}.json")
            job_id = f"report-smoke/{tag}"
            outcome = jobs.run_report(
                ROOT, cache, out, cold=cold,
                traced=(job_id, spans_file) if traced else None)
            run.outcomes.append(outcome)
            walls[traced] += outcome.wall_s
            prints[(traced, cold)] = outcome.fingerprint
            if traced and outcome.error is None:
                with open(spans_file, encoding="utf-8") as fh:
                    dump = json.load(fh)
                run.spans.extend(dump["spans"])
                for key, value in dump["totals"].items():
                    totals[key] = totals.get(key, 0.0) + value
    for cold in (True, False):
        if prints[(True, cold)] != prints[(False, cold)]:
            run.outcomes.append(jobs.JobOutcome(
                wall_s=0.0, error="traced report differs from untraced"))
    run.metrics = spans.layer_metrics(totals)
    run.metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    run.metrics["elections_without_leader"] = 0
    return run


def elections(workload: str, seed: int, seconds: float, tiny: bool,
              trace: bool, between: Callable[[], None]) -> RunResult:
    """Whole cycles of elections until ``seconds`` have passed (a traced
    run does one cycle untraced, then the same cycle traced).

    A checked, untimed cycle on the small graphs comes first, so lazy
    imports and first-call set-up, the socket backend's above all, stay
    out of the timed jobs; ``setup_s`` covers what a fresh interpreter
    pays."""
    run = RunResult()
    reference = {} if tiny else jobs.load_reference(BENCH_DIR)
    cycle_len = len(jobs.ELECTION_CYCLES[workload])
    warmup = jobs.election_jobs(workload, seed, tiny=True)
    run.extra = [jobs.run_election(next(warmup), None)
                 for _ in range(cycle_len)]
    deadline = Deadline(seconds, between)
    stream = jobs.election_jobs(workload, seed, tiny=tiny)
    for index, job in enumerate(stream):
        if index and index % cycle_len == 0 and (
                trace or not deadline.another_cycle()):
            break
        run.outcomes.append(jobs.run_election(job, reference.get(job.key)))
    if not trace:
        return run

    rec = spans.SpanRecorder(os.path.join(ROOT, "src"))
    spans.instrument(rec)
    untraced = list(run.outcomes)
    traced = []
    for index, job in enumerate(jobs.election_jobs(workload, seed, tiny=tiny)):
        if index == cycle_len:
            break
        job_id = f"{workload}/{index}"
        outcome = jobs.run_election(job, untraced[index].fingerprint,
                                    measured=lambda: rec.job(job_id))
        if outcome.error is not None:
            outcome.error = f"traced run: {outcome.error}"
        traced.append(outcome)
    run.extra += traced
    run.spans = rec.spans
    run.metrics = spans.layer_metrics(rec.totals())
    run.metrics["trace.overhead_frac"] = (
        sum(o.wall_s for o in traced)
        / sum(o.wall_s for o in untraced) - 1.0)
    run.metrics["elections_without_leader"] = sum(
        o.no_leader for o in traced)
    return run


# ----------------------------------------------------------------------
def cpu_times() -> Optional[List[int]]:
    """user..steal jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]]


def provenance(before: Optional[List[int]],
               after: Optional[List[int]]) -> Dict[str, object]:
    from repro.sim.bench import environment

    env = environment()
    try:
        import numpy
        env["numpy"] = numpy.__version__
    except ImportError:
        env["numpy"] = None
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        env["cpu_steal_frac"] = delta[7] / sum(delta) if sum(delta) else 0.0
    else:
        env["cpu_steal_frac"] = None
    return env


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small graphs, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program to measure under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, os.path.join(ROOT, "src"))

    before = cpu_times()
    scratch = os.path.join(OUT_DIR, "tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        probes = None if args.trace else SetupProbes(args.seconds)
        between = probes.between_cycles if probes else lambda: None
        if args.workload == "report-smoke":
            run = report_smoke(args.seconds, scratch, bool(args.trace),
                               between)
            if not args.trace:
                # The mean, not the median: these sub-second re-runs fall
                # into a quick and a slow mode of a shared host, each
                # lasting seconds.  The median jumps between the modes as
                # the share of slow re-runs passes one half; the mean, the
                # average wait, moves with that share smoothly.
                warm = [o.wall_s for o in run.extra]
                warm_s = statistics.mean(warm)
                rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            run = elections(args.workload, args.seed, args.seconds,
                            args.tiny, bool(args.trace), between)
            if not args.trace:
                warm = [o.warm_s for o in run.outcomes
                        if o.warm_s is not None] or [0.0]
                warm_s = statistics.median(warm)
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if not args.trace:
            run.notes["warm_samples"] = warm
            end_to_end(run, probes.finish(), warm_s, rss)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env = provenance(before, cpu_times())

    checked = run.checked
    failed = [o for o in checked if o.error is not None]
    run.notes["elections_without_leader"] = sum(o.no_leader for o in checked)
    metrics = {m["name"]: {"value": run.metrics[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
              "provenance": env, "notes": run.notes, "metrics": metrics,
              "jobs": [asdict(o) for o in checked], "spans": run.spans}
    runs_dir = os.path.join(OUT_DIR, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    record_path = os.path.join(
        runs_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(checked)} jobs checked, {len(failed)} failed "
          f"(error_rate {len(failed) / len(checked):.4f}), "
          f"{run.notes['elections_without_leader']} without leader")
    for outcome in failed[:5]:
        print(f"  FAILED: {outcome.error}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"  (job_p50_s and job_tail_s, the p90, over "
              f"{run.notes['jobs']} jobs)")
    print("provenance " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(checked),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

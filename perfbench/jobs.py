"""Workloads, jobs and the correctness oracle of the benchmark.

A job is one thing a user waits for: one ``repro report`` in a fresh
interpreter, or one election including its graph parse and network
build (what ``repro elect`` does).  Election jobs run in the calling
process; report jobs run the real CLI as a child process.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

WORKLOADS = ("report-smoke", "elect-sparse", "elect-clique-large", "elect-net")

#: One cycle of ``(algorithm, graph spec, backend)`` per election
#: workload.  A run repeats whole cycles, so every run has the same mix.
#: ``elect-sparse`` runs two least-el jobs per clustering job: clustering
#: takes about twice as long and its time varies by a third with the
#: seed, so in an even mix the median would sit in the gap between the
#: two modes and jump from run to run.  Clustering sets the tail.  For
#: the same reason ``elect-net`` gives least-el a denser graph than
#: clustering, so that its three jobs take about as long as each other.
ELECTION_CYCLES: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "elect-sparse": (("least-el", "er:1024:0.02", "event-loop"),
                     ("least-el", "er:1024:0.02", "event-loop"),
                     ("clustering", "er:1024:0.02", "event-loop")),
    "elect-clique-large": (("sublinear", "clique:262144", "columnar"),),
    "elect-net": (("flood-max", "clique:32", "net"),
                  ("least-el", "er:64:0.12", "net"),
                  ("clustering", "er:64:0.08", "net")),
}

#: Graph substitutions for ``--tiny`` (the self-test), same families.
TINY_GRAPHS = {"er:1024:0.02": "er:96:0.06", "clique:262144": "clique:4096",
               "clique:32": "clique:8", "er:64:0.12": "er:16:0.3",
               "er:64:0.08": "er:16:0.3"}

#: Algorithms whose failure to elect anyone is a legal outcome (Monte
#: Carlo): counted as ``elections_without_leader``, not as an error.
MONTE_CARLO = frozenset({"sublinear"})

#: The canonical report: its oracle is the committed ``report.json``,
#: which exists for this grid and seed only.
REPORT_ARGS = ("-q", "report", "--grid", "smoke", "--seed", "0")
SMOKE_CLAIMS = 15
SMOKE_CELLS = 161
_SUMMARY = re.compile(r"claims: (\d+) verified, (\d+) diverged, (\d+) skipped; "
                      r"cells: (\d+) total, (\d+) executed, (\d+) cached")
REPORT_TIMEOUT_S = 120.0


def job_seed(workload_seed: int, index: int) -> int:
    """Seed of job ``index``: distinct per job, so no two share an input."""
    return workload_seed * 100_000 + index


@dataclass(frozen=True)
class ElectionJob:
    algorithm: str
    graph: str
    backend: str
    seed: int

    @property
    def key(self) -> str:
        """Names the job's input in ``reference.json``."""
        return f"{self.algorithm} {self.graph} {self.backend} {self.seed}"


def election_jobs(workload: str, workload_seed: int, *,
                  tiny: bool = False) -> Iterator[ElectionJob]:
    """Endless stream of ``workload``'s jobs, cycle after cycle."""
    cycle = ELECTION_CYCLES[workload]
    for index in itertools.count():
        algorithm, graph, backend = cycle[index % len(cycle)]
        yield ElectionJob(algorithm, TINY_GRAPHS[graph] if tiny else graph,
                          backend, job_seed(workload_seed, index))


@dataclass
class JobOutcome:
    """What one job produced; ``error`` is None when the oracle passed."""

    wall_s: float
    messages: int = 0
    warm_s: Optional[float] = None
    fingerprint: Optional[list] = None
    error: Optional[str] = None
    no_leader: bool = False


def _fingerprint(result) -> list:
    return [result.messages, result.bits, result.rounds, result.leader_uid]


def run_election(job: ElectionJob, reference: Optional[list],
                 measured=contextlib.nullcontext) -> JobOutcome:
    """Parse, build and run one election, then check it.

    ``warm_s`` is the election alone, on the already built network: the
    wait of a job whose graph and network are cached, as in a sweep.
    ``measured()`` is entered around the job but not its oracle, so a
    tracer sees only the job.
    """
    from repro.api import run_algorithm
    from repro.graphs.network import Network
    from repro.graphs.specs import parse_graph_spec

    t0 = time.perf_counter()
    try:
        with measured():
            topology = parse_graph_spec(job.graph, seed=job.seed)
            network = Network.build(topology, seed=job.seed)
            t1 = time.perf_counter()
            result = run_algorithm(network, job.algorithm, seed=job.seed,
                                   backend=job.backend)
            t2 = time.perf_counter()
    except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
        return JobOutcome(wall_s=time.perf_counter() - t0,
                          error=f"{type(exc).__name__}: {exc}")
    outcome = JobOutcome(wall_s=t2 - t0, messages=result.messages,
                         warm_s=t2 - t1, fingerprint=_fingerprint(result))
    try:
        outcome.error = _check_election(job, network, result, reference,
                                        outcome)
    except Exception as exc:  # noqa: BLE001 - the oracle's twin run raised
        outcome.error = f"oracle run raised {type(exc).__name__}: {exc}"
    return outcome


def _check_election(job: ElectionJob, network, result,
                    reference: Optional[list],
                    outcome: JobOutcome) -> Optional[str]:
    if result.truncated:
        return "truncated at the round limit"
    leaders = result.num_leaders
    if leaders == 0 and job.algorithm in MONTE_CARLO:
        outcome.no_leader = True
    elif leaders != 1:
        return f"{leaders} leaders elected"
    if reference is not None and outcome.fingerprint != reference:
        return (f"fingerprint {outcome.fingerprint} != reference "
                f"{reference}")
    if job.backend == "net":
        from repro.api import run_algorithm

        twin = run_algorithm(network, job.algorithm, seed=job.seed,
                             backend="event-loop")
        if (_fingerprint(twin) != outcome.fingerprint
                or twin.statuses != result.statuses):
            return (f"socket run {outcome.fingerprint} differs from the "
                    f"event loop {_fingerprint(twin)}")
    return None


# ----------------------------------------------------------------------
def child_env(root: str) -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_report(root: str, cache_dir: str, out_dir: str, *, cold: bool,
               traced: Optional[Tuple[str, str]] = None) -> JobOutcome:
    """One ``repro report --grid smoke --seed 0`` in a fresh interpreter.

    ``cold`` says whether ``cache_dir`` starts empty: the cold run must
    execute all 161 cells, the warm re-run none.  ``traced`` is
    ``(job id, spans file)`` to run it under the span recorder instead.
    The wall time runs from process spawn to exit, as a user waits.
    """
    cli_args = list(REPORT_ARGS) + ["--cache-dir", cache_dir, "--out", out_dir]
    if traced is None:
        cmd = [sys.executable, "-m", "repro"] + cli_args
    else:
        job_id, spans_file = traced
        cmd = [sys.executable, os.path.join(root, "perfbench", "traced_job.py"),
               job_id, spans_file] + cli_args
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
    except OSError as exc:
        return JobOutcome(wall_s=0.0, error=f"spawn failed: {exc}")
    try:
        stdout, stderr = proc.communicate(timeout=REPORT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return JobOutcome(wall_s=time.perf_counter() - t0,
                          error=f"timed out after {REPORT_TIMEOUT_S:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    wall = time.perf_counter() - t0
    outcome = JobOutcome(wall_s=wall)
    outcome.error = _check_report(root, proc.returncode, stdout, stderr,
                                  out_dir, cold)
    if outcome.error is None:
        outcome.fingerprint = [_sha256(os.path.join(out_dir, "report.json"))]
        if cold:
            outcome.messages = cached_messages(cache_dir)
    return outcome


def _check_report(root: str, returncode: int, stdout: str, stderr: str,
                  out_dir: str, cold: bool) -> Optional[str]:
    if returncode != 0:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        return f"exit status {returncode}: {tail}"
    match = _SUMMARY.search(stdout)
    if match is None:
        return "no claims summary line on stdout"
    verified, diverged, _skipped, total, executed, _cached = \
        (int(g) for g in match.groups())
    if verified != SMOKE_CLAIMS or diverged:
        return f"{verified}/{SMOKE_CLAIMS} claims verified, {diverged} diverged"
    expected = SMOKE_CELLS if cold else 0
    if total != SMOKE_CELLS or executed != expected:
        return (f"{'cold' if cold else 'warm'} run executed {executed} of "
                f"{total} cells, expected {expected} of {SMOKE_CELLS}")
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        rendered = fh.read()
    with open(os.path.join(root, "report.json"), "rb") as fh:
        committed = fh.read()
    if rendered != committed:
        return "report.json differs from the committed report.json"
    return None


def cached_messages(cache_dir: str) -> int:
    """Messages simulated by the cells stored under ``cache_dir``."""
    total = 0
    for entry in sorted(os.listdir(cache_dir)):
        if not entry.endswith(".jsonl"):
            continue
        with open(os.path.join(cache_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                metrics = json.loads(line)["metrics"]
                total += metrics.get("messages", metrics.get("total_messages", 0))
    return total


def _sha256(path: str) -> str:
    import hashlib

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_reference(bench_dir: str) -> Dict[str, list]:
    """Election fingerprints by :attr:`ElectionJob.key` for the default
    workload seed, captured at the commit that defined the benchmark
    (see ``capture_reference.py``)."""
    with open(os.path.join(bench_dir, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["fingerprints"]

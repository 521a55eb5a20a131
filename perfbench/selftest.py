"""Tiny-size self-test of every workload.

Runs each workload for one second on small graphs, untraced and traced,
and checks the result line against ``BENCHMARK.json``: the exact keys,
every declared metric with its unit, no failed job.  It also checks
that the benchmark refuses to run, without printing a result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
Usage, from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import jobs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_run(declared: dict, workload: str, trace: int) -> None:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
        if not trace:
            assert metric["value"] > 0, spec["name"]


def check_refuses_without_program() -> None:
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "elect-net",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(jobs.WORKLOADS)
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            check_run(declared, workload, trace)
            print(f"ok  {workload} trace={trace}")
    check_refuses_without_program()
    print("ok  refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())

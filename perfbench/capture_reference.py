"""Capture the reference fingerprints of the election workloads.

Runs the first jobs of every election workload at the default workload
seed (0) and writes ``(messages, bits, rounds, leader uid)`` per job to
``perfbench/reference.json``.  Re-capture only on purpose, when a
change is meant to alter election results; the benchmark compares every
seed-0 run against this file.  Usage, from the root of a checkout::

    python3 perfbench/capture_reference.py
"""

from __future__ import annotations

import json
import os
import sys

import jobs

#: Jobs captured per workload: more than a default-length run executes.
CAPTURED = {"elect-sparse": 24, "elect-clique-large": 10, "elect-net": 90}


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench_dir), "src"))
    from repro.sim.bench import environment

    fingerprints = {}
    for workload, count in CAPTURED.items():
        for index, job in enumerate(jobs.election_jobs(workload, 0)):
            if index == count:
                break
            outcome = jobs.run_election(job, None)
            if outcome.error is not None:
                print(f"{job.key}: {outcome.error}", file=sys.stderr)
                return 1
            fingerprints[job.key] = outcome.fingerprint
        print(f"{workload}: {count} jobs captured")
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                      for key, value in fingerprints.items())
    with open(os.path.join(bench_dir, "reference.json"), "w",
              encoding="utf-8") as fh:
        fh.write(f'{{"captured_at": {json.dumps(environment()["git_sha"])},\n'
                 f'"fingerprint": ["messages", "bits", "rounds", "leader_uid"],\n'
                 f'"fingerprints": {{\n{rows}\n}}}}\n')
    return 0


if __name__ == "__main__":
    sys.exit(main())

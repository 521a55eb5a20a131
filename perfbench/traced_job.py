"""Run one ``repro`` CLI command under the span recorder.

Usage: ``traced_job.py JOB_ID SPANS_JSON CLI_ARGS...``, with
``src`` on ``PYTHONPATH``.  This is the traced twin of
``python -m repro CLI_ARGS...``: the same command in a fresh
interpreter, with its spans and layer totals written to SPANS_JSON.
"""

from __future__ import annotations

import json
import os
import sys

import spans


def main() -> int:
    job_id, spans_file, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rec = spans.SpanRecorder(os.path.join(root, "src"))
    spans.instrument(rec)
    from repro.cli import main as cli_main

    with rec.job(job_id):
        status = cli_main(cli_args)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump(rec.dump(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Record the outputs that bench/run.py checks every run against.

    python3 bench/make_golden.py

For every size, workload and seed slot this runs one traced pass with
MAPASSOC_THREADS=1 and stores the SHA-256 of the scene container, of the knn
and hmm association files and of both eval reports, plus the first and last
`mat_associate` probability row of every scene as base64 float32. Run it only
at a commit whose outputs are meant to be the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracer as tracing
import workloads


def record(cli, workload: str, size: str, slot: int, workdir) -> dict:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pipe = run.Pipeline(cli, workload, size, slot, workdir, golden=None)
    t = tracing.Tracer()
    t.install()
    try:
        res = pipe.run_pass(t)
    finally:
        t.restore()
    if res["failed"]:
        raise SystemExit(f"{size}/{workload}/{slot}: " + "; ".join(res["failures"]))
    entry = {stage: res["digests"][stage] for stage in run.GOLDEN_FILES}
    entry["mat_rows"] = run.encode_rows(t.mat_rows)
    return entry


def main() -> int:
    os.environ["MAPASSOC_THREADS"] = "1"
    cli = run.load_cli()
    entries = {}
    workdir = run.ROOT / ".bench_work" / f"golden-{os.getpid()}"
    try:
        for size in workloads.SIZES:
            for workload in workloads.WORKLOADS:
                for slot in range(workloads.SLOTS):
                    entries[f"{size}/{workload}/{slot}"] = record(cli, workload, size, slot, workdir)
                    print(f"{size}/{workload}/{slot}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"slots": workloads.SLOTS, "entries": entries}
    run.GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

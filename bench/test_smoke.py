"""Smoke test of the benchmark at tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload once timed and once traced, and checks that every metric
BENCHMARK.json names is printed with its unit, that every output check
passes (traced outputs byte-identical to untraced ones included), and that
the benchmark refuses to run without the mapassoc sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_metrics_the_code_emits():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_its_checks(workload, trace):
    proc = _bench("--workload", workload, "--size", "tiny", "--seed", 1, "--seconds", 0.1, "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, stamp_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    stamp = json.loads(stamp_line)["stamp"]
    for key in ("nproc", "MAPASSOC_THREADS", "python", "numpy", "scipy", "seed", "scenes",
                "centerlines", "tokens", "lane_paths", "road_paths", "path_copies"):
        assert key in stamp
    assert stamp["MAPASSOC_THREADS"] == (1 if trace else stamp["nproc"])


def test_missing_target_fails_the_traced_run_loudly():
    run.load_cli()
    t = tracer.Tracer()
    with pytest.raises(AttributeError):
        t.patch("mapassoc.cli", "no_such_function", "cli.none")
    t.restore()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "fleet", "--seed", 0, "--seconds", 1, "--trace", 0,
                  cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

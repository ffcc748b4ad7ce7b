"""Benchmark of the mapassoc CLI pipeline, end to end and per module.

    python3 bench/run.py --workload ladder --seed 0 --seconds 40 --trace 0

Each run is one fresh interpreter that imports mapassoc from `src/` next to
this directory and drives the real CLI in-process through
`mapassoc.cli.main(argv)`. A pass runs six stages in a fixed order:

    setup               `gen`, one call per workload part, concatenated
    associate_knn       `associate --method knn`
    associate_hmm       `associate --method hmm`
    associate_mat_beam  `associate --method mat --post` (desk config, init seed 0)
    eval_association    `eval --metric association` on the hmm output
    eval_reachability   `eval --metric reachability` on the mat+beam output

With `--trace 0` passes repeat while the next one is expected to end within
`--seconds`, with MAPASSOC_THREADS pinned to the CPUs this process may use,
and each stage time is the median over all calls of that stage. With
`--trace 1` a warm-up pass is followed by rounds of one untraced and one
traced pass, both with MAPASSOC_THREADS=1; the result holds the medians of
the per-layer metrics, and the spans are written to `.bench_work/traces/`.

Every CLI call is one operation. It fails on a nonzero exit code or on a
failed output check: the scene container, the knn and hmm association files
and both eval reports must equal the seed commit's bytes (golden.json), every
centerline must get one of its scene's road ids from mat+beam, every pass must
write the same bytes, traced passes the same bytes as untraced ones, and
traced `mat_associate` probability rows must stay within 1e-5 of the seed
commit's. The last line of standard output is the JSON result; the line
before it stamps the environment and the workload's structure.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
MAT_ROW_ATOL = 1e-5
# Shortest time a stage runs per timed pass; see Pipeline.run_pass.
STAGE_MIN_S = 0.5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

STAGES = (
    "setup",
    "associate_knn",
    "associate_hmm",
    "associate_mat_beam",
    "eval_association",
    "eval_reachability",
)

# (metric, unit, better) in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("associate_knn_s", "s", "lower"),
    ("associate_hmm_s", "s", "lower"),
    ("associate_mat_beam_s", "s", "lower"),
    ("eval_association_s", "s", "lower"),
    ("eval_reachability_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("hmm_af1", "fraction", "higher"),
)

# Output files whose bytes the golden table fixes, by the stage writing them.
GOLDEN_FILES = {
    "setup": "scenes.ndjson",
    "associate_knn": "knn.ndjson",
    "associate_hmm": "hmm.ndjson",
    "eval_association": "association.json",
    "eval_reachability": "reachability.json",
}
OUTPUTS = {**GOLDEN_FILES, "associate_mat_beam": "mat_beam.ndjson"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_cli():
    """Import mapassoc from this checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mapassoc" / "__init__.py").is_file():
        raise BenchError(f"no mapassoc sources under {src}")
    sys.path.insert(0, str(src))
    # One process, and no threads beyond the CLI's own pool: numpy's BLAS
    # reads these once, when it loads.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import mapassoc
    import mapassoc.cli

    if Path(mapassoc.__file__).resolve().parent != (src / "mapassoc").resolve():
        raise BenchError(f"imported mapassoc from {mapassoc.__file__}, not from {src}")
    return mapassoc.cli


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def encode_rows(rows) -> str:
    import numpy as np

    return base64.b64encode(np.concatenate(rows).astype("<f4").tobytes()).decode("ascii")


def decode_rows(text: str):
    import numpy as np

    return np.frombuffer(base64.b64decode(text), dtype="<f4")


class Pipeline:
    """The six stages of one workload over files in `workdir`."""

    def __init__(self, cli, workload: str, size: str, seed: int, workdir: Path, golden):
        self.cli = cli
        self.slot = workloads.slot_of(seed)
        self.parts = workloads.compose(workload, size)
        self.dir = workdir
        self.golden = golden
        self.first = {}  # output digests of the first pass, for determinism
        self._scene_roads = None
        self._rows = None
        for i, part in enumerate(self.parts):
            (self.dir / f"part{i}.json").write_text(json.dumps(part.config(self.slot), sort_keys=True))

    def path(self, stage: str) -> Path:
        return self.dir / OUTPUTS[stage]

    def _call(self, argv, failures: list) -> bool:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a stray traceback is a failed operation, not a crash
            rc = 1
            err.write(traceback.format_exc())
        if rc != 0:
            failures.append(f"mapassoc {argv[0]} exited {rc}: {err.getvalue().strip()[-2000:]}")
        return rc == 0

    def _argv(self, stage: str):
        d, scenes = self.dir, self.path("setup")
        if stage == "associate_knn":
            return [["associate", "--method", "knn", "--scenes", scenes, "--out", self.path(stage)]]
        if stage == "associate_hmm":
            return [["associate", "--method", "hmm", "--scenes", scenes, "--out", self.path(stage)]]
        if stage == "associate_mat_beam":
            return [["associate", "--method", "mat", "--post", "--init-seed", 0,
                     "--scenes", scenes, "--out", self.path(stage)]]
        if stage == "eval_association":
            return [["eval", "--metric", "association", "--pred", self.path("associate_hmm"),
                     "--scenes", scenes, "--report", self.path(stage)]]
        if stage == "eval_reachability":
            return [["eval", "--metric", "reachability", "--pred", self.path("associate_mat_beam"),
                     "--scenes", scenes, "--report", self.path(stage)]]
        return [["gen", "--config", d / f"part{i}.json", "--count", p.count, "--seed", p.seed,
                 "--out", d / f"part{i}.ndjson"] for i, p in enumerate(self.parts)]

    def run_pass(self, tracer=None, repeat: bool = False) -> dict:
        """Run every stage; returns per-stage call times, operation counts and digests.

        With `repeat`, a stage runs again until its calls in this pass add up
        to STAGE_MIN_S, so short stages give more than one sample per pass.
        A call that fails stops the pass; it and every later stage's calls
        count as failed operations.
        """
        plan = [(stage, self._argv(stage)) for stage in STAGES]
        times, digests, failures, ops, failed = {}, {}, [], 0, 0
        for k, (stage, calls) in enumerate(plan):
            samples = times[stage] = []
            while True:
                span = tracer.span(f"stage.{stage}") if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                with span:
                    ok = all(self._call(argv, failures) for argv in calls)
                    if ok and stage == "setup":
                        with open(self.path("setup"), "wb") as fh:
                            for i in range(len(self.parts)):
                                fh.write((self.dir / f"part{i}.ndjson").read_bytes())
                samples.append(time.perf_counter() - start)
                ops += len(calls)
                if not ok:
                    rest = sum(len(c) for _, c in plan[k + 1:])
                    return {"times": times, "ops": ops + rest, "failed": failed + len(calls) + rest,
                            "failures": failures, "digests": digests}
                problem = self._check(stage, digests)
                if problem:
                    failures.append(f"{stage}: {problem}")
                    failed += len(calls)
                if not repeat or sum(samples) >= STAGE_MIN_S:
                    break
        return {"times": times, "ops": ops, "failed": failed, "failures": failures, "digests": digests}

    def _check(self, stage: str, digests: dict):
        path = self.path(stage)
        digest = digests[stage] = sha256(path)
        if self.golden is not None and stage in GOLDEN_FILES and digest != self.golden[stage]:
            return f"{path.name} differs from the seed commit's bytes"
        if self.first.setdefault(stage, digest) != digest:
            return f"{path.name} differs from the first pass's bytes"
        if stage == "associate_mat_beam":
            return self._check_labels(path)
        return None

    def _check_labels(self, path: Path):
        if self._scene_roads is None:
            self._scene_roads = []
            for line in self.path("setup").read_text().splitlines():
                doc = json.loads(line)
                self._scene_roads.append((
                    {str(c["id"]) for c in doc["hd"]["centerlines"]},
                    {r["id"] for r in doc["sd"]["roads"]},
                ))
        records = [json.loads(line) for line in path.read_text().splitlines()]
        if len(records) != len(self._scene_roads):
            return f"{len(records)} records for {len(self._scene_roads)} scenes"
        for i, (rec, (cls, roads)) in enumerate(zip(records, self._scene_roads)):
            if set(rec["labels"]) != cls:
                return f"record {i} does not label every centerline exactly once"
            bad = sorted(r for r in rec["labels"].values() if r not in roads)
            if bad:
                return f"record {i} uses road ids {bad[:5]} that scene {i} does not have"
        return None

    def structure(self) -> list:
        """Per-scene structural counts of the generated container, computed once."""
        if self._rows is not None:
            return self._rows
        from mapassoc.geometry import enumerate_paths
        from mapassoc.io import read_scenes
        from mapassoc.mat.forward import build_tokens

        scenes = read_scenes(str(self.path("setup")))
        rows = []
        for scene in scenes:
            toks = build_tokens(scene)
            rows.append({
                "centerlines": len(scene.hd.centerlines),
                "tokens": len(toks),
                "lane_paths": len(enumerate_paths(scene.hd).paths),
                "road_paths": len(enumerate_paths(scene.sd).paths),
                "path_copies": len(toks.pidx.dup_map),
            })
        # gen writes the parts in order, so scene i belongs to the part covering it
        owners = [p.name for p in self.parts for _ in range(p.count)]
        for row, owner in zip(rows, owners):
            row["part"] = owner
            row["copy_factor"] = row["path_copies"] / row["tokens"]
        self._rows = rows
        return rows

    def hmm_af1(self) -> float:
        return json.loads(self.path("eval_association").read_text())["report"]["af1_50_95"]

    def fallback_ratio(self, lane_paths: int) -> float:
        records = [json.loads(line) for line in self.path("associate_mat_beam").read_text().splitlines()]
        fallbacks = sum(len(r.get("decode_meta", {}).get("fallback_paths", ())) for r in records)
        return fallbacks / lane_paths


def guard_failures(workload: str, rows: list, fallback_ratio: float) -> list:
    """The structural counts a full-size workload is chosen for; empty when they hold."""
    top = max(r["copy_factor"] for r in rows)
    if workload == "ladder":
        rung = next(r for r in rows if r["part"] == "grid5x5")
        checks = [(rung["copy_factor"] >= 20, f"top-rung copy factor {rung['copy_factor']:.1f} < 20")]
    elif workload == "fleet":
        most = max(r["lane_paths"] for r in rows)
        checks = [(top <= 4, f"copy factor {top:.2f} > 4"), (most < 30, f"{most} lane paths in one scene")]
    else:
        checks = [(top <= 15, f"copy factor {top:.1f} > 15"),
                  (fallback_ratio > 0, "mat+beam never falls back to argmax")]
    return [msg for ok, msg in checks if not ok]


def run(args) -> tuple:
    cli = load_cli()
    golden_doc = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {"entries": {}}
    key = f"{args.size}/{args.workload}/{workloads.slot_of(args.seed)}"
    golden = golden_doc["entries"].get(key)
    if golden is None:
        raise BenchError(f"{GOLDEN.name} has no entry {key}; run bench/make_golden.py at the seed commit")

    nproc = len(os.sched_getaffinity(0))
    threads = 1 if args.trace else nproc
    os.environ["MAPASSOC_THREADS"] = str(threads)
    work = ROOT / ".bench_work"
    workdir = work / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        pipe = Pipeline(cli, args.workload, args.size, args.seed, workdir, golden)
        if args.trace:
            result = trace_rounds(pipe, args, threads, golden, work)
        else:
            result = timed_passes(pipe, args, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _finish(pipe, args, threads: int, passes: int, failures: list, extra=None) -> tuple:
    """The stamp line and the regime guard verdict, shared by both modes."""
    import numpy
    import scipy

    rows = pipe.structure() if pipe.first.get("setup") else []
    lane_paths = sum(r["lane_paths"] for r in rows)
    guards = []
    if rows and args.size == "full" and pipe.first.get("associate_mat_beam"):
        guards = guard_failures(args.workload, rows, pipe.fallback_ratio(lane_paths))
    failures += [f"regime guard: {g}" for g in guards]
    stamp = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "slot": pipe.slot,
        "trace": args.trace,
        "passes": passes,
        "nproc": len(os.sched_getaffinity(0)),
        "MAPASSOC_THREADS": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scenes": len(rows),
        **{key: sum(r[key] for r in rows)
           for key in ("centerlines", "tokens", "lane_paths", "road_paths", "path_copies")},
        "guards": guards or "ok",
        **(extra or {}),
    }
    return stamp, guards


def timed_passes(pipe: Pipeline, args, threads: int) -> tuple:
    start = time.perf_counter()
    samples = {s: [] for s in STAGES}
    ops = failed = passes = 0
    failures = []
    while True:
        began = time.perf_counter()
        res = pipe.run_pass(repeat=True)
        passes += 1
        ops += res["ops"]
        failed += res["failed"]
        failures += res["failures"]
        for s, t in res["times"].items():
            samples[s] += t
        now = time.perf_counter()
        # stop before a pass that would end after --seconds
        if res["failed"] or now + (now - began) - start > args.seconds:
            break
    stamp, guards = _finish(pipe, args, threads, passes, failures)
    metrics = {}
    if not failed:
        for s in STAGES:
            metrics[f"{s}_s"] = statistics.median(samples[s])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["hmm_af1"] = pipe.hmm_af1()
    units = {m: u for m, u, _ in END_TO_END}
    return stamp, ops, failed, failures, {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}, guards


def trace_rounds(pipe: Pipeline, args, threads: int, golden: dict, work: Path) -> tuple:
    import numpy as np
    import tracer as tracing

    start = time.perf_counter()
    ops = failed = 0
    failures, layers, all_spans = [], [], []

    def tally(res) -> bool:
        nonlocal ops, failed
        ops += res["ops"]
        failed += res["failed"]
        failures.extend(res["failures"])
        return not res["failed"]

    # The first pass in a fresh interpreter is slower; it would show up as a
    # negative tracing overhead, so it only warms up and checks.
    ok = tally(pipe.run_pass())
    while ok:
        began = time.perf_counter()
        plain = pipe.run_pass()
        t = tracing.Tracer()
        t.install()
        try:
            traced = pipe.run_pass(t)
        finally:
            t.restore()
        all_spans.append(t.spans)
        ok = tally(plain) and tally(traced)
        if not ok:
            break
        if traced["digests"] != plain["digests"]:
            differ = sorted(s for s in plain["digests"] if plain["digests"][s] != traced["digests"].get(s))
            failures.append(f"traced outputs differ from untraced ones: {differ}")
            failed += 1
            break
        rows_now = np.concatenate(t.mat_rows)
        rows_seed = decode_rows(golden["mat_rows"])
        if rows_now.shape != rows_seed.shape or not np.allclose(rows_now, rows_seed, rtol=0, atol=MAT_ROW_ATOL):
            failures.append(f"mat_associate probability rows moved more than {MAT_ROW_ATOL} from the seed commit's")
            failed += 1
            break
        rows = pipe.structure()
        layer = tracing.per_layer(
            t,
            scenes=len(rows),
            lane_paths=sum(r["lane_paths"] for r in rows),
            road_paths=sum(r["road_paths"] for r in rows),
            threads=threads,
        )
        for s in STAGES:
            layer[f"trace.{s}_overhead_s"] = traced["times"][s][0] - plain["times"][s][0]
        layers.append(layer)
        now = time.perf_counter()
        if now + (now - began) - start > args.seconds:
            break
    traces = work / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    span_file = traces / f"{args.workload}-{args.size}-seed{args.seed}.json.gz"
    with gzip.open(span_file, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "scene"], "passes": all_spans}, fh)
    extra = {"spans": str(span_file.relative_to(ROOT))}
    stamp, guards = _finish(pipe, args, threads, len(layers), failures, extra)
    metrics = {}
    if layers and not failed:
        for name, unit, _ in tracing.PER_LAYER:
            metrics[name] = {"value": statistics.median(l[name] for l in layers), "unit": unit}
    return stamp, ops, failed, failures, metrics, guards


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0, help="workload seed (held-out seed: 11)")
    p.add_argument("--seconds", type=float, default=30.0, help="measure for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    p.add_argument("--size", choices=workloads.SIZES, default="full", help="tiny: smoke-test size")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        stamp, ops, failed, failures, metrics, guards = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in failures:
        print(f"bench: {line}", file=sys.stderr)
    correct = failed == 0 and not guards
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

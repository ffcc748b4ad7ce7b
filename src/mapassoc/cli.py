"""Command-line surface: generate, associate, evaluate, report.

Subcommands chain through newline-delimited scene and association files so
a whole benchmark run is four shell lines:

    mapassoc gen --config cfg.json --count 50 --seed 7 --out scenes.ndjson
    mapassoc associate --method hmm --scenes scenes.ndjson --out pred.ndjson
    mapassoc eval --metric association --pred pred.ndjson \
        --scenes scenes.ndjson --report hmm.json
    mapassoc report --reports hmm.json knn.json --csv summary.csv

Exit codes: 0 success, 2 validation/configuration error, 3 infeasible
computation (generation retries exhausted, no feasible decode), 1 anything
else.  Per-scene work runs on forked worker processes: MAPASSOC_THREADS
caps their number (default: all usable CPUs, and never more than those),
and the run is serial where the platform has no fork.  Outputs are
order-preserving and bit-identical across worker counts.

`associate` and `eval` split the scene container into lines in the calling
process; each scene is parsed by the worker that runs it.  Workers claim the
scene with the longest line left, the calling process the shortest, until
the two ends meet.  `gen` hands out scene indices in order the same way; its
worker generates, perturbs and augments a scene and returns the scene's
canonical line, so the calling process only joins the lines in index order.
Faults are found as a serial run meets them: first the command's own inputs
(flags, config files, weights, the scene container's text, the association
file and its record count), then each scene in file order (its parse, its
`scene_ref` pairing, its work; for `gen`, generation through serialization).
Whatever the worker count, the error raised is the first one in that order.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import functools
import json
import mmap
import os
import pickle
import signal
import struct
import sys

import numpy as np

from .baselines import HmmParams, distance_assoc_matrix, hmm_associate, knn_associate
from .decoder import DecoderConfig, decode_association
from .errors import ConfigError, GenerationError, MapAssocError, NoFeasiblePathError, ValidationError
from .io import (
    AssocRecord,
    decode_utf8,
    dumps_scene,
    load_weights,
    loads_scene,
    numbered_lines,
    parse_json,
    read_assocs,
    write_assocs,
    write_lines,
)
from .io import read_scenes, write_scenes  # noqa: F401  kept as module attributes; bench/tracer.py patches them
from .mat import ModelConfig, desk_config, init_weights, mat_associate
from .metrics import MetricConfig, MetricReport, Prediction, association_pr, reachability_pr, report_table
from .scenegen import AugConfig, GenConfig, PerturbConfig, augment_scene, generate_scene, perturb_scene


def _threads() -> int:
    env = os.environ.get("MAPASSOC_THREADS")
    if env is None or env == "":
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        raise ConfigError(f"MAPASSOC_THREADS must be an integer, got {env!r}") from None
    if n < 1:
        raise ConfigError(f"MAPASSOC_THREADS must be >= 1, got {n}")
    return n


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:  # not a wheel install
        return None
    for name in names:
        if name.startswith("libscipy_openblas"):
            try:
                lib = ctypes.CDLL(os.path.join(libs, name))
                get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, so forked workers do not share CPUs with it."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


# The claim state forked workers share: the next rank from the top, the end of
# the unclaimed ranks, and the lowest failing item index (len(items) until one fails).
_CLAIMS = struct.Struct("qqq")


def _map(fn, items, costs=None) -> list:
    """Order-preserving map over items on forked worker processes.

    Items are ranked by `costs`, largest first (in index order without
    costs), and claimed one at a time. With n workers, the n - 1 forked
    children start on the n - 1 top-ranked items and then each claims the
    top-ranked item left; the calling process claims from the bottom, so it
    runs the smallest items, until the two ends meet. Children inherit `fn`
    and `items` through the fork, so only results are pickled, one list per
    child through a pipe. If any item raises, the exception of the lowest
    failing index is re-raised: the error a serial run gives, whatever the
    worker count. A claimed item above the lowest failure recorded so far is
    skipped. If the calling process itself raises (say, on an interrupt),
    its children are killed and reaped before the exception propagates.
    """
    items = list(items)
    n = min(_threads(), _usable_cpus(), len(items))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    rank = list(range(len(items)))
    if costs is not None:
        rank.sort(key=costs.__getitem__, reverse=True)  # stable: equal costs keep index order
    state = mmap.mmap(-1, _CLAIMS.size)
    _CLAIMS.pack_into(state, 0, n - 1, len(items), len(items))
    token_r, token_w = os.pipe()  # holds one byte while no process holds the claim state
    os.write(token_w, b"\0")

    @contextlib.contextmanager
    def claim_state():
        os.read(token_r, 1)
        try:
            yield _CLAIMS.unpack_from(state)
        finally:
            os.write(token_w, b"\0")

    def run(top: bool, position=None) -> list:
        """(index, ok, value) of each item this process claims, from the top or the bottom."""
        done = []
        while True:
            with claim_state() as (front, back, low):
                if position is None:
                    if front >= back:
                        return done
                    if top:
                        position, front = front, front + 1
                    else:
                        position = back = back - 1
                    _CLAIMS.pack_into(state, 0, front, back, low)
            i, position = rank[position], None
            if i > low:
                continue
            try:
                done.append((i, True, fn(items[i])))
            except Exception as exc:
                with claim_state() as (front, back, low):
                    _CLAIMS.pack_into(state, 0, front, back, min(low, i))
                done.append((i, False, exc))

    children = []  # (worker, pid, read end of its result pipe)
    try:
        with _one_blas_thread():
            for w in range(1, n):
                r, wr = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(wr)
                    raise
                if pid == 0:  # child: never returns into the caller's stack
                    code = 1
                    try:
                        os.close(r)
                        for _, _, fd in children:
                            os.close(fd)
                        with os.fdopen(wr, "wb") as fh:
                            pickle.dump(run(True, w - 1), fh, protocol=pickle.HIGHEST_PROTOCOL)
                        code = 0
                    finally:
                        os._exit(code)
                os.close(wr)
                children.append((w, pid, r))
            done = run(False)
            lost = []
            while children:
                w, pid, r = children.pop(0)
                try:
                    with os.fdopen(r, "rb") as fh:
                        data = fh.read()
                finally:
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if status != 0 or not data:
                    lost.append(f"worker {w} (pid {pid}) ended with status {status} before sending its results")
                else:
                    done += pickle.loads(data)
    finally:
        for _, pid, r in children:  # left only when the caller raised, so their results are unwanted
            os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)
        os.close(token_r)
        os.close(token_w)
        state.close()
    if lost:
        raise ChildProcessError("; ".join(lost))
    out = [None] * len(items)
    failed = None
    for i, ok, value in done:
        if ok:
            out[i] = value
        elif failed is None or i < failed[0]:
            failed = (i, value)
    if failed is not None:
        raise failed[1]
    return out


def _read_json(path: str, where: str) -> dict:
    with open(path, "rb") as fh:
        text = decode_utf8(fh.read(), f"{where} {path}")
    try:
        doc = parse_json(text, f"{where} {path}", finite=True)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where} {path}: malformed JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} {path}: expected a JSON object")
    return doc


def _config_from(cls, doc, where: str):
    """Build a config dataclass from a JSON object; an unknown key or a misfit value names `where`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise ConfigError(f"{where}: unknown fields: {', '.join(unknown)}")
    try:
        return cls(**doc)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _non_negative(text: str) -> int:
    """An argparse type for seeds and counts."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    doc = _read_json(args.config, "config") if args.config else {}
    unknown = sorted(set(doc) - {"gen", "perturb", "augment"})
    if unknown:
        raise ConfigError(f"config {args.config}: unknown sections: {', '.join(unknown)}")
    gen_cfg = _config_from(GenConfig, doc.get("gen", {}), "gen config")
    perturb_doc = doc.get("perturb")
    augment_doc = doc.get("augment")
    pcfg = _config_from(PerturbConfig, perturb_doc, "perturb config") if perturb_doc is not None else None
    acfg = _config_from(AugConfig, augment_doc, "augment config") if augment_doc is not None else None
    base = args.seed if args.seed is not None else gen_cfg.seed

    def one(i: int) -> str:
        scene = generate_scene(dataclasses.replace(gen_cfg, seed=base + i))
        if pcfg is not None:
            scene = perturb_scene(scene, dataclasses.replace(pcfg, seed=pcfg.seed + i))
        if acfg is not None:
            scene = augment_scene(scene, dataclasses.replace(acfg, seed=acfg.seed + i))
        return dumps_scene(scene)

    lines = _map(one, range(args.count))
    write_lines(lines, args.out)
    print(f"wrote {len(lines)} scenes to {args.out}")
    return 0


def _scene_items(path: str) -> tuple:
    """`(index, where, line)` per scene of a container, and each line's length as its cost."""
    items = [(i, where, line) for i, (where, line) in enumerate(numbered_lines(path))]
    return items, [len(line) for _, _, line in items]


def _cmd_associate(args) -> int:
    method = args.method
    mcfg = None
    weights = None
    if method == "mat":
        if args.model_config:
            mcfg = _config_from(ModelConfig, _read_json(args.model_config, "model config"), "model config")
        else:
            mcfg = desk_config()
        if args.weights:
            weights = load_weights(args.weights, mcfg)
        else:
            weights = init_weights(mcfg, seed=args.init_seed)
    dcfg = DecoderConfig(k=args.beam_k)
    items, costs = _scene_items(args.scenes)

    def one(item) -> AssocRecord:
        i, where, line = item
        scene = loads_scene(line, where)
        if method == "mat":
            amat, _ = mat_associate(scene, mcfg, weights, curve_seed=args.curve_seed)
        else:
            # the soft matrix only feeds the decoder and the stored rows
            amat = distance_assoc_matrix(scene) if args.post or args.store_probs else None
        if args.post:
            assoc = decode_association(scene, amat, dcfg)
        elif method == "mat":
            assoc = amat.argmax_association()
        else:
            assoc = knn_associate(scene) if method == "knn" else hmm_associate(scene)
        return AssocRecord(
            method=(method + "+beam") if args.post else method,
            scene_ref=str(scene.meta.get("scene_id", f"scene-{i}")),
            assoc=assoc,
            probs=amat if args.store_probs else None,
        )

    records = _map(one, items, costs)
    write_assocs(records, args.out)
    print(f"wrote {len(records)} association records to {args.out}")
    return 0


def _sum_reports(per_scene) -> MetricReport:
    first = per_scene[0]
    counts = first.counts.copy()
    for rep in per_scene[1:]:
        counts += rep.counts
    return MetricReport(thresholds=first.thresholds, buckets=first.buckets, counts=counts)


def _cmd_eval(args) -> int:
    kwargs = {"point_match_tau": args.tau, "chamfer_tau": args.chamfer_tau}
    if args.thresholds:
        try:
            kwargs["thresholds"] = tuple(float(t) for t in args.thresholds.split(","))
        except ValueError:
            raise ConfigError(f"--thresholds must be comma-separated numbers, got {args.thresholds!r}") from None
    cfg = MetricConfig(**kwargs)
    score = association_pr if args.metric == "association" else reachability_pr
    items, costs = _scene_items(args.scenes)
    if not items:
        raise ValidationError(f"{args.scenes}: no scenes in container")
    records = read_assocs(args.pred)
    if len(records) != len(items):
        raise ValidationError(f"{args.pred} has {len(records)} records but {args.scenes} has {len(items)} scenes")

    def one(item) -> MetricReport:
        i, where, line = item
        scene = loads_scene(line, where)
        sid = scene.meta.get("scene_id")
        if sid is not None and records[i].scene_ref != str(sid):
            raise ValidationError(
                f"record {i} references scene {records[i].scene_ref!r} but scene {i} is {str(sid)!r}"
            )
        return score([Prediction(assoc=records[i].assoc)], [scene], cfg)

    report = _sum_reports(_map(one, items, costs))

    name = args.name or (records[0].method if records else "pred")
    doc = {
        "name": name,
        "metric": args.metric,
        "scenes": len(items),
        "report": report.to_json(),
    }
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(report_table({name: report}))
    return 0


def _cmd_report(args) -> int:
    reports = []
    rows = []
    for path in args.reports:
        doc = _read_json(path, "report")
        for key in ("name", "metric", "report"):
            if key not in doc:
                raise ValidationError(f"report {path}: missing field {key!r}")
        try:
            rep = MetricReport.from_json(doc["report"])
        except (ConfigError, ValidationError) as exc:
            raise ValidationError(f"report {path}: field 'report': {exc}") from exc
        name = str(doc["name"])
        reports.append((name, rep))
        prec, rec, f1 = rep.precision, rep.recall, rep.f1
        for j, th in enumerate(rep.thresholds):
            rows.append([name, doc["metric"], f"{th:g}", f"{prec[j]:.6f}", f"{rec[j]:.6f}", f"{f1[j]:.6f}"])
        rows.append([name, doc["metric"], "50:95", f"{rep.ap:.6f}", f"{rep.ar:.6f}", f"{rep.af1:.6f}"])
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "metric", "threshold", "precision", "recall", "f1"])
        writer.writerows(rows)
    print(report_table(reports))
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapassoc",
        description="SD-HD map association: scene generation, baselines, transformer, metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate scenes (generate + perturb + optional augment)")
    gen.add_argument("--config", help="JSON with optional gen/perturb/augment sections")
    gen.add_argument("--count", type=_non_negative, default=1, help="number of scenes")
    gen.add_argument("--seed", type=_non_negative, default=None, help="base seed; scene i uses seed+i")
    gen.add_argument("--out", required=True, help="output scene container")
    gen.set_defaults(fn=_cmd_gen)

    assoc = sub.add_parser("associate", help="run an association method over scenes")
    assoc.add_argument("--method", required=True, choices=("knn", "hmm", "mat"))
    assoc.add_argument("--post", action="store_true", help="beam-decode the probability matrix")
    assoc.add_argument("--weights", help="weights container for --method mat")
    assoc.add_argument("--model-config", help="JSON model configuration for --method mat")
    assoc.add_argument("--init-seed", type=_non_negative, default=0, help="random init seed when no weights given")
    assoc.add_argument("--curve-seed", type=_non_negative, default=0, help="seed for random curve scheduling")
    assoc.add_argument("--beam-k", type=int, default=5, help="beam width for --post")
    assoc.add_argument("--store-probs", action="store_true", help="keep full probability rows in the output")
    assoc.add_argument("--scenes", required=True, help="input scene container")
    assoc.add_argument("--out", required=True, help="output association container")
    assoc.set_defaults(fn=_cmd_associate)

    ev = sub.add_parser("eval", help="score predictions against ground truth")
    ev.add_argument("--metric", required=True, choices=("association", "reachability"))
    ev.add_argument("--pred", required=True, help="association container to score")
    ev.add_argument("--scenes", required=True, help="scene container with ground truth")
    ev.add_argument("--tau", type=float, default=1.5, help="endpoint match radius (meters)")
    ev.add_argument("--chamfer-tau", type=float, default=1.0, help="reachability Chamfer tolerance (meters)")
    ev.add_argument("--thresholds", help="comma-separated overlap thresholds (default 0.5:0.05:0.95)")
    ev.add_argument("--name", help="row label in tables and CSV (default: method of first record)")
    ev.add_argument("--report", required=True, help="output JSON report")
    ev.set_defaults(fn=_cmd_eval)

    rep = sub.add_parser("report", help="merge JSON reports into a plot-ready CSV")
    rep.add_argument("--reports", required=True, nargs="+", help="JSON reports from eval")
    rep.add_argument("--csv", required=True, help="output CSV path")
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GenerationError, NoFeasiblePathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MapAssocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

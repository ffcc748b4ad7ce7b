"""End-to-end runs of the mapassoc command line, invoked in-process."""

from __future__ import annotations

import csv
import json
import os
import select
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mapassoc import cli, geometry
from mapassoc.assocmatrix import AssocMatrix
from mapassoc.cli import main
from mapassoc.errors import ValidationError
from mapassoc.geometry import Association, Point2
from mapassoc.io import AssocRecord, dumps_scene, read_assocs, read_scenes, save_weights, write_assocs
from mapassoc.mat import desk_config, init_weights, weights as mat_weights
from mapassoc.metrics import MetricReport
from mapassoc.scenegen import AugConfig, GenConfig, PerturbConfig, augment_scene, generate_scene, perturb_scene

SMALL_CFG = {"gen": {"lanes_per_road": [1, 1], "hd_extent": [12.0, 24.0]}}
NOISY_CFG = {
    "gen": {"lanes_per_road": [1, 1], "hd_extent": [12.0, 24.0]},
    "perturb": {"gps_shift": 1.0, "dropout_rate": 0.1, "seed": 5},
}
# every perturbation and augmentation step on
FULL_NOISE_CFG = {
    "gen": {"layout": "random-planar", "hd_extent": [40.0, 40.0]},
    "perturb": {"gps_shift": 1.0, "dropout_rate": 0.1, "jitter_sigma": 0.2, "oversegment_rate": 0.2, "seed": 5},
    "augment": {"rotate_p": 1.0, "flip_p": 0.5, "scale_range": [0.9, 1.1], "jitter_sigma": 0.01,
                "jitter_clip": 0.015, "grid_sample": [2.0, 2.0, 0.4], "seed": 3},
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gen_scenes(tmp_path, cfg=SMALL_CFG, count=2, seed=11, name="scenes.ndjson"):
    out = str(tmp_path / name)
    rc = main(["gen", "--config", write_cfg(tmp_path, cfg), "--count", str(count), "--seed", str(seed), "--out", out])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# happy paths


def test_gen_writes_scene_container(tmp_path, capsys):
    out = gen_scenes(tmp_path, count=3, seed=2)
    assert "wrote 3 scenes" in capsys.readouterr().out
    scenes = read_scenes(out)
    assert len(scenes) == 3
    # base seed 2, scene i uses seed 2 + i
    assert [s.meta["scene_id"] for s in scenes] == ["grid-2", "grid-3", "grid-4"]
    assert all(s.gt is not None for s in scenes)


def test_gen_without_config_uses_defaults(tmp_path):
    out = str(tmp_path / "plain.ndjson")
    assert main(["gen", "--count", "1", "--seed", "42", "--out", out]) == 0
    (scene,) = read_scenes(out)
    assert scene.meta["layout"] == "grid"


def test_full_pipeline_knn(tmp_path, capsys):
    scenes = gen_scenes(tmp_path)
    pred = str(tmp_path / "pred.ndjson")
    assert main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred]) == 0
    records = read_assocs(pred)
    assert [r.method for r in records] == ["knn", "knn"]
    assert records[0].scene_ref == "grid-11"
    assert all(r.probs is None for r in records)

    report = str(tmp_path / "knn.json")
    rc = main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes, "--report", report])
    assert rc == 0
    doc = json.loads((tmp_path / "knn.json").read_text())
    assert doc["name"] == "knn"
    assert doc["metric"] == "association"
    assert doc["scenes"] == 2
    rep = MetricReport.from_json(doc["report"])
    # clean scenes: nearest-road labels match ground truth exactly
    assert rep.ap == 1.0 and rep.ar == 1.0 and rep.af1 == 1.0
    out = capsys.readouterr().out
    assert "A-F1" in out and "knn" in out

    summary = str(tmp_path / "summary.csv")
    assert main(["report", "--reports", report, "--csv", summary]) == 0
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["name", "metric", "threshold", "precision", "recall", "f1"]
    assert rows[1][:4] == ["knn", "association", "0.5", "1.000000"]
    assert rows[-1][2] == "50:95"


def test_associate_post_appends_beam_to_method(tmp_path):
    scenes = gen_scenes(tmp_path, cfg=NOISY_CFG, count=1)
    pred = str(tmp_path / "pred.ndjson")
    assert main(["associate", "--method", "knn", "--post", "--scenes", scenes, "--out", pred]) == 0
    (rec,) = read_assocs(pred)
    assert rec.method == "knn+beam"
    assert rec.assoc.meta["method"] == "beam"
    assert rec.assoc.meta["k"] == 5


def test_baselines_compute_distance_matrix_only_when_used(tmp_path, monkeypatch):
    # a forked worker's calls would not reach this process's list
    monkeypatch.setenv("MAPASSOC_THREADS", "1")
    scenes = gen_scenes(tmp_path)
    calls = []
    real = cli.distance_assoc_matrix
    monkeypatch.setattr(cli, "distance_assoc_matrix", lambda scene: calls.append(1) or real(scene))
    for method in ("knn", "hmm"):
        assert main(["associate", "--method", method, "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")]) == 0
    assert calls == []
    for flag in ("--post", "--store-probs"):
        assert main(["associate", "--method", "knn", flag, "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")]) == 0
    assert len(calls) == 4  # two scenes per run


FLAG_SETS = {"plain": (), "post": ("--post",), "store-probs": ("--store-probs",),
             "post-store-probs": ("--post", "--store-probs")}


@pytest.mark.parametrize("flags", FLAG_SETS.values(), ids=FLAG_SETS)
@pytest.mark.parametrize("method", ["knn", "hmm", "mat"])
def test_associate_refuses_only_hmm_with_a_matrix_flag(tmp_path, monkeypatch, capsys, method, flags):
    # --post and --store-probs need a probability matrix, which the HMM does not
    # make; the flags are refused before the scene container is opened
    out = tmp_path / "p.ndjson"
    if method != "hmm" or not flags:
        assert main(["associate", "--method", method, *flags, "--scenes", gen_scenes(tmp_path), "--out", str(out)]) == 0
        assert len(read_assocs(out)) == 2
        return
    for threads in ("1", "2"):
        monkeypatch.setenv("MAPASSOC_THREADS", threads)
        missing = str(tmp_path / "missing.ndjson")
        assert main(["associate", "--method", method, *flags, "--scenes", missing, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flags[0]}: --method hmm has no probability matrix")
        assert not out.exists()


UNREAD_FLAGS = {
    "weights": (["--method", "knn", "--weights", "w.mapw"], "--weights: only --method mat reads it"),
    "model-config": (["--method", "hmm", "--model-config", "m.json"], "--model-config: only --method mat reads it"),
    "init-seed": (["--method", "knn", "--post", "--init-seed", "0"], "--init-seed: only --method mat reads it"),
    "curve-seed": (["--method", "knn", "--curve-seed", "4"], "--curve-seed: only --method mat reads it"),
    "curve-seed-without-random-curve": (["--method", "mat", "--curve-seed", "7"],
                                        '--curve-seed: only a model config with curve "random" reads it'),
    "beam-k": (["--method", "mat", "--beam-k", "3"], "--beam-k: only --post reads it"),
    "init-seed-with-weights": (["--method", "mat", "--post", "--weights", "w.mapw", "--init-seed", "1"],
                               "--init-seed: seeds the random init, which --weights replaces"),
}


@pytest.mark.parametrize("argv, message", UNREAD_FLAGS.values(), ids=UNREAD_FLAGS)
def test_associate_refuses_a_flag_its_run_never_reads(tmp_path, capsys, argv, message):
    # refused before any file is opened, not ignored
    out = tmp_path / "p.ndjson"
    assert main(["associate", *argv, "--scenes", str(tmp_path / "missing.ndjson"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_associate_flags_left_out_take_the_values_they_default_to(tmp_path):
    scenes = gen_scenes(tmp_path)
    # a random curve schedule, so that the run reads --curve-seed
    model = write_cfg(tmp_path, {"curve": "random"}, "model.json")
    runs = {
        "default": [],
        "given": ["--init-seed", "0", "--curve-seed", "0", "--beam-k", "5"],
    }
    for name, flags in runs.items():
        assert main(["associate", "--method", "mat", "--post", "--model-config", model, *flags, "--scenes", scenes,
                     "--out", str(tmp_path / f"{name}.ndjson")]) == 0
    assert (tmp_path / "default.ndjson").read_bytes() == (tmp_path / "given.ndjson").read_bytes()


def test_no_pipeline_stage_reads_the_tuple_view_of_the_lane_paths(tmp_path, monkeypatch):
    # --post and both evals read lane paths only through each graph's flat `path_rows`
    def refusing(self):
        raise AssertionError("a pipeline stage read the tuple view of the lane paths")

    monkeypatch.setattr(geometry.PathIndex, "paths", property(refusing))
    monkeypatch.setattr(geometry.HdGraph, "paths", property(refusing))
    monkeypatch.setenv("MAPASSOC_THREADS", "1")
    scenes = gen_scenes(tmp_path, cfg=NOISY_CFG)
    for method in ("knn", "mat"):
        pred = str(tmp_path / f"{method}.ndjson")
        assert main(["associate", "--method", method, "--post", "--scenes", scenes, "--out", pred]) == 0
        for metric in ("association", "reachability"):
            report = str(tmp_path / f"{method}.{metric}.json")
            assert main(["eval", "--metric", metric, "--pred", pred, "--scenes", scenes, "--report", report]) == 0


@pytest.mark.parametrize(
    "method, per_scene, flags",
    [("hmm", 1, ())] + [(m, n, f) for m, n in (("knn", 1), ("mat", 0)) for f in FLAG_SETS.values()],
    ids=["hmm-plain"] + [f"{m}-{f}" for m in ("knn", "mat") for f in FLAG_SETS],
)
def test_associate_measures_each_scene_at_most_once(tmp_path, monkeypatch, method, per_scene, flags):
    # the baselines' labels and soft matrix read one cached distance matrix;
    # mat measures no distance at all
    monkeypatch.setenv("MAPASSOC_THREADS", "1")
    scenes = gen_scenes(tmp_path)
    calls = []
    real = geometry._road_distances
    monkeypatch.setattr(geometry, "_road_distances", lambda *args: calls.append(1) or real(*args))
    out = str(tmp_path / "p.ndjson")
    assert main(["associate", "--method", method, *flags, "--scenes", scenes, "--out", out]) == 0
    assert len(calls) == 2 * per_scene
    records = read_assocs(out)
    assert len(records) == 2
    assert all((rec.probs is not None) == ("--store-probs" in flags) for rec in records)


def test_post_computes_only_the_decoded_labels(tmp_path, monkeypatch):
    monkeypatch.setenv("MAPASSOC_THREADS", "1")
    scenes = gen_scenes(tmp_path)

    def unused(*args):
        raise AssertionError("labels computed and then overwritten by the decoder")

    monkeypatch.setattr(cli, "knn_associate", unused)
    monkeypatch.setattr(AssocMatrix, "argmax_association", unused)
    for method in ("knn", "mat"):
        pred = str(tmp_path / f"{method}.ndjson")
        assert main(["associate", "--method", method, "--post", "--scenes", scenes, "--out", pred]) == 0
        assert [r.method for r in read_assocs(pred)] == [f"{method}+beam"] * 2


def test_associate_mat_store_probs(tmp_path):
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    rc = main([
        "associate", "--method", "mat", "--post", "--store-probs",
        "--beam-k", "3", "--scenes", scenes, "--out", pred,
    ])
    assert rc == 0
    (rec,) = read_assocs(pred)
    assert rec.method == "mat+beam"
    assert rec.assoc.meta["k"] == 3
    assert rec.probs is not None
    (scene,) = read_scenes(scenes)
    assert rec.probs.centerline_ids == tuple(sorted(c.id for c in scene.hd.centerlines))
    assert set(rec.assoc.labels) == set(rec.probs.centerline_ids)


def test_associate_mat_rejects_unknown_model_config_field(tmp_path, capsys):
    scenes = gen_scenes(tmp_path, count=1)
    mc = write_cfg(tmp_path, {"bogus": 1}, name="mc.json")
    rc = main([
        "associate", "--method", "mat", "--model-config", mc,
        "--scenes", scenes, "--out", str(tmp_path / "pred.ndjson"),
    ])
    assert rc == 2
    assert "unknown fields: bogus" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_model_config_has_no_loss_weights(tmp_path, capsys, field):
    # the training losses, with their weights alpha and beta, are not part of the toolkit;
    # a model config that sets a loss weight is refused, not ignored
    scenes = gen_scenes(tmp_path, count=1)
    mc = write_cfg(tmp_path, {field: 1.0}, name="mc.json")
    rc = main([
        "associate", "--method", "mat", "--model-config", mc,
        "--scenes", scenes, "--out", str(tmp_path / "pred.ndjson"),
    ])
    assert rc == 2
    assert f"unknown fields: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("grid_R", 10**30, "sector count must be in [1, 9223372036854775807], got 1000000000000000000000000000000"),
    ("grid_g", 1e-300, "cell size 1e-300 puts a grid cell outside the int64 range"),
], ids=["grid_R", "grid_g"])
def test_model_config_grid_beyond_int64_exits_2_naming_the_value(tmp_path, capsys, field, value, message):
    # each value lies in its field's range, but its grid cells do not fit int64;
    # quantization refuses them before the cast, which would warn or overflow
    scenes = gen_scenes(tmp_path, count=1)
    mc = write_cfg(tmp_path, {field: value}, name="mc.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([
            "associate", "--method", "mat", "--model-config", mc,
            "--scenes", scenes, "--out", str(tmp_path / "pred.ndjson"),
        ])
    assert rc == 2
    assert f"error: line 1: {message}\n" == capsys.readouterr().err


def test_eval_custom_thresholds(tmp_path):
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    assert main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred]) == 0
    report = str(tmp_path / "r.json")
    rc = main([
        "eval", "--metric", "association", "--pred", pred, "--scenes", scenes,
        "--thresholds", "0.5,0.7", "--name", "mine", "--report", report,
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["name"] == "mine"
    assert MetricReport.from_json(doc["report"]).thresholds == (0.5, 0.7)


def test_eval_reachability_metric(tmp_path):
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    assert main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred]) == 0
    report = str(tmp_path / "r.json")
    rc = main(["eval", "--metric", "reachability", "--pred", pred, "--scenes", scenes, "--report", report])
    assert rc == 0
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc["metric"] == "reachability"
    assert MetricReport.from_json(doc["report"]).ap == 1.0


def test_report_merges_multiple_evals(tmp_path, capsys):
    scenes = gen_scenes(tmp_path)
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred])
    reports = []
    for name in ("alpha", "beta"):
        path = str(tmp_path / f"{name}.json")
        main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes,
              "--name", name, "--report", path])
        reports.append(path)
    capsys.readouterr()
    summary = str(tmp_path / "both.csv")
    assert main(["report", "--reports", *reports, "--csv", summary]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "beta" in out
    with open(summary, newline="") as fh:
        rows = list(csv.reader(fh))
    names = {row[0] for row in rows[1:]}
    assert names == {"alpha", "beta"}
    # one row per threshold plus the 50:95 aggregate, per report
    assert len(rows) == 1 + 2 * 11


def test_report_prints_one_row_per_report_even_when_names_repeat(tmp_path, capsys):
    scenes = gen_scenes(tmp_path, cfg=NOISY_CFG)
    docs = []
    for method, metric in (("knn", "association"), ("hmm", "reachability")):
        pred = str(tmp_path / f"{method}.ndjson")
        assert main(["associate", "--method", method, "--scenes", scenes, "--out", pred]) == 0
        path = tmp_path / f"{method}.json"
        assert main(["eval", "--metric", metric, "--pred", pred, "--scenes", scenes,
                     "--name", "m", "--report", str(path)]) == 0
        docs.append(path)
    capsys.readouterr()
    summary = str(tmp_path / "m.csv")
    assert main(["report", "--reports", *map(str, docs), "--csv", summary]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # argument order, last column A-F1^50:95, as in the CSV
    af1 = [f"{100.0 * MetricReport.from_json(json.loads(p.read_text())['report']).af1:.1f}" for p in docs]
    assert [(r[0], r[-1]) for r in rows] == [("m", af1[0]), ("m", af1[1])]
    with open(summary, newline="") as fh:
        metrics = [row[1] for row in list(csv.reader(fh))[1:] if row[2] == "50:95"]
    assert metrics == ["association", "reachability"]


def test_hmm_on_grid_with_more_lane_paths_than_enumeration_allows(tmp_path):
    # an 8x8 grid has more than 4096 lane paths; the HMM never enumerates them
    cfg = {
        "gen": {"layout": "grid", "grid_rows": 8, "grid_cols": 8, "sd_extent": [160, 160], "hd_extent": [150, 150]},
        "perturb": {"gps_shift": 1.0, "dropout_rate": 0.05, "seed": 0},
    }
    scenes = gen_scenes(tmp_path, cfg=cfg, count=1, seed=0)
    pred = str(tmp_path / "pred.ndjson")
    assert main(["associate", "--method", "hmm", "--scenes", scenes, "--out", pred]) == 0
    (rec,) = read_assocs(pred)
    assert rec.method == "hmm"
    assert set(rec.assoc.labels) == set(read_scenes(scenes)[0].hd.node_ids)


# ---------------------------------------------------------------------------
# determinism across worker counts


def test_outputs_bit_identical_across_thread_counts(tmp_path, monkeypatch):
    runs = {
        "scenes": None,
        "hmm": ["associate", "--method", "hmm"],
        "knn": ["associate", "--method", "knn"],
        "mat": ["associate", "--method", "mat", "--post", "--store-probs"],
    }
    blobs = {}
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("MAPASSOC_THREADS", threads)
        d = tmp_path / threads
        d.mkdir()
        scenes = str(d / "scenes")
        cfg = write_cfg(d, NOISY_CFG)
        assert main(["gen", "--config", cfg, "--count", "4", "--seed", "0", "--out", scenes]) == 0
        for name, argv in runs.items():
            if argv:
                assert main([*argv, "--scenes", scenes, "--out", str(d / name)]) == 0
        for metric, pred in (("association", "hmm"), ("reachability", "mat")):
            assert main(["eval", "--metric", metric, "--pred", str(d / pred), "--scenes", scenes,
                         "--report", str(d / metric)]) == 0
        blobs[threads] = {name: (d / name).read_bytes() for name in (*runs, "association", "reachability")}
    assert blobs["1"] == blobs["2"] == blobs["8"]


def test_gen_bytes_identical_across_thread_counts(tmp_path, monkeypatch):
    blobs = {}
    for threads in ("1", "2", "8"):
        monkeypatch.setenv("MAPASSOC_THREADS", threads)
        d = tmp_path / threads
        d.mkdir()
        blobs[threads] = Path(gen_scenes(d, cfg=FULL_NOISE_CFG, count=5, seed=0)).read_bytes()
    assert blobs["1"] == blobs["2"] == blobs["8"]
    # scene i: generator seed --seed + i, perturb and augment seeds their config seed + i
    cfg = {k: {f: tuple(v) if isinstance(v, list) else v for f, v in doc.items()} for k, doc in FULL_NOISE_CFG.items()}
    want = "".join(
        dumps_scene(augment_scene(
            perturb_scene(generate_scene(GenConfig(**{**cfg["gen"], "seed": i})),
                          PerturbConfig(**{**cfg["perturb"], "seed": 5 + i})),
            AugConfig(**{**cfg["augment"], "seed": 3 + i}),
        ))
        for i in range(5)
    )
    assert blobs["1"] == want.encode("utf-8")


# ---------------------------------------------------------------------------
# the forked per-scene map

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


def usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def spy_on_fork(monkeypatch, limit: int = 4) -> list:
    """Pids of the children forked from this process; refuses more than `limit`."""
    forked, real = [], os.fork

    def fork():
        if len(forked) >= limit:
            raise AssertionError(f"more than {limit} forks")
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def assert_reaped(pids) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def run_log(path):
    """fn(x) for `_map` that appends x to `path` and returns (x * x, pid); `read` lists the (pid, x) runs."""

    def fn(x):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {x}\n".encode())
        finally:
            os.close(fd)
        return x * x, os.getpid()

    def read():
        return [tuple(map(int, line.split())) for line in path.read_text().splitlines()] if path.exists() else []

    return fn, read


@needs_fork
@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_keeps_item_order(monkeypatch, tmp_path, n):
    monkeypatch.setenv("MAPASSOC_THREADS", str(n))
    usable_cpus(monkeypatch, 3)
    forked = spy_on_fork(monkeypatch, limit=2 * (n - 1))
    for k, costs in enumerate([None, [3, 9, 1, 1, 7, 0, 5, 2, 8, 4]]):
        fn, runs = run_log(tmp_path / f"runs{k}")
        out = cli._map(fn, range(10), costs)
        assert [v for v, _ in out] == [x * x for x in range(10)]
        # each item runs exactly once; every child runs at least its first item
        assert sorted(x for _, x in runs()) == list(range(10))
        assert set(forked[k * (n - 1):]) <= {p for _, p in out} <= {os.getpid(), *forked}
    assert len(forked) == 2 * (n - 1)
    assert_reaped(forked)


@needs_fork
def test_map_runs_each_item_once_with_more_workers_than_cpus(monkeypatch, tmp_path):
    # four workers on however few CPUs contend for the claim state; a lost
    # update would run an item twice or not at all
    monkeypatch.setenv("MAPASSOC_THREADS", "4")
    usable_cpus(monkeypatch, 4)
    forked = spy_on_fork(monkeypatch)
    fn, runs = run_log(tmp_path / "runs")
    out = cli._map(fn, range(400), [i % 7 for i in range(400)])
    assert [v for v, _ in out] == [x * x for x in range(400)]
    assert sorted(x for _, x in runs()) == list(range(400))
    assert len(forked) == 3
    assert_reaped(forked)


class Handoff:
    """A one-way signal between two items of a `_map`, possibly in different processes."""

    def __init__(self):
        self.r, self.w = os.pipe()

    def give(self):
        os.write(self.w, b"x")

    def take(self, timeout=10.0):
        if not select.select([self.r], [], [], timeout)[0]:
            raise AssertionError("the other item never ran")
        os.read(self.r, 1)

    def close(self):
        os.close(self.r)
        os.close(self.w)


@needs_fork
@pytest.mark.parametrize("costs, first_child, first_caller", [([1, 4, 2, 3], 1, 3), (None, 0, 1)])
def test_map_starts_the_child_on_the_top_item_and_the_caller_on_the_next(
    monkeypatch, tmp_path, costs, first_child, first_caller
):
    monkeypatch.setenv("MAPASSOC_THREADS", "2")
    usable_cpus(monkeypatch, 2)
    forked = spy_on_fork(monkeypatch)
    log, runs = run_log(tmp_path / "runs")
    started = Handoff()

    def fn(x):
        log(x)
        # the child's first item waits for the caller's first, so the child
        # cannot run ahead and claim the item ranked second
        if x == first_child:
            started.take()
        elif x == first_caller:
            started.give()
        return x

    try:
        assert cli._map(fn, range(4), costs) == [0, 1, 2, 3]
    finally:
        started.close()
    assert [x for pid, x in runs() if pid == forked[0]][0] == first_child
    assert [x for pid, x in runs() if pid == os.getpid()][0] == first_caller
    assert_reaped(forked)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bad", [(4, 5, 7), (3, 4, 8)])
def test_map_reraises_the_lowest_failing_index(monkeypatch, n, bad):
    # across n and bad, the lowest failing item runs in the caller and in a child
    monkeypatch.setenv("MAPASSOC_THREADS", str(n))
    usable_cpus(monkeypatch, 3)

    def fn(x):
        if x in bad:
            raise ValidationError(f"item {x} is bad")
        return x

    with pytest.raises(ValidationError) as info:
        cli._map(fn, range(10))
    assert str(info.value) == f"item {bad[0]} is bad"


@needs_fork
def test_map_names_a_worker_that_dies_without_results(monkeypatch):
    monkeypatch.setenv("MAPASSOC_THREADS", "2")
    usable_cpus(monkeypatch, 2)
    forked = spy_on_fork(monkeypatch)
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(ChildProcessError, match=r"^worker 1 \(pid \d+\) ended with status 3 before sending"):
        cli._map(fn, range(4))
    assert len(forked) == 1
    assert_reaped(forked)


@needs_fork
@pytest.mark.parametrize("n", [2, 3])
def test_map_reraises_the_lowest_failing_index_when_a_higher_one_fails_first(monkeypatch, n):
    monkeypatch.setenv("MAPASSOC_THREADS", str(n))
    usable_cpus(monkeypatch, 3)
    failed = Handoff()

    def fn(x):
        if x == 8:
            failed.give()
            raise ValidationError("item 8 is bad")
        if x == 2:
            failed.take()
            raise ValidationError("item 2 is bad")
        return x

    try:
        # the largest items (the highest indices here) are claimed first
        with pytest.raises(ValidationError, match="^item 2 is bad$"):
            cli._map(fn, range(10), list(range(10)))
    finally:
        failed.close()


@needs_fork
def test_map_skips_items_above_a_recorded_failure(monkeypatch, tmp_path):
    monkeypatch.setenv("MAPASSOC_THREADS", "2")
    usable_cpus(monkeypatch, 2)
    forked = spy_on_fork(monkeypatch)
    log, runs = run_log(tmp_path / "runs")
    caller_started, child_done = Handoff(), Handoff()

    def fn(x):
        log(x)
        if x == 1:  # the child's first item: it fails once the caller holds item 2
            caller_started.take()
            raise ValidationError("item 1 is bad")
        if x == 2:  # the caller's first item
            caller_started.give()
            child_done.take()
        if x == 0:  # below the failure, so the child still runs it
            child_done.give()
        return x

    try:
        # ranked 1, 2, 4, 0, 3: the child takes 1, the caller 2; then the child
        # claims 4 (skipped), 0 and maybe 3 (skipped)
        with pytest.raises(ValidationError, match="^item 1 is bad$"):
            cli._map(fn, range(5), [1, 4, 3, 0, 2])
    finally:
        caller_started.close()
        child_done.close()
    assert sorted(runs()) == sorted([(forked[0], 1), (forked[0], 0), (os.getpid(), 2)])
    assert_reaped(forked)


@needs_fork
def test_map_reaps_children_when_the_caller_share_is_interrupted(monkeypatch, tmp_path):
    class Stop(BaseException):
        pass

    monkeypatch.setenv("MAPASSOC_THREADS", "3")
    usable_cpus(monkeypatch, 3)
    forked = spy_on_fork(monkeypatch)
    parent = os.getpid()
    never = Handoff()
    log, runs = run_log(tmp_path / "runs")

    def fn(x):
        if os.getpid() == parent:
            raise Stop
        try:
            never.take()  # each child waits in its first item until it is stopped
        finally:
            log(x)

    try:
        with pytest.raises(Stop):
            cli._map(fn, range(6))
    finally:
        never.close()
    assert len(forked) == 2
    assert_reaped(forked)
    assert runs() == []  # the children were stopped, not waited for


@needs_fork
def test_map_forks_at_most_usable_cpus_minus_one(monkeypatch):
    monkeypatch.setenv("MAPASSOC_THREADS", "100000")
    usable_cpus(monkeypatch, 2)
    forked = spy_on_fork(monkeypatch)
    assert cli._map(lambda x: x + 1, range(50)) == list(range(1, 51))
    assert len(forked) == 1
    assert cli._map(lambda x: x + 1, range(1)) == [1]
    assert len(forked) == 1
    # without an affinity API the CPU count caps the workers
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._map(lambda x: x + 1, range(50)) == list(range(1, 51))
    assert len(forked) == 3
    assert_reaped(forked)


@needs_fork
def test_map_pins_blas_to_one_thread_while_it_forks(monkeypatch):
    blas = cli._openblas()
    if blas is None:
        pytest.skip("numpy here bundles no scipy-openblas with scipy_openblas_{get,set}_num_threads64_")
    get, set_ = blas
    monkeypatch.setenv("MAPASSOC_THREADS", "2")
    usable_cpus(monkeypatch, 2)
    forked = spy_on_fork(monkeypatch)
    old = get()
    set_(2)
    try:
        out = cli._map(lambda x: (get(), os.getpid()), range(4))
        assert get() == 2  # the caller's count is back
    finally:
        set_(old)
    assert forked[0] in {pid for _, pid in out}
    assert {threads for threads, _ in out} == {1}
    assert_reaped(forked)


def test_map_runs_serially_without_fork(monkeypatch):
    monkeypatch.setenv("MAPASSOC_THREADS", "4")
    usable_cpus(monkeypatch, 4)
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._map(lambda x: (x, os.getpid()), range(5)) == [(x, os.getpid()) for x in range(5)]


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_config_section_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"bogus": {}})
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert "unknown sections: bogus" in capsys.readouterr().err


def test_unknown_gen_field_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"gen": {"nope": 3}})
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert "unknown fields: nope" in capsys.readouterr().err


@pytest.mark.parametrize("field, layout", [
    ("boundary_margin", "grid"),
    ("carriageway_sep", "radial"),
    ("road_clearance", "random-planar"),
])
def test_negative_distance_exits_2_naming_the_field(tmp_path, capsys, field, layout):
    cfg = write_cfg(tmp_path, {"gen": {"layout": layout, field: -9.0}})
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert f"{field}: must be >= 0, got -9.0" in capsys.readouterr().err
    assert not (tmp_path / "s.ndjson").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("gen, message", [
    ({"grid_rows": -1}, "grid_rows: must be >= 1, got -1"),
    ({"grid_cols": 0}, "grid_cols: must be >= 1, got 0"),
    ({"layout": "radial", "radial_arms": 1}, "radial_arms: must be >= 2, got 1"),
    ({"layout": "random-planar", "random_roads": 0}, "random_roads: must be >= 1, got 0"),
    ({"grid_pitch": -20.0}, "grid_pitch: must be > 0, got -20.0"),
    # a range holds whatever the layout
    ({"layout": "radial", "grid_pitch": -20.0}, "grid_pitch: must be > 0, got -20.0"),
])
def test_layout_count_out_of_range_exits_2_naming_the_field(tmp_path, capsys, monkeypatch, threads, gen, message):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    cfg = write_cfg(tmp_path, {"gen": gen})
    rc = main(["gen", "--config", cfg, "--count", "2", "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: gen config: {message}\n"
    assert not (tmp_path / "s.ndjson").exists()


@pytest.mark.parametrize("scale_range, message", [
    ([1.2, 0.9], "scale_range: low must be <= high, got (1.2, 0.9)"),
    ([0.0, 0.0], "scale_range: must be > 0, got (0.0, 0.0)"),
])
def test_bad_scale_range_exits_2_naming_the_field(tmp_path, capsys, scale_range, message):
    cfg = write_cfg(tmp_path, {"augment": {"scale_range": scale_range}})
    rc = main(["gen", "--config", cfg, "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: augment config: {message}\n"
    assert not (tmp_path / "s.ndjson").exists()


def test_malformed_config_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_malformed_scene_line_exits_2(tmp_path):
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes, "a") as fh:
        fh.write("{broken\n")
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    assert rc == 2


@pytest.mark.parametrize("method", ["knn", "mat"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
def test_non_finite_boundary_point_exits_2(tmp_path, capsys, method, literal):
    # "1e999" parses to inf without a JSON constant, so validate_scene must catch it
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes) as fh:
        doc = json.loads(fh.read())
    doc["hd"]["boundaries"][0]["points"][0][0] = "@@"
    with open(scenes, "w") as fh:
        fh.write(json.dumps(doc).replace('"@@"', literal) + "\n")
    out = tmp_path / "p.ndjson"
    rc = main(["associate", "--method", method, "--scenes", scenes, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "non-finite" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "crop, message",
    [
        ({"hd": "ab"}, "line 1: meta.crop.hd: expected [x, y] extents, got 'ab'"),
        ({"hd": [1]}, "line 1: meta.crop.hd: expected [x, y] extents, got [1]"),
        (5, "line 1: meta.crop: expected an object, got 5"),
        ("ab", "line 1: meta.crop: expected an object, got 'ab'"),
        ({"sd": [True, 2]}, "line 1: meta.crop.sd: expected [x, y] extents, got [True, 2]"),
        ({"sd": [-1.0, 2.0]}, "line 1: meta.crop.sd: expected [x, y] extents, got [-1.0, 2.0]"),
    ],
)
def test_malformed_crop_exits_2_naming_the_field(tmp_path, capsys, crop, message):
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes) as fh:
        doc = json.loads(fh.read())
    doc["meta"]["crop"] = crop
    with open(scenes, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "graph, key, value, message",
    [
        ("sd", "roads", 5, "line 1.sd: roads must be a list"),
        ("hd", "centerlines", None, "line 1.hd: centerlines must be a list"),
        ("hd", "boundaries", 5, "line 1.hd: boundaries must be a list"),
        ("hd", "boundaries", None, None),  # a falsy boundaries value means no boundaries
    ],
)
def test_non_list_element_list_exits_2_naming_the_field(tmp_path, capsys, graph, key, value, message):
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes) as fh:
        doc = json.loads(fh.read())
    doc[graph][key] = value
    with open(scenes, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is None:
        assert rc == 0 and read_scenes(scenes)[0].hd.boundaries == ()
    else:
        assert rc == 2
        assert f"error: {message}" in err


def test_zero_length_centerline_error_names_line_and_centerline(tmp_path, capsys):
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes) as fh:
        doc = json.loads(fh.read())
    c = doc["hd"]["centerlines"][1]
    c["p2"] = list(c["p1"])
    with open(scenes, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"line 1.hd: centerline {c['id']}: degenerate vector at {Point2(*c['p1'])}" in err


def test_oversized_point_error_is_one_short_line(tmp_path, capsys):
    # the echoed value is cut short: the whole list printed 25,057 characters
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes) as fh:
        doc = json.loads(fh.read())
    c = doc["hd"]["centerlines"][0]
    c["p1"] = [0.5] * 5000
    with open(scenes, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and len(err) < 200
    assert f"line 1.hd: centerline {c['id']} p1: expected [x, y], got [0.5, 0.5" in err


def _duplicate_centerline(doc):
    doc["hd"]["centerlines"].append(dict(doc["hd"]["centerlines"][0]))


def _repeated_road_point(doc):
    points = doc["sd"]["roads"][0]["points"]
    points.insert(1, list(points[0]))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fault, message", [
    (_duplicate_centerline, "duplicate centerline ids"),
    (lambda doc: doc["hd"]["edges"].append([1, 0]), "lane graph has a cycle through centerline 0"),
    (lambda doc: doc["gt"].pop("0"), "gt does not cover centerline 0"),
    (lambda doc: doc["sd"]["edges"].append([0, 999]), "road edge (0, 999) references missing id 999"),
    (lambda doc: doc["hd"]["centerlines"][3].update(p2=[500.0, 0.0]), "point (500.0, 0.0) outside crop extents"),
    (_repeated_road_point, "road 0: repeated point"),
    (lambda doc: doc["sd"]["roads"][0]["points"][0].__setitem__(0, "@@"), "road 0 has non-finite point (inf, "),
], ids=["duplicate-id", "lane-cycle", "gt-coverage", "missing-edge-id", "outside-crop", "repeated-point", "1e999"])
def test_a_scene_fault_names_its_line_once(tmp_path, capsys, monkeypatch, threads, fault, message):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    scenes = gen_scenes(tmp_path, count=2)
    lines = Path(scenes).read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    fault(doc)
    lines[1] = json.dumps(doc).replace('"@@"', "1e999") + "\n"
    Path(scenes).write_text("".join(lines))
    capsys.readouterr()
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: line 2") and err.count("line 2") == 1 and message in err


def _no_roads(doc):
    doc["sd"]["roads"], doc["sd"]["edges"], doc["gt"] = [], [], None


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("argv, message", [
    (["associate", "--method", "knn"], "scene has no roads to associate against"),
    (["associate", "--method", "hmm"], "scene has no roads to associate against"),
    (["associate", "--method", "mat"], "no candidate roads to associate against"),
    (["eval", "--metric", "association"], "scene has no ground-truth association"),
])
def test_a_fault_in_a_scenes_work_names_its_line(tmp_path, capsys, monkeypatch, threads, argv, message):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    scenes = gen_scenes(tmp_path, count=2)
    pred = str(tmp_path / "p.ndjson")
    assert main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred]) == 0
    lines = Path(scenes).read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    if argv[0] == "associate":
        _no_roads(doc)
    else:
        doc["gt"] = None
    lines[1] = json.dumps(doc) + "\n"
    Path(scenes).write_text("".join(lines))
    capsys.readouterr()
    io = ["--out", pred] if argv[0] == "associate" else ["--pred", pred, "--report", str(tmp_path / "r.json")]
    assert main([*argv, "--scenes", scenes, *io]) == 2
    assert capsys.readouterr().err == f"error: line 2: {message}\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_generation_fault_names_the_scene_and_its_seed(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    # seeds 1, 2 and 4 place all 8 roads; seed 3 places 1
    cfg = write_cfg(tmp_path, {"gen": {"layout": "random-planar", "random_roads": 8, "road_clearance": 40}})
    rc = main(["gen", "--config", cfg, "--count", "4", "--seed", "1", "--out", str(tmp_path / "s.ndjson")])
    assert rc == 3
    assert capsys.readouterr().err == "error: scene 2 (seed 3): random-planar layout infeasible: placed 1 of 8 roads\n"


@pytest.mark.parametrize("method, code", [("knn", 0), ("hmm", 0), ("mat", 2)])
def test_two_way_road_pair(tmp_path, capsys, method, code):
    # the baselines accept a road cycle; mat enumerates road paths, so it
    # must name the road graph, not fail with a traceback
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes) as fh:
        doc = json.loads(fh.read())
    a, b = (r["id"] for r in doc["sd"]["roads"][:2])
    doc["sd"]["edges"] += [[a, b], [b, a]]
    with open(scenes, "w") as fh:
        fh.write(json.dumps(doc) + "\n")
    out = tmp_path / "p.ndjson"
    rc = main(["associate", "--method", method, "--scenes", scenes, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err
    if code:
        assert f"road graph has a cycle through road {min(a, b)}" in err
        assert not out.exists()


@pytest.mark.parametrize("method", ["knn", "hmm"])
def test_non_utf8_scene_file_exits_2(tmp_path, capsys, method):
    scenes = gen_scenes(tmp_path, count=1)
    with open(scenes, "rb") as fh:
        data = fh.read()
    with open(scenes, "wb") as fh:
        fh.write(b"\xff\xfe" + data)
    out = tmp_path / "p.ndjson"
    rc = main(["associate", "--method", method, "--scenes", scenes, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{scenes}: not UTF-8 text" in err
    assert not out.exists()


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"gen": {"layout": "\xff"}}')
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert f"config {path}: not UTF-8 text" in capsys.readouterr().err


def test_non_finite_config_constant_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"gen": {"hd_extent": [12.0, Infinity]}}')
    rc = main(["gen", "--config", str(path), "--out", str(tmp_path / "s.ndjson")])
    assert rc == 2
    assert "non-finite number Infinity" in capsys.readouterr().err


def test_bad_thread_env_exits_2(tmp_path, monkeypatch, capsys):
    for value in ("0", "soon"):
        monkeypatch.setenv("MAPASSOC_THREADS", value)
        rc = main(["gen", "--count", "1", "--out", str(tmp_path / "s.ndjson")])
        assert rc == 2
    assert "MAPASSOC_THREADS" in capsys.readouterr().err


def test_infeasible_generation_exits_3(tmp_path, capsys):
    # 40 roads with 8 m clearance cannot fit in a 20 x 20 m window
    cfg = write_cfg(tmp_path, {"gen": {
        "layout": "random-planar", "sd_extent": [10.0, 10.0],
        "random_roads": 40, "road_clearance": 8.0,
    }})
    rc = main(["gen", "--config", cfg, "--count", "1", "--out", str(tmp_path / "s.ndjson")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_missing_input_file_exits_1(tmp_path):
    rc = main(["associate", "--method", "knn",
               "--scenes", str(tmp_path / "absent.ndjson"),
               "--out", str(tmp_path / "p.ndjson")])
    assert rc == 1


def test_eval_count_mismatch_exits_2(tmp_path, capsys):
    scenes2 = gen_scenes(tmp_path, count=2, name="two.ndjson")
    scenes1 = gen_scenes(tmp_path, count=1, name="one.ndjson")
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes2, "--out", pred])
    rc = main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes1,
               "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "2 records" in capsys.readouterr().err


def test_eval_scene_ref_mismatch_exits_2(tmp_path, capsys):
    scenes_a = gen_scenes(tmp_path, count=1, seed=3, name="a.ndjson")
    scenes_b = gen_scenes(tmp_path, count=1, seed=4, name="b.ndjson")
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes_a, "--out", pred])
    rc = main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes_b,
               "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "grid-3" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "2"])
def test_associate_reports_its_own_inputs_before_any_scene(tmp_path, capsys, monkeypatch, threads):
    # two faults: a malformed model config and a malformed scene line
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    scenes = gen_scenes(tmp_path, count=2)
    with open(scenes, "a") as fh:
        fh.write("{broken\n")
    mcfg = write_cfg(tmp_path, {"patch_size": "8"}, name="model.json")
    rc = main(["associate", "--method", "mat", "--model-config", mcfg, "--scenes", scenes,
               "--out", str(tmp_path / "p.ndjson")])
    assert rc == 2
    assert capsys.readouterr().err == "error: model config: patch_size: expected int, got '8'\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_eval_reports_scene_faults_in_file_order(tmp_path, capsys, monkeypatch, threads):
    # two faults: record 1 names another scene, and line 3 is malformed
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    scenes = gen_scenes(tmp_path, count=3, seed=3)
    pred = str(tmp_path / "pred.ndjson")
    assert main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred]) == 0
    lines = Path(scenes).read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"scene_id":"grid-4"', '"scene_id":"other"')
    lines[2] = "{broken\n"
    with open(scenes, "w") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    rc = main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes,
               "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 2: record 2 references scene 'grid-4' but this scene is 'other'\n"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_overlong_int_literal_exits_2_naming_where(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    big = "1" + "0" * 5000
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"gen": {"seed": %s}}' % big)
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "s.ndjson")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {cfg}: ") and "digits" in err
    scenes = gen_scenes(tmp_path, count=2)
    lines = Path(scenes).read_text().splitlines(keepends=True)
    doc = json.loads(lines[1])
    lines[1] = json.dumps(dict(doc, meta=dict(doc["meta"], scene_id="@@"))).replace('"@@"', big) + "\n"
    with open(scenes, "w") as fh:
        fh.writelines(lines)
    rc = main(["associate", "--method", "knn", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: line 2: ") and "digits" in err


def test_eval_bad_thresholds_exits_2(tmp_path, capsys):
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred])
    rc = main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes,
               "--thresholds", "a,b", "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert "comma-separated" in capsys.readouterr().err


def test_eval_empty_scene_container_exits_2(tmp_path):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    rc = main(["eval", "--metric", "association", "--pred", str(empty), "--scenes", str(empty),
               "--report", str(tmp_path / "r.json")])
    assert rc == 2


def test_report_missing_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "metric": "association"}))
    rc = main(["report", "--reports", str(bad), "--csv", str(tmp_path / "out.csv")])
    assert rc == 2
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--tau", "--chamfer-tau"])
def test_eval_tolerance_flags_are_refused(tmp_path, capsys, flag):
    # eval scores on the scene's own lane graph, where neither tolerance changes a count
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--metric", "reachability", "--pred", pred, "--scenes", scenes,
              flag, "1.0", "--report", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1.0" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_eval_reachability_is_one_for_any_labels(tmp_path, capsys):
    # eval passes no predicted lane graph, so every gt path is its own
    # candidate: labelling every centerline with the first road scores
    # reachability 1.0 while association drops
    scenes = gen_scenes(tmp_path, cfg={}, count=4)
    pred = str(tmp_path / "first-road.ndjson")
    write_assocs([
        AssocRecord("first-road", s.meta["scene_id"], Association({c.id: s.sd.roads[0].id for c in s.hd.centerlines}))
        for s in read_scenes(scenes)
    ], pred)
    reports = {}
    for metric in ("reachability", "association"):
        report = tmp_path / f"{metric}.json"
        assert main(["eval", "--metric", metric, "--pred", pred, "--scenes", scenes, "--report", str(report)]) == 0
        reports[metric] = MetricReport.from_json(json.loads(report.read_text())["report"])
    reach = reports["reachability"]
    assert reach.ap == reach.ar == reach.af1 == 1.0 and reach.counts[:, :, 0].sum() > 0
    assert reports["association"].af1 < 0.5


@pytest.mark.parametrize("argv, message", [
    (["associate", "--method", "knn", "--post", "--beam-k", "0"], "--beam-k: must be >= 1, got 0"),
    (["eval", "--metric", "association", "--thresholds", "0.5,2"], "--thresholds: must be in (0, 1], got (0.5, 2.0)"),
    (["eval", "--metric", "association", "--thresholds", "0.9,0.5"],
     "--thresholds: must be strictly increasing, got (0.9, 0.5)"),
])
def test_a_config_error_from_a_flag_names_the_flag(tmp_path, capsys, argv, message):
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred])
    capsys.readouterr()
    io = ["--pred", pred, "--report", str(tmp_path / "r.json")] if argv[0] == "eval" else ["--out", pred]
    assert main([*argv, "--scenes", scenes, *io]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("body, field", [
    ({}, "'thresholds'"),
    ({"thresholds": [0.5], "buckets": [[0.0, None]], "counts": "abc"}, "'counts'"),
    ([], "object"),
    ({"thresholds": [0.5], "buckets": [[0.0]], "counts": [[[1, 0, 0]]]}, "'buckets'"),
    ({"thresholds": ["0.5"], "buckets": [[0.0, None]], "counts": [[[1, 0, 0]]]}, "'thresholds'"),
    ({"thresholds": [0.5], "buckets": [[0.0, None]], "counts": [[[1, 0]]]}, "counts shape"),
])
def test_report_malformed_body_exits_2(tmp_path, capsys, body, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "metric": "association", "report": body}))
    rc = main(["report", "--reports", str(bad), "--csv", str(tmp_path / "out.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and field in err


def _report_edit(key, value):
    return lambda doc: (doc["report"] if key in ("thresholds", "buckets") else doc).__setitem__(key, value)


@pytest.mark.parametrize("edit, message", [
    (_report_edit("name", ["a"]), "field 'name' must be a string, got ['a']"),
    (_report_edit("metric", 7), "field 'metric' must be one of ('association', 'reachability'), got 7"),
    (_report_edit("thresholds", [0.5] * 10), "field 'report': field 'thresholds': must be strictly increasing"),
    (_report_edit("thresholds", [0.5 + 0.1 * i for i in range(10)]),
     "field 'report': field 'thresholds': must be in (0, 1]"),
    (lambda doc: doc["report"]["buckets"].__setitem__(0, [5, 0]),
     "field 'report': field 'buckets': must start at 0 and end at infinity"),
], ids=["name", "metric", "equal-thresholds", "threshold-above-1", "first-bucket"])
def test_report_refuses_a_body_eval_cannot_write(tmp_path, capsys, edit, message):
    scenes = gen_scenes(tmp_path, count=1)
    pred, good = str(tmp_path / "pred.ndjson"), tmp_path / "good.json"
    main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred])
    main(["eval", "--metric", "association", "--pred", pred, "--scenes", scenes, "--report", str(good)])
    assert main(["report", "--reports", str(good), "--csv", str(tmp_path / "good.csv")]) == 0
    doc = json.loads(good.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", "--reports", str(bad), "--csv", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {bad}: {message}")
    assert not (tmp_path / "out.csv").exists()



# ---------------------------------------------------------------------------
# the transformer's per-run setup and scene extent


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("from_file", [False, True])
def test_associate_mat_checks_the_weights_once(tmp_path, monkeypatch, threads, from_file):
    scenes = gen_scenes(tmp_path, count=3)
    argv = ["associate", "--method", "mat", "--scenes", scenes, "--out", str(tmp_path / "p.ndjson")]
    if from_file:
        save_weights(init_weights(desk_config(), seed=2), str(tmp_path / "w.mapw"))
        argv += ["--weights", str(tmp_path / "w.mapw")]
    # a forked worker's calls land in the file too
    calls = tmp_path / "calls"
    calls.touch()
    real = mat_weights.validate_weights

    def counting(weights, cfg):
        with open(calls, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(weights, cfg)

    for module in [m for name, m in sys.modules.items() if name.startswith("mapassoc")]:
        if getattr(module, "validate_weights", None) is real:
            monkeypatch.setattr(module, "validate_weights", counting)
    monkeypatch.setenv("MAPASSOC_THREADS", threads)
    assert main(argv) == 0
    assert calls.read_text().splitlines() == [str(os.getpid())]


# a 2x2 grid over 8 km: its cell spread at the default 0.1 m cell needs 17
# bits, more than the default order-16 key holds; the wide vector spacing
# keeps its paths short
WIDE_CFG = {"gen": {"layout": "grid", "grid_rows": 2, "grid_cols": 2, "sd_extent": [8000, 8000],
                    "hd_extent": [7000, 7000], "vector_spacing_sd": 200.0, "vector_spacing_hd": 200.0}}


@pytest.mark.parametrize("extra", [[], ["--post"], ["--store-probs"]])
def test_associate_mat_takes_a_scene_wider_than_order_16(tmp_path, extra):
    scenes = gen_scenes(tmp_path, cfg=WIDE_CFG, count=1, seed=0)
    pred = str(tmp_path / "p.ndjson")
    assert main(["associate", "--method", "mat", *extra, "--scenes", scenes, "--out", pred]) == 0
    (rec,) = read_assocs(pred)
    assert set(rec.assoc.labels) == set(read_scenes(scenes)[0].hd.node_ids)


@pytest.mark.parametrize("module", ["mapassoc", "mapassoc.cli"])
def test_python_dash_m_runs_the_command_line(tmp_path, module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def run(*args):
        return subprocess.run([sys.executable, "-m", module, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    proc = run("gen", "--count", "1", "--seed", "3", "--out", "s.ndjson")
    assert proc.returncode == 0, proc.stderr
    assert [s.meta["scene_id"] for s in read_scenes(str(tmp_path / "s.ndjson"))] == ["grid-3"]
    (tmp_path / "bad.json").write_text('{"nope": {}}')
    proc = run("gen", "--config", "bad.json", "--count", "1", "--out", "t.ndjson")
    assert proc.returncode == 2
    assert "unknown sections: nope" in proc.stderr
    assert not (tmp_path / "t.ndjson").exists()

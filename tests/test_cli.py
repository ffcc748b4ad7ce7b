"""End-to-end runs of the mapassoc command line, invoked in-process."""

from __future__ import annotations

import csv
import json
import os
import select
from pathlib import Path

import pytest

from mapassoc import cli
from mapassoc.assocmatrix import AssocMatrix
from mapassoc.cli import main
from mapassoc.errors import ValidationError
from mapassoc.geometry import Point2
from mapassoc.io import dumps_scene, read_assocs, read_scenes
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
    assert main(["associate", "--method", "hmm", "--post", "--scenes", scenes, "--out", pred]) == 0
    (rec,) = read_assocs(pred)
    assert rec.method == "hmm+beam"
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


def test_post_computes_only_the_decoded_labels(tmp_path, monkeypatch):
    monkeypatch.setenv("MAPASSOC_THREADS", "1")
    scenes = gen_scenes(tmp_path)

    def unused(*args):
        raise AssertionError("labels computed and then overwritten by the decoder")

    monkeypatch.setattr(cli, "knn_associate", unused)
    monkeypatch.setattr(cli, "hmm_associate", unused)
    monkeypatch.setattr(AssocMatrix, "argmax_association", unused)
    for method in ("knn", "hmm", "mat"):
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
    # compute_loss takes alpha and beta; a model config that sets them is refused, not ignored
    scenes = gen_scenes(tmp_path, count=1)
    mc = write_cfg(tmp_path, {field: 1.0}, name="mc.json")
    rc = main([
        "associate", "--method", "mat", "--model-config", mc,
        "--scenes", scenes, "--out", str(tmp_path / "pred.ndjson"),
    ])
    assert rc == 2
    assert f"unknown fields: {field}" in capsys.readouterr().err


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
    rc = main([
        "eval", "--metric", "reachability", "--pred", pred, "--scenes", scenes,
        "--chamfer-tau", "0.5", "--report", report,
    ])
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
        "hmm": ["associate", "--method", "hmm", "--post"],
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
@pytest.mark.parametrize("costs, first_child, first_caller", [([1, 4, 2, 3], 1, 0), (None, 0, 3)])
def test_map_hands_the_largest_item_to_a_child_and_the_smallest_to_the_caller(
    monkeypatch, tmp_path, costs, first_child, first_caller
):
    monkeypatch.setenv("MAPASSOC_THREADS", "2")
    usable_cpus(monkeypatch, 2)
    forked = spy_on_fork(monkeypatch)
    log, runs = run_log(tmp_path / "runs")
    started = Handoff()

    def fn(x):
        log(x)
        # the child's first item waits for the caller's first, so neither end
        # can run ahead and claim the other end's item
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
        # ranked 1, 4, 3, 0, 2: the child takes 1 and then claims 4, 3 and 0
        with pytest.raises(ValidationError, match="^item 1 is bad$"):
            cli._map(fn, range(5), [1, 4, 0, 2, 3])
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
    assert f"{field} must be >= 0, got -9.0" in capsys.readouterr().err
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
        assert f"road graph has a cycle through node {min(a, b)}" in err
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
    assert capsys.readouterr().err == "error: record 1 references scene 'grid-4' but scene 1 is 'other'\n"


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
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_non_finite_tolerance_exits_2(tmp_path, capsys, flag, value):
    field = {"--tau": "point_match_tau", "--chamfer-tau": "chamfer_tau"}[flag]
    scenes = gen_scenes(tmp_path, count=1)
    pred = str(tmp_path / "pred.ndjson")
    main(["associate", "--method", "knn", "--scenes", scenes, "--out", pred])
    capsys.readouterr()
    rc = main(["eval", "--metric", "reachability", "--pred", pred, "--scenes", scenes,
               flag, value, "--report", str(tmp_path / "r.json")])
    assert rc == 2
    assert f"error: {field}: must be finite, got {value}" in capsys.readouterr().err


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

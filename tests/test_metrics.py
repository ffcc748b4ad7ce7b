"""Association and reachability precision-recall, with hand-walked fixtures."""

from __future__ import annotations

import math
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mapassoc.metrics as metrics
from mapassoc.baselines import knn_associate
from mapassoc.errors import ConfigError, CoverageError, InvalidGeometryError
from mapassoc.geometry import Association, DirVec, HdGraph, Point2, Road, Scene, SdGraph, enumerate_paths
from mapassoc.metrics import (
    DEFAULT_THRESHOLDS,
    MetricConfig,
    MetricReport,
    Prediction,
    association_pr,
    chamfer_distance,
    label_sequence,
    overlap_ratio,
    reachability_pr,
    report_table,
)
from mapassoc.scenegen import GenConfig, PerturbConfig, generate_scene, perturb_scene

from conftest import make_centerline
from oracles import chamfer_brute, lcs_overlap, overlap_dp_reference, scene_counts_reference


# ---------------------------------------------------------------------------
# collapsed label sequences


def test_label_sequence_merges_runs(tiny):
    path = (0, 1, 2)
    assert label_sequence(path, tiny.gt, tiny.hd) == ((0,), (9.0,))
    mixed = Association(labels={0: 0, 1: 0, 2: 1})
    assert label_sequence(path, mixed, tiny.hd) == ((0, 1), (6.0, 3.0))
    alternating = Association(labels={0: 0, 1: 1, 2: 0})
    assert label_sequence(path, alternating, tiny.hd) == ((0, 1, 0), (3.0, 3.0, 3.0))


def test_label_sequence_single_token(tiny):
    assert label_sequence((4,), tiny.gt, tiny.hd) == ((1,), (3.0,))


def test_label_sequence_requires_coverage(tiny):
    with pytest.raises(CoverageError, match="does not cover"):
        label_sequence((0, 1), Association(labels={0: 0}), tiny.hd)
    with pytest.raises(CoverageError, match="no centerline"):
        label_sequence((99,), Association(labels={99: 0}), tiny.hd)


# ---------------------------------------------------------------------------
# overlap ratio


def test_overlap_identical_is_one():
    seq = ((3, 7), (4.0, 2.5))
    assert overlap_ratio(seq, seq) == 1.0


def test_overlap_disjoint_is_zero():
    assert overlap_ratio(((1,), (5.0,)), ((2,), (5.0,))) == 0.0


def test_overlap_half_match():
    pred = ((0, 1), (4.0, 4.0))
    gt = ((0, 2), (4.0, 4.0))
    assert overlap_ratio(pred, gt) == pytest.approx(0.5)


def test_overlap_clamps_to_one():
    # prediction covers more length than the ground truth run
    assert overlap_ratio(((5,), (12.0,)), ((5,), (8.0,))) == 1.0


def test_overlap_prefers_longer_common_subsequence():
    # matching (0, 1) in order beats matching only the long 1-run
    pred = ((0, 1), (2.0, 2.0))
    gt = ((1, 0, 1), (1.0, 2.0, 1.0))
    # lcs picks 0 then 1 (or 1 then 0 skipped); best aligned sum = 2 + 1
    assert overlap_ratio(pred, gt) == pytest.approx(3.0 / 4.0)


def test_overlap_zero_length_ground_truth_raises():
    with pytest.raises(InvalidGeometryError):
        overlap_ratio(((0,), (1.0,)), ((), ()))


def test_overlap_matches_exhaustive_alignment():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        pl = [int(x) for x in rng.integers(0, 3, size=n)]
        gl = [int(x) for x in rng.integers(0, 3, size=m)]
        pv = [float(x) for x in rng.uniform(0.5, 5.0, size=n)]
        gv = [float(x) for x in rng.uniform(0.5, 5.0, size=m)]
        got = overlap_ratio((pl, pv), (gl, gv))
        want = lcs_overlap(pl, pv, gl, gv)
        assert got == pytest.approx(want, abs=1e-12)


@st.composite
def sequence_pairs(draw):
    """(pred, gt) label sequences over three labels, equal half the time.

    Lengths span 1e-3..1e4, where the order of a float sum changes its bits.
    """
    labels = st.lists(st.integers(0, 2), min_size=1, max_size=7)
    gl = draw(labels)
    pl = gl if draw(st.booleans()) else draw(labels)
    lengths = st.floats(min_value=1e-3, max_value=1e4)
    pv = draw(st.lists(lengths, min_size=len(pl), max_size=len(pl)))
    gv = draw(st.lists(lengths, min_size=len(gl), max_size=len(gl)))
    return (tuple(pl), tuple(pv)), (tuple(gl), tuple(gv))


@given(sequence_pairs())
# equal sequences with a non-adjacent repeat; (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
@example((((0, 1, 0), (0.1, 0.2, 0.3)), ((0, 1, 0), (1.0, 1.0, 1.0))))
@example((((2, 0, 2, 0), (1e4, 1e-3, 1e-3, 3.3)), ((2, 0, 2, 0), (1e-3, 1e4, 7.1, 1e4))))
@settings(max_examples=300, deadline=None)
def test_overlap_is_bit_equal_to_the_dp(pair):
    pred, gt = pair
    assert overlap_ratio(pred, gt) == overlap_dp_reference(pred, gt)


# ---------------------------------------------------------------------------
# chamfer distance


def test_chamfer_examples():
    assert chamfer_distance([(0.0, 0.0)], [(3.0, 4.0)]) == pytest.approx(5.0)
    pts = [(0.0, 0.0), (2.0, 1.0)]
    assert chamfer_distance(pts, pts) == 0.0
    assert chamfer_distance([(0.0, 0.0), (1.0, 0.0)], [(0.0, 0.0)]) == pytest.approx(0.25)


def test_chamfer_symmetric_and_matches_brute():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.uniform(-10, 10, size=(int(rng.integers(1, 8)), 2))
        b = rng.uniform(-10, 10, size=(int(rng.integers(1, 8)), 2))
        got = chamfer_distance(a, b)
        assert got == pytest.approx(chamfer_brute(a.tolist(), b.tolist()), rel=1e-12)
        assert got == pytest.approx(chamfer_distance(b, a), rel=1e-12)


def test_chamfer_rejects_empty():
    with pytest.raises(InvalidGeometryError):
        chamfer_distance([], [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# metric config


def test_bucket_of():
    cfg = MetricConfig()
    assert cfg.bucket_of(0.0) == 0
    assert cfg.bucket_of(4.99) == 0
    assert cfg.bucket_of(5.0) == 1
    assert cfg.bucket_of(74.9) == 14
    assert cfg.bucket_of(1e9) == 14
    with pytest.raises(ConfigError):
        cfg.bucket_of(-1.0)


def test_buckets_of_agrees_with_bucket_of_at_every_edge():
    cfg = MetricConfig()
    edges = [lo for lo, _ in cfg.length_buckets]
    lengths = [0.0, -0.0, 1e9, 1e300] + [v for e in edges[1:] for v in (np.nextafter(e, 0.0), e, np.nextafter(e, math.inf))]
    got = cfg.buckets_of(lengths)
    assert got.dtype == np.int64
    assert got.tolist() == [cfg.bucket_of(float(v)) for v in lengths]
    assert got[:4].tolist() == [0, 0, 14, 14]
    assert got[4:].tolist() == [b for i in range(1, len(edges)) for b in (i - 1, i, i)]
    for bad in (-1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ConfigError, match=f"^no bucket for length {bad}$"):
            cfg.bucket_of(bad)
        with pytest.raises(ConfigError, match=f"^no bucket for length {bad}$"):
            cfg.buckets_of([3.0, bad, -2.0])


def test_metric_config_validation():
    with pytest.raises(ConfigError):
        MetricConfig(thresholds=(0.9, 0.5))
    with pytest.raises(ConfigError):
        MetricConfig(thresholds=(0.0, 0.5))
    with pytest.raises(ConfigError):
        MetricConfig(thresholds=())
    with pytest.raises(ConfigError):
        MetricConfig(length_buckets=((0.0, 5.0), (6.0, math.inf)))
    with pytest.raises(ConfigError):
        MetricConfig(length_buckets=((0.0, 5.0), (5.0, 10.0)))
    with pytest.raises(ConfigError):
        MetricConfig(point_match_tau=0.0)
    with pytest.raises(ConfigError):
        MetricConfig(chamfer_tau=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="point_match_tau"):
            MetricConfig(point_match_tau=bad)
        with pytest.raises(ConfigError, match="chamfer_tau"):
            MetricConfig(chamfer_tau=bad)


# ---------------------------------------------------------------------------
# association precision-recall


def test_association_self_evaluation_is_exactly_one(tiny, grid42):
    for scene in (tiny, grid42):
        rep = association_pr([scene.gt], [scene])
        np.testing.assert_array_equal(rep.precision, 1.0)
        np.testing.assert_array_equal(rep.recall, 1.0)
        np.testing.assert_array_equal(rep.f1, 1.0)
        assert rep.ap == rep.ar == rep.af1 == 1.0
        assert int(rep.counts[:, :, 1].sum()) == 0
        assert int(rep.counts[:, :, 2].sum()) == 0


def test_scene_graph_is_enumerated_once_when_prediction_reuses_it(tiny, monkeypatch):
    # the path DFS is the graph's cached `path_rows`; count its runs per graph
    dfs, runs = HdGraph.path_rows.func, []

    def counting(graph):
        runs.append(graph)
        return dfs(graph)

    cached = cached_property(counting)
    cached.__set_name__(HdGraph, "path_rows")
    monkeypatch.setattr(HdGraph, "path_rows", cached)
    assert association_pr([tiny.gt], [tiny]).af1 == 1.0
    assert len(runs) == 1 and runs[0] is tiny.hd
    own_hd = HdGraph(centerlines=tiny.hd.centerlines, edges=tiny.hd.edges)
    assert association_pr([Prediction(assoc=tiny.gt, hd=own_hd)], [tiny]).af1 == 1.0
    assert reachability_pr([Prediction(assoc=tiny.gt, hd=own_hd)], [tiny]).af1 == 1.0
    assert len(runs) == 2 and runs[1] is own_hd


def test_association_hand_walked_two_path_fixture(tiny):
    # chain (0,1,2): predicted (0,0,1) overlaps gt (0,0,0) by 6/9 = 0.667,
    # a TP up to threshold 0.65 and an FP beyond; chain (3,4,5) is perfect
    pred = Association(labels={0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1})
    rep = association_pr([pred], [tiny])
    tp = rep.counts[:, :, 0].sum(axis=1)
    fp = rep.counts[:, :, 1].sum(axis=1)
    for i, th in enumerate(rep.thresholds):
        if th <= 6.0 / 9.0:
            assert (tp[i], fp[i]) == (2, 0)
        else:
            assert (tp[i], fp[i]) == (1, 1)
    # both paths are 9 m long: bucket 1 only
    assert set(np.nonzero(rep.counts.sum(axis=(0, 2)))[0]) == {1}
    assert rep.ap == pytest.approx((4 * 1.0 + 6 * 0.5) / 10.0)
    assert rep.ar == 1.0
    assert rep.at_threshold(0.7)["f1"] == pytest.approx(2 * 0.5 / 1.5)


def test_association_empty_prediction_graph_scores_zero(tiny):
    pred = Prediction(assoc=Association(labels={}), hd=HdGraph(centerlines=(), edges=()))
    rep = association_pr([pred], [tiny])
    np.testing.assert_array_equal(rep.precision, 0.0)
    np.testing.assert_array_equal(rep.recall, 0.0)
    np.testing.assert_array_equal(rep.f1, 0.0)
    assert int(rep.counts[:, :, 2].sum()) == 2 * len(rep.thresholds)


def test_association_tp_monotone_in_threshold():
    scenes, preds = [], []
    for seed in range(6):
        s = generate_scene(GenConfig(seed=seed))
        noisy = perturb_scene(s, PerturbConfig(gps_shift=2.0, dropout_rate=0.1, seed=seed))
        scenes.append(noisy)
        preds.append(knn_associate(noisy))
    rep = association_pr(preds, scenes)
    tp = rep.counts[:, :, 0].sum(axis=1)
    assert np.all(np.diff(tp) <= 0)
    gt_paths = rep.counts[0, :, :].sum()
    assert np.all(rep.counts.sum(axis=(1, 2)) == gt_paths)  # one verdict per path


def test_association_scene_order_invariant(tiny, grid42):
    preds = [knn_associate(tiny), knn_associate(grid42)]
    a = association_pr(preds, [tiny, grid42])
    b = association_pr(preds[::-1], [grid42, tiny])
    np.testing.assert_array_equal(a.counts, b.counts)


def test_association_validates_inputs(tiny):
    with pytest.raises(ConfigError, match="predictions"):
        association_pr([tiny.gt], [tiny, tiny])
    with pytest.raises(CoverageError, match="does not cover"):
        association_pr([Association(labels={0: 0})], [tiny])
    bare = Scene(sd=tiny.sd, hd=tiny.hd)  # no ground truth
    with pytest.raises(CoverageError, match="no ground-truth"):
        association_pr([tiny.gt], [bare])
    with pytest.raises(ConfigError, match="expected Association"):
        association_pr([{"0": 0}], [tiny])


def test_coverage_faults_come_in_order_and_reachability_reads_no_gt_labels(tiny):
    twin = HdGraph(centerlines=tiny.hd.centerlines, edges=tiny.hd.edges)
    partial = Scene(sd=tiny.sd, hd=tiny.hd, gt=Association(labels={c: r for c, r in tiny.gt.labels.items() if c != 4}))
    short_pred = Association(labels={c: r for c, r in tiny.gt.labels.items() if c != 1})
    for hd in (None, twin):
        # the prediction's coverage first, then the ground truth's, named in path order
        with pytest.raises(CoverageError, match=r"^prediction does not cover centerlines \[1\]$"):
            association_pr([Prediction(assoc=short_pred, hd=hd)], [partial])
        with pytest.raises(CoverageError, match="^association does not cover centerline 4$"):
            association_pr([Prediction(assoc=tiny.gt, hd=hd)], [partial])
        assert reachability_pr([Prediction(assoc=tiny.gt, hd=hd)], [partial]).af1 == 1.0


# ---------------------------------------------------------------------------
# reachability precision-recall


def test_reachability_identical_graph_is_all_tp(grid42):
    rep = reachability_pr([grid42.gt], [grid42])
    np.testing.assert_array_equal(rep.precision, 1.0)
    np.testing.assert_array_equal(rep.recall, 1.0)
    # verdicts repeat across the threshold axis
    assert all(np.array_equal(rep.counts[0], rep.counts[i]) for i in range(len(rep.thresholds)))


def shifted_hd(hd: HdGraph, dx: float) -> HdGraph:
    return HdGraph(
        centerlines=tuple(
            make_centerline(
                c.id,
                (c.vector.p1.x + dx, c.vector.p1.y),
                (c.vector.p2.x + dx, c.vector.p2.y),
            )
            for c in hd.centerlines
        ),
        edges=hd.edges,
        boundaries=hd.boundaries,
    )


def test_reachability_shifted_graph_counts_fp(tiny):
    # 2 m shift: endpoints still match under a 3 m tau, but the chamfer
    # distance equals the shift and exceeds the 1 m tolerance
    pred = Prediction(assoc=tiny.gt, hd=shifted_hd(tiny.hd, 2.0))
    cfg = MetricConfig(point_match_tau=3.0, chamfer_tau=1.0)
    rep = reachability_pr([pred], [tiny], cfg)
    assert int(rep.counts[0, :, 1].sum()) == 2  # both paths FP
    np.testing.assert_array_equal(rep.precision, 0.0)
    cfg_loose = MetricConfig(point_match_tau=3.0, chamfer_tau=2.5)
    rep2 = reachability_pr([pred], [tiny], cfg_loose)
    np.testing.assert_array_equal(rep2.precision, 1.0)


def test_reachability_far_shift_is_missed_entirely(tiny):
    # beyond point_match_tau no endpoints pair up: FN, never FP
    pred = Prediction(assoc=tiny.gt, hd=shifted_hd(tiny.hd, 10.0))
    rep = reachability_pr([pred], [tiny])
    assert int(rep.counts[0, :, 2].sum()) == 2
    assert int(rep.counts[0, :, 1].sum()) == 0


def test_reachability_verdict_follows_chamfer_oracle(tiny):
    # bow the middle centerline upward; endpoints stay fixed
    bowed = HdGraph(
        centerlines=(
            tiny.hd.by_id[0],
            make_centerline(1, (3.0, 1.7), (6.0, 1.7)),
            tiny.hd.by_id[2],
            tiny.hd.by_id[3],
            tiny.hd.by_id[4],
            tiny.hd.by_id[5],
        ),
        edges=tiny.hd.edges,
    )
    pred = Prediction(assoc=tiny.gt, hd=bowed)

    def path_pts(hd, path):
        pts = []
        for cid in path:
            v = hd.by_id[cid].vector
            pts.extend([(v.p1.x, v.p1.y), (v.p2.x, v.p2.y)])
        return pts

    d = chamfer_brute(path_pts(bowed, (0, 1, 2)), path_pts(tiny.hd, (0, 1, 2)))
    for tau, want_tp in ((d + 0.05, 2), (d - 0.05, 1)):
        rep = reachability_pr([pred], [tiny], MetricConfig(chamfer_tau=tau))
        assert int(rep.counts[0, :, 0].sum()) == want_tp


# ---------------------------------------------------------------------------
# endpoint matching, caches and early exit


def test_match_points_tau_is_inclusive():
    tau = 1.5
    gt = [(0.0, 0.0)]
    assert metrics._match_points(gt, [(tau, 0.0)], tau) == {(0.0, 0.0): (tau, 0.0)}
    beyond = float(np.nextafter(tau, math.inf))
    assert metrics._match_points(gt, [(beyond, 0.0)], tau) == {}
    # off-axis, math.hypot alone decides: on common libms np.hypot rounds
    # this pair one ulp above math.hypot, which the prefilter's slack absorbs
    pp = (0.6974505017823072, 1.175273396590148)
    d = math.hypot(*pp)
    assert metrics._match_points(gt, [pp], d) == {(0.0, 0.0): pp}
    assert metrics._match_points(gt, [pp], float(np.nextafter(d, 0.0))) == {}


def test_match_points_pairs_nearest_first_across_prefilter_blocks(monkeypatch):
    # one prefilter row per block; both gt points are nearest to the same
    # pred point, the closer one wins it and the other takes the runner-up
    monkeypatch.setattr(metrics, "_PREFILTER_CELLS", 1)
    gt = [(0.0, 0.0), (1.0, 0.0)]
    pred = [(0.2, 0.0), (0.9, 0.0), (5.0, 0.0)]
    assert metrics._match_points(gt, pred, 1.0) == {(1.0, 0.0): (0.9, 0.0), (0.0, 0.0): (0.2, 0.0)}


def corrupted(gt: Association, road_ids, rate: float, rng) -> Association:
    return Association(labels={
        c: int(rng.choice(road_ids)) if rng.random() < rate else r for c, r in gt.labels.items()
    })


# full-crop grids put several lane paths between one pair of endpoints,
# so a gt path meets several candidates
FULL_CROP = (75.0, 75.0)


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    st.sampled_from(["gt", "knn", "random", "corrupted"]),
    st.sampled_from([None, 0.4, 1.2]),
    st.sampled_from([(1.5, 1.0), (3.0, 0.3)]),
)
@settings(max_examples=60, deadline=None)
def test_counts_match_per_pair_reference(layout, full_crop, seed, perturb_seed, labels, shift, taus):
    extent = {"hd_extent": FULL_CROP, "grid_rows": 3, "grid_cols": 3} if full_crop else {}
    scene = generate_scene(GenConfig(layout=layout, seed=seed, **extent))
    if perturb_seed is not None:
        scene = perturb_scene(scene, PerturbConfig(
            gps_shift=2.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.1, seed=perturb_seed,
        ))
    rng = np.random.default_rng(seed)
    road_ids = [r.id for r in scene.sd.roads]
    assoc = {
        "gt": lambda: scene.gt,
        "knn": lambda: knn_associate(scene),
        "random": lambda: corrupted(scene.gt, road_ids, 1.0, rng),
        "corrupted": lambda: corrupted(scene.gt, road_ids, 0.2, rng),
    }[labels]()
    # a separately built, shifted graph takes the general path; the CLI
    # always scores on the scene's own graph
    pred_hd = None if shift is None else shifted_hd(scene.hd, shift)
    cfg = MetricConfig(point_match_tau=taus[0], chamfer_tau=taus[1])
    for metric, score in (("association", association_pr), ("reachability", reachability_pr)):
        got = score([Prediction(assoc=assoc, hd=pred_hd)], [scene], cfg)
        want = scene_counts_reference(metric, assoc, scene, cfg, pred_hd)
        np.testing.assert_array_equal(got.counts, want)


def test_own_graph_scores_each_path_once_per_side(monkeypatch):
    ratio_calls, chamfer_calls = [], []

    def counting_overlap_ratio(pred_seq, gt_seq):
        ratio_calls.append((pred_seq, gt_seq))
        return overlap_ratio(pred_seq, gt_seq)

    def counting_chamfer(a, b):
        chamfer_calls.append(1)
        return chamfer_distance(a, b)

    monkeypatch.setattr(metrics, "overlap_ratio", counting_overlap_ratio)
    monkeypatch.setattr(metrics, "chamfer_distance", counting_chamfer)
    scene = perturb_scene(
        generate_scene(GenConfig(grid_rows=3, grid_cols=3, hd_extent=FULL_CROP, seed=0)),
        PerturbConfig(gps_shift=1.0, dropout_rate=0.05, seed=0),
    )
    # corrupted labels leave gt paths that their own path does not settle, so the walk runs
    pred = corrupted(scene.gt, [r.id for r in scene.sd.roads], 0.3, np.random.default_rng(0))
    want = scene_counts_reference("association", pred, scene, MetricConfig())
    np.testing.assert_array_equal(association_pr([pred], [scene]).counts, want)
    # each distinct pair of label sequences is scored once
    assert ratio_calls and len(ratio_calls) == len(set(ratio_calls))
    reachability_pr([pred], [scene])
    assert chamfer_calls == []


def mixed_types(assoc: Association, rng) -> Association:
    """The same labels, some shown as a float or, for 0 and 1, as a bool: each
    compares equal to its int, and label_sequence merges runs by equality."""
    def shown(r):
        kind = rng.integers(3)
        return float(r) if kind == 1 else bool(r) if kind == 2 and r in (0, 1) else r

    return Association(labels={c: shown(r) for c, r in assoc.labels.items()})


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    st.sampled_from(["gt", "knn", "corrupted"]),
    st.sampled_from([1, 3, 0]),  # keep every lane edge, every third, or none: single-token paths
)
@settings(max_examples=40, deadline=None)
def test_association_runs_equal_label_sequence_on_both_sides(layout, seed, perturb_seed, labels, keep):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    if perturb_seed is not None:
        scene = perturb_scene(scene, PerturbConfig(
            gps_shift=1.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.2, seed=perturb_seed,
        ))
    rng = np.random.default_rng(seed)
    pred = {
        "gt": lambda: scene.gt,
        "knn": lambda: knn_associate(scene),
        "corrupted": lambda: corrupted(scene.gt, [r.id for r in scene.sd.roads], 0.3, rng),
    }[labels]()
    hd = HdGraph(centerlines=scene.hd.centerlines, edges=scene.hd.edges[::keep] if keep else (),
                 boundaries=scene.hd.boundaries)
    scene, pred = Scene(sd=scene.sd, hd=hd, gt=mixed_types(scene.gt, rng)), mixed_types(pred, rng)
    paths = enumerate_paths(hd).paths
    # one pass per side, the label codes shared between the sides
    code = {}
    runs = [metrics._runs(hd, assoc.labels, code) for assoc in (pred, scene.gt)]
    reps = list(code)
    for assoc, (offsets, codes, lengths) in zip((pred, scene.gt), runs):
        assert len(offsets) == len(paths) + 1
        for path, a, b in zip(paths, offsets.tolist(), offsets[1:].tolist()):
            want_labels, want_lengths = label_sequence(path, assoc, hd)
            assert [reps[c] for c in codes[a:b].tolist()] == list(want_labels)
            assert lengths[a:b].view(np.int64).tolist() == np.array(want_lengths).view(np.int64).tolist()
    # association_pr scores sequences sliced from these runs: against a separately
    # built copy of the graph every gt path is walked and meets its copy
    pairs = []

    def recording(pred_seq, gt_seq):
        pairs.append((pred_seq, gt_seq))
        return overlap_ratio(pred_seq, gt_seq)

    twin = HdGraph(centerlines=hd.centerlines, edges=hd.edges, boundaries=hd.boundaries)
    with mock.patch.object(metrics, "overlap_ratio", recording):
        association_pr([Prediction(assoc=pred, hd=twin)], [scene])
    assert {g for _, g in pairs} == {label_sequence(path, scene.gt, hd) for path in paths}
    assert {p for p, _ in pairs} <= {label_sequence(path, pred, hd) for path in paths}
    assert all(type(v) is float for p, g in pairs for v in p[1] + g[1])


def shifted_runs(scene, rng, shift: float, swap: float) -> Association:
    """Ground-truth labels with some centerlines taking a lane-graph
    neighbour's gt label, which moves a run boundary along the paths through
    it (equal label tuples, other run lengths), and some taking any road's."""
    hd, gt = scene.hd, scene.gt.labels
    preds = {c: [] for c in hd.node_ids}
    for a, b in hd.edges:
        preds[b].append(a)
    roads = [r.id for r in scene.sd.roads]
    labels = {}
    for c in hd.node_ids:
        near = preds[c] + list(hd.successors[c])
        draw = rng.random()
        if draw < shift and near:
            labels[c] = gt[near[rng.integers(len(near))]]
        elif draw < shift + swap:
            labels[c] = roads[rng.integers(len(roads))]
        else:
            labels[c] = gt[c]
    return Association(labels=labels)


def own_path_cases(scene, assoc) -> set:
    """Which cases the gt paths of a scene meet against their own path."""
    cases = set()
    for path in enumerate_paths(scene.hd).paths:
        p_seq, g_seq = label_sequence(path, assoc, scene.hd), label_sequence(path, scene.gt, scene.hd)
        if p_seq[0] != g_seq[0]:
            cases.add("unequal")
        elif p_seq[1] != g_seq[1]:
            cases.add("below top" if overlap_ratio(p_seq, g_seq) < DEFAULT_THRESHOLDS[-1] else "other runs")
    return cases


def test_shifted_runs_meet_every_own_path_case():
    scene = generate_scene(GenConfig(grid_rows=3, grid_cols=3, hd_extent=FULL_CROP, seed=0))
    assoc = shifted_runs(scene, np.random.default_rng(0), 0.2, 0.05)
    assert own_path_cases(scene, assoc) == {"unequal", "below top", "other runs"}


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.booleans(),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    st.sampled_from([(0.2, 0.0), (0.2, 0.05), (0.5, 0.1), (0.05, 0.0)]),
    st.sampled_from([DEFAULT_THRESHOLDS, (0.3, 0.6, 0.99), (1.0,)]),
)
@settings(max_examples=60, deadline=None)
def test_own_graph_counts_match_reference_on_shifted_runs(layout, full_crop, seed, perturb_seed, rates, ths):
    extent = {"hd_extent": FULL_CROP, "grid_rows": 3, "grid_cols": 3} if full_crop else {}
    scene = generate_scene(GenConfig(layout=layout, seed=seed, **extent))
    if perturb_seed is not None:
        scene = perturb_scene(scene, PerturbConfig(
            gps_shift=1.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.2, seed=perturb_seed,
        ))
    assoc = shifted_runs(scene, np.random.default_rng(seed), *rates)
    cfg = MetricConfig(thresholds=ths)
    for metric, score in (("association", association_pr), ("reachability", reachability_pr)):
        got = score([assoc], [scene], cfg)
        np.testing.assert_array_equal(got.counts, scene_counts_reference(metric, assoc, scene, cfg))


@given(st.lists(st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=59), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_add_at_run_sums_have_the_bits_of_sum(runs):
    # the own-graph pass sums run lengths with np.add.at, which applies its indices in order
    got = np.zeros(len(runs))
    np.add.at(got, np.repeat(np.arange(len(runs)), [len(r) for r in runs]), np.concatenate(runs))
    assert got.tolist() == [metrics._sum(r) for r in runs]


def test_own_graph_runs_no_endpoint_matching(monkeypatch):
    # on the scene's own graph every endpoint is its own match
    def refusing(*args):
        raise AssertionError("endpoint matching ran on the scene's own graph")

    real, calls = metrics._match_points, []
    monkeypatch.setattr(metrics, "_match_points", refusing)
    scene = perturb_scene(
        generate_scene(GenConfig(grid_rows=3, grid_cols=3, hd_extent=FULL_CROP, seed=1)),
        PerturbConfig(gps_shift=1.0, dropout_rate=0.05, seed=1),
    )
    pred = corrupted(scene.gt, [r.id for r in scene.sd.roads], 0.3, np.random.default_rng(1))
    scorers = (("association", association_pr), ("reachability", reachability_pr))
    for metric, score in scorers:
        want = scene_counts_reference(metric, pred, scene, MetricConfig())
        np.testing.assert_array_equal(score([pred], [scene]).counts, want)
    # a separately built graph, shifted, still has its endpoints matched
    monkeypatch.setattr(metrics, "_match_points", lambda *args: calls.append(1) or real(*args))
    pred_hd = shifted_hd(scene.hd, 0.4)
    for metric, score in scorers:
        want = scene_counts_reference(metric, pred, scene, MetricConfig(), pred_hd)
        np.testing.assert_array_equal(score([Prediction(assoc=pred, hd=pred_hd)], [scene]).counts, want)
    assert len(calls) == 2


def test_ratio_equal_to_a_threshold_is_tp_there(tiny):
    # chain (0,1,2) labelled (0,0,1) overlaps its gt by 6/9 exactly
    pred = Association(labels={0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1})
    ratio = overlap_ratio(label_sequence((0, 1, 2), pred, tiny.hd), label_sequence((0, 1, 2), tiny.gt, tiny.hd))
    assert ratio == 6.0 / 9.0
    cfg = MetricConfig(thresholds=(0.5, ratio, float(np.nextafter(ratio, 1.0))))
    rep = association_pr([pred], [tiny], cfg)
    assert rep.counts[:, :, 0].sum(axis=1).tolist() == [2, 2, 1]
    assert rep.counts[:, :, 1].sum(axis=1).tolist() == [0, 0, 1]


def test_association_computes_each_centerline_length_once_per_graph(monkeypatch):
    scene = generate_scene(GenConfig(grid_rows=4, grid_cols=4, hd_extent=FULL_CROP, seed=0))
    own_hd = HdGraph(centerlines=scene.hd.centerlines, edges=scene.hd.edges)
    calls = []
    length = DirVec.length.fget

    def counting(vec):
        calls.append(vec)
        return length(vec)

    monkeypatch.setattr(DirVec, "length", property(counting))
    n = len(scene.hd.centerlines)
    assert association_pr([scene.gt], [scene]).af1 == 1.0
    assert len(calls) == n == len(set(map(id, calls)))
    # a prediction on its own graph object computes that graph's lengths once more
    assert association_pr([Prediction(assoc=scene.gt, hd=own_hd)], [scene]).af1 == 1.0
    assert len(calls) == 2 * n


# ---------------------------------------------------------------------------
# reports


def test_report_roundtrip_through_json(grid42):
    rep = association_pr([knn_associate(grid42)], [grid42])
    doc = rep.to_json()
    assert doc["buckets"][-1][1] is None  # inf serializes as null
    back = MetricReport.from_json(doc)
    assert back.thresholds == rep.thresholds
    assert back.buckets == rep.buckets
    np.testing.assert_array_equal(back.counts, rep.counts)
    np.testing.assert_array_equal(back.precision, rep.precision)
    assert doc["ap_50_95"] == rep.ap


def test_report_counts_validation():
    with pytest.raises(ConfigError, match="counts shape"):
        MetricReport(thresholds=(0.5,), buckets=((0.0, math.inf),), counts=np.zeros((2, 1, 3)))
    with pytest.raises(ConfigError, match="non-negative"):
        MetricReport(
            thresholds=(0.5,), buckets=((0.0, math.inf),), counts=np.full((1, 1, 3), -1)
        )


def test_report_table_layout(tiny):
    rep = association_pr([tiny.gt], [tiny])
    text = report_table({"knn": rep, "a-much-longer-name": rep})
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("Method")
    for col in ("A-F1^50", "A-P^50:95", "A-F1^50:95"):
        assert col in lines[0]
    assert lines[1].startswith("knn")
    assert "100.0" in lines[1]
    # all rows align to the same width
    assert len({len(l) for l in lines}) == 1


def test_report_table_marks_missing_thresholds(tiny):
    cfg = MetricConfig(thresholds=(0.6, 0.8))
    rep = association_pr([tiny.gt], [tiny], cfg)
    text = report_table({"x": rep})
    assert "-" in text.splitlines()[1]


def test_default_thresholds_are_50_to_95():
    assert DEFAULT_THRESHOLDS == (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)


# ---------------------------------------------------------------------------
# sums with the same bits on every Python version

# Ten lengths of 0.1 sum to 0.9999999999999999 left to right; the compensated
# builtin sum() of Python 3.12 and later gives 1.0.
TENTHS = (0.1,) * 10


def test_sums_run_left_to_right():
    assert metrics._sum(TENTHS) == 0.9999999999999999
    labels = tuple(range(10))
    assert overlap_ratio((labels, TENTHS), (labels, TENTHS)) == 1.0


def test_bucket_edge_between_the_left_to_right_and_the_compensated_path_length():
    # one lane path of ten 0.1 m centerlines against a bucket edge at 1.0 m
    road = Road(id=0, points=(Point2(0.0, -1.0), Point2(10.0, -1.0)))
    cls = tuple(make_centerline(i, (float(i), 0.0), (float(i), 0.1)) for i in range(10))
    assert {c.vector.length for c in cls} == {0.1}
    scene = Scene(
        sd=SdGraph(roads=(road,), edges=()),
        hd=HdGraph(centerlines=cls, edges=tuple((i, i + 1) for i in range(9))),
        gt=Association(labels=dict.fromkeys(range(10), 0)),
    )
    cfg = MetricConfig(length_buckets=((0.0, 1.0), (1.0, math.inf)))
    counts = association_pr([scene.gt], [scene], cfg).counts
    assert counts[:, 0, 0].tolist() == [1] * len(cfg.thresholds)
    assert not counts[:, 1].any()
    assert (counts == scene_counts_reference("association", scene.gt, scene, cfg)).all()

"""Nearest-road and HMM baselines, checked against brute-force search."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapassoc import geometry
from mapassoc.baselines import (
    TRANSITION_ADJACENT,
    TRANSITION_SELF,
    _log_transition_matrix,
    distance_assoc_matrix,
    hmm_associate,
    knn_associate,
    viterbi,
)
from mapassoc.errors import LabelError, NoFeasiblePathError, TopologyError
from mapassoc.geometry import (
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    enumerate_paths,
)
from mapassoc.scenegen import AugConfig, GenConfig, PerturbConfig, augment_scene, generate_scene, perturb_scene

from conftest import make_centerline
from oracles import brute_viterbi, hmm_per_path_reference, scene_distances_reference


def road(rid, y, x0=0.0, x1=10.0):
    return Road(id=rid, points=(Point2(x0, y), Point2(x1, y)))


# ---------------------------------------------------------------------------
# distance kernel


def assert_same_distances(scene):
    dist = scene.road_distances
    want, want_cl, want_road = scene_distances_reference(scene)
    assert (scene.hd.node_ids, scene.sd.node_ids) == (want_cl, want_road)
    assert dist.shape == want.shape and dist.dtype == want.dtype
    assert dist.tobytes() == want.tobytes()
    return dist


HEAVY = PerturbConfig(gps_shift=3.0, dropout_rate=0.3, jitter_sigma=0.5, oversegment_rate=0.3)


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
)
@settings(max_examples=60, deadline=None)
def test_scene_distances_match_per_road_reference(layout, seed, perturb_seed, augment_seed):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    if perturb_seed is not None:
        scene = perturb_scene(scene, dataclasses.replace(HEAVY, seed=perturb_seed))
    if augment_seed is not None:
        scene = augment_scene(scene, AugConfig(rotate_range_deg=(-180.0, 180.0), rotate_p=1.0, seed=augment_seed))
    assert_same_distances(scene)


def test_scene_distances_single_road_with_two_points():
    sd = SdGraph(roads=(road(4, 0.0),), edges=())
    hd = HdGraph(
        centerlines=(make_centerline(1, (2.0, 3.0), (4.0, 3.0)), make_centerline(2, (12.0, -4.0), (14.0, -4.0))),
        edges=(),
    )
    dist = assert_same_distances(Scene(sd=sd, hd=hd))
    np.testing.assert_array_equal(dist, [[3.0], [5.0]])  # beyond the end: distance to (10, 0)


def test_scene_distances_several_two_point_roads():
    roads = tuple(Road(id=i, points=(Point2(float(i), 0.0), Point2(float(i), 5.0 + i))) for i in range(5))
    cls = tuple(make_centerline(i, (0.3 * i, 1.0), (0.3 * i + 0.1, 2.0)) for i in range(7))
    hd = HdGraph(centerlines=cls, edges=())
    assert_same_distances(Scene(sd=SdGraph(roads=roads, edges=()), hd=hd))


def test_scene_distances_without_centerlines():
    sd = SdGraph(roads=(road(0, 0.0), road(1, 5.0)), edges=())
    assert assert_same_distances(Scene(sd=sd, hd=HdGraph(centerlines=(), edges=()))).shape == (0, 2)


def test_scene_distances_midpoint_on_a_road_vertex():
    bent = Road(id=0, points=(Point2(0.0, 0.0), Point2(4.0, 0.0), Point2(4.0, 4.0), Point2(9.0, 7.0)))
    cls = (make_centerline(0, (3.0, -1.0), (5.0, 1.0)), make_centerline(1, (3.0, 3.0), (5.0, 5.0)))
    hd = HdGraph(centerlines=cls, edges=())
    dist = assert_same_distances(Scene(sd=SdGraph(roads=(bent, road(1, 9.0)), edges=()), hd=hd))
    assert dist[0, 0] == 0.0 and dist[1, 0] == 0.0


def test_scene_distances_tie_between_roads_takes_lowest_id():
    # the midpoint (2, 3) is 3.0 from road 7 and road 3, ids given out of order
    bent = Road(id=3, points=(Point2(-5.0, 0.0), Point2(2.0, 0.0), Point2(9.0, 0.0)))
    sd = SdGraph(roads=(road(7, 6.0), bent), edges=())
    hd = HdGraph(centerlines=(make_centerline(5, (1.0, 3.0), (3.0, 3.0)),), edges=())
    scene = Scene(sd=sd, hd=hd)
    dist = assert_same_distances(scene)
    assert dist[0, 0] == dist[0, 1] == 3.0
    assert knn_associate(scene).labels == {5: 3}


def zigzag_scene(n_points: int, n_centerlines: int) -> Scene:
    rng = np.random.default_rng(3)
    xs = np.cumsum(rng.uniform(0.5, 1.5, n_points))
    ys = rng.uniform(-2.0, 2.0, (2, n_points)) + [[0.0], [20.0]]
    roads = tuple(Road(id=i, points=tuple(map(Point2, xs.tolist(), ys[i].tolist()))) for i in range(2))
    starts = rng.uniform(0.0, 1.0, (n_centerlines, 2)) * [float(xs[-1]), 20.0]
    cls = tuple(make_centerline(i, (x, y), (x + 0.5, y + 0.25)) for i, (x, y) in enumerate(starts.tolist()))
    hd = HdGraph(centerlines=cls, edges=())
    return Scene(sd=SdGraph(roads=roads, edges=()), hd=hd)


def test_scene_distances_over_several_row_blocks():
    scene = zigzag_scene(400, 400)
    segments = sum(len(r.points) - 1 for r in scene.sd.roads)
    assert len(scene.hd.centerlines) * segments > 2 * geometry._PAIRS_PER_BLOCK
    assert_same_distances(scene)


@pytest.mark.parametrize("rows", [1, 5, 36])
def test_scene_distances_do_not_depend_on_the_block_size(monkeypatch, rows):
    # 798 segments and 37 centerlines: blocks of 1, 5 and 36 rows, the last
    # two with a short last block; a block smaller than a row holds one row
    scene = zigzag_scene(400, 37)
    monkeypatch.setattr(geometry, "_PAIRS_PER_BLOCK", 798 * rows if rows > 1 else 100)
    assert_same_distances(scene)


@pytest.mark.parametrize("layout", ["grid", "radial", "random-planar"])
def test_road_distances_are_computed_once_per_scene(monkeypatch, layout):
    scene = perturb_scene(generate_scene(GenConfig(layout=layout, seed=4)), HEAVY)
    calls = []
    real = geometry._road_distances
    monkeypatch.setattr(geometry, "_road_distances", lambda *args: calls.append(1) or real(*args))
    dist = scene.road_distances
    assert scene.road_distances is dist
    knn_associate(scene), hmm_associate(scene), distance_assoc_matrix(scene)
    assert len(calls) == 1
    assert not dist.flags.writeable
    with pytest.raises(ValueError):
        dist[0, 0] = 0.0


# ---------------------------------------------------------------------------
# nearest road


def test_knn_recovers_tiny_ground_truth(tiny):
    assoc = knn_associate(tiny)
    assert assoc.labels == tiny.gt.labels
    assert assoc.meta["method"] == "knn"


def test_knn_prefers_strictly_closer_road():
    # midpoint sits 2.0 from road 0 and 1.5 from road 1
    sd = SdGraph(roads=(road(0, 0.0), road(1, 3.5)), edges=())
    hd = HdGraph(centerlines=(make_centerline(0, (1.0, 2.0), (5.0, 2.0)),), edges=())
    assoc = knn_associate(Scene(sd=sd, hd=hd))
    assert assoc.labels == {0: 1}


def test_knn_labels_a_centerline_moved_1e155_m_away_with_its_nearest_road():
    # centerline 1 sits 1e155 m from road 0 and 4e154 m from road 1: both
    # squared distances overflow, yet road 1 is the nearer; centerline 0
    # keeps the bits of the squared measure
    sd = SdGraph(roads=(road(0, 0.0), road(1, 6e154)), edges=())
    hd = HdGraph(centerlines=(make_centerline(0, (1.0, 2.0), (5.0, 2.0)), make_centerline(1, (0.0, 1e155), (1.0, 1e155))),
                 edges=())
    scene = Scene(sd=sd, hd=hd)
    with np.errstate(over="ignore"):
        assert knn_associate(scene).labels == {0: 0, 1: 1}
    assert scene.road_distances[1].tolist() == [1e155, 1e155 - 6e154]
    assert scene.road_distances[0, 0] == 2.0


def test_knn_tie_takes_lowest_road_id():
    # equidistant between roads 3 and 7; ids deliberately out of order
    sd = SdGraph(roads=(road(7, 6.0), road(3, 0.0)), edges=())
    hd = HdGraph(centerlines=(make_centerline(5, (0.0, 3.0), (4.0, 3.0)),), edges=())
    assoc = knn_associate(Scene(sd=sd, hd=hd))
    assert assoc.labels == {5: 3}


def test_knn_without_roads_raises():
    hd = HdGraph(centerlines=(make_centerline(0, (0.0, 0.0), (1.0, 0.0)),), edges=())
    with pytest.raises(LabelError):
        knn_associate(Scene(sd=SdGraph(roads=(), edges=()), hd=hd))


@pytest.mark.parametrize(
    "measure", [hmm_associate, distance_assoc_matrix, lambda scene: scene.road_distances],
    ids=["hmm", "distance_assoc_matrix", "road_distances"],
)
def test_scene_without_roads_raises_the_knn_error(measure):
    hd = HdGraph(centerlines=(make_centerline(0, (0.0, 0.0), (1.0, 0.0)),), edges=())
    with pytest.raises(LabelError, match="^scene has no roads to associate against$"):
        measure(Scene(sd=SdGraph(roads=(), edges=()), hd=hd))


def test_knn_invariant_under_rigid_motion(grid42):
    moved = augment_scene(
        grid42,
        AugConfig(
            rotate_range_deg=(25.0, 25.0),
            rotate_p=1.0,
            scale_range=(1.0, 1.0),
            flip_p=0.0,
            jitter_sigma=0.0,
            grid_sample=None,
            seed=5,
        ),
    )
    assert knn_associate(moved).labels == knn_associate(grid42).labels


# ---------------------------------------------------------------------------
# viterbi


def test_viterbi_single_state_sums_scores():
    em = np.array([[-1.0], [-2.0], [-3.0]])
    states, score = viterbi(em, np.zeros((1, 1)), np.zeros(1))
    assert states == [0, 0, 0]
    assert score == pytest.approx(-6.0)


def test_viterbi_transition_overrides_greedy_emission():
    # emission prefers state 0 at t=0, but leaving state 0 is near-impossible
    em = np.log([[0.6, 0.4], [0.1, 0.9]])
    tr = np.log([[0.999, 0.001], [0.001, 0.999]])
    prior = np.log([0.5, 0.5])
    states, score = viterbi(em, tr, prior)
    assert states == [1, 1]
    assert score == pytest.approx(math.log(0.5 * 0.4 * 0.999 * 0.9))


def test_viterbi_uniform_ties_pick_lexicographic_smallest():
    states, score = viterbi(np.zeros((4, 3)), np.zeros((3, 3)), np.zeros(3))
    assert states == [0, 0, 0, 0]
    assert score == 0.0


def test_viterbi_all_infeasible_raises():
    em = np.full((2, 2), -math.inf)
    with pytest.raises(NoFeasiblePathError):
        viterbi(em, np.zeros((2, 2)), np.zeros(2))


def test_viterbi_rejects_bad_shapes():
    with pytest.raises(ValueError):
        viterbi(np.zeros(3), np.zeros((3, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        viterbi(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        viterbi(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros(2))


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t = int(rng.integers(1, 6))
        s = int(rng.integers(1, 5))
        em = np.log(rng.uniform(0.05, 1.0, size=(t, s)))
        tr = np.log(rng.uniform(0.05, 1.0, size=(s, s)))
        prior = np.log(rng.uniform(0.05, 1.0, size=s))
        states, score = viterbi(em, tr, prior)
        want_states, want_score = brute_viterbi(em, tr, prior)
        assert states == list(want_states)
        assert score == pytest.approx(want_score, rel=1e-12)


# ---------------------------------------------------------------------------
# hmm over lane paths


def test_hmm_single_road_single_centerline():
    sd = SdGraph(roads=(road(4, 0.0),), edges=())
    hd = HdGraph(centerlines=(make_centerline(9, (0.0, 1.0), (4.0, 1.0)),), edges=())
    assoc = hmm_associate(Scene(sd=sd, hd=hd))
    assert assoc.labels == {9: 4}
    assert assoc.meta == {"method": "hmm"}


def test_hmm_connectivity_blocks_nonadjacent_road():
    # second token is nearest road 2, but road 2 is unreachable from road 0;
    # the decoder keeps the adjacent road 1 while knn jumps to road 2
    sd = SdGraph(roads=(road(0, 0.0), road(1, 14.0), road(2, 13.0)), edges=((0, 1),))
    hd = HdGraph(
        centerlines=(
            make_centerline(0, (0.0, 1.0), (4.0, 1.0)),
            make_centerline(1, (4.0, 10.0), (8.0, 10.0)),
        ),
        edges=((0, 1),),
    )
    scene = Scene(sd=sd, hd=hd)
    assert knn_associate(scene).labels == {0: 0, 1: 2}
    assoc = hmm_associate(scene)
    assert assoc.labels == {0: 0, 1: 1}
    assert "fallback_paths" not in assoc.meta


def test_hmm_recovers_clean_grid(grid42):
    assert hmm_associate(grid42).labels == grid42.gt.labels
    assert knn_associate(grid42).labels == grid42.gt.labels


def test_hmm_consecutive_labels_stay_connected():
    base = generate_scene(GenConfig(seed=9))
    noisy = perturb_scene(base, PerturbConfig(gps_shift=2.0, dropout_rate=0.1, seed=3))
    assoc = hmm_associate(noisy)
    assert "fallback_paths" not in assoc.meta
    succ = noisy.sd.successors
    for path in enumerate_paths(noisy.hd).paths:
        labels = [assoc.labels[c] for c in path]
        for prev, nxt in zip(labels, labels[1:]):
            assert nxt == prev or nxt in succ.get(prev, ())


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_hmm_transition_row_shares_the_adjacent_weight(degree):
    # road 0 connects to roads 1..degree; no road moves to one it does not
    # connect to, and a road without successors stays put
    sd = SdGraph(roads=tuple(road(i, 3.0 * i) for i in range(5)), edges=tuple((0, j) for j in range(1, degree + 1)))
    log_tr = _log_transition_matrix(Scene(sd=sd, hd=HdGraph(centerlines=(), edges=())))
    weights = [TRANSITION_SELF] + [TRANSITION_ADJACENT / max(degree, 1)] * degree + [0.0] * (4 - degree)
    want = np.array(weights) / sum(weights)
    np.testing.assert_allclose(np.exp(log_tr[0]), want, rtol=1e-15, atol=0.0)
    assert np.isneginf(log_tr[0, degree + 1 :]).all()
    assert (np.exp(log_tr[1:]) == np.eye(5)[1:]).all()


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
)
@settings(max_examples=40, deadline=None)
def test_hmm_matches_per_path_viterbi_reference(layout, seed, perturb_seed):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    if perturb_seed is not None:
        scene = perturb_scene(scene, PerturbConfig(
            gps_shift=2.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.1, seed=perturb_seed,
        ))
    labels, fallback = hmm_per_path_reference(scene)
    assoc = hmm_associate(scene)
    assert assoc.labels == labels
    assert assoc.meta.get("fallback_centerlines", []) == fallback == []


# A centerline 1e155 m from every road: its squared distance, and with it
# its emission under sigma 4.07 m, overflows, so its emission is -inf.
FAR = DirVec.from_points((1e155, 0.0), (1e155, 1.0))


def moved_far(scene: Scene, ids) -> Scene:
    """`scene` with the centerlines `ids` moved to FAR, and no crop meta."""
    cls = tuple(Centerline(c.id, FAR) if c.id in ids else c for c in scene.hd.centerlines)
    hd = HdGraph(centerlines=cls, edges=scene.hd.edges, boundaries=scene.hd.boundaries)
    return Scene(sd=scene.sd, hd=hd, gt=scene.gt)


def test_hmm_partial_fallback_matches_reference():
    # a path through a far centerline is infeasible; a centerline on at
    # least one feasible path keeps its label
    partial = 0
    for seed in range(6):
        scene = perturb_scene(generate_scene(GenConfig(seed=seed)), PerturbConfig(gps_shift=1.0, seed=seed))
        paths = enumerate_paths(scene.hd).paths
        scene = moved_far(scene, {paths[0][len(paths[0]) // 2], paths[-1][-1]})
        with np.errstate(over="ignore"):
            labels, fallback = hmm_per_path_reference(scene)
            assoc = hmm_associate(scene)
        assert assoc.labels == labels
        assert assoc.meta.get("fallback_centerlines", []) == fallback
        partial += 0 < len(fallback) < len(labels)
    assert partial == 6


def test_hmm_every_emission_infeasible_falls_back_to_knn(tiny):
    # every centerline is far from every road, so no state sequence
    # anywhere is feasible
    scene = moved_far(tiny, set(tiny.hd.node_ids))
    with np.errstate(over="ignore"):
        assoc = hmm_associate(scene)
        assert (assoc.labels, [0, 1, 2, 3, 4, 5]) == hmm_per_path_reference(scene)
    assert assoc.labels == knn_associate(scene).labels
    assert assoc.meta == {"method": "hmm", "fallback_centerlines": [0, 1, 2, 3, 4, 5]}


def test_hmm_decodes_scene_with_more_paths_than_enumeration_allows():
    scene = perturb_scene(
        generate_scene(GenConfig(layout="grid", grid_rows=8, grid_cols=8,
                                 sd_extent=(160.0, 160.0), hd_extent=(150.0, 150.0))),
        PerturbConfig(gps_shift=1.0, dropout_rate=0.05, seed=0),
    )
    with pytest.raises(TopologyError, match="root-to-leaf paths"):
        enumerate_paths(scene.hd)
    assoc = hmm_associate(scene)
    assert assoc.labels == scene.gt.labels
    assert assoc.meta == {"method": "hmm"}


def test_hmm_lane_graph_cycle_raises():
    sd = SdGraph(roads=(road(0, 0.0),), edges=())
    hd = HdGraph(
        centerlines=(
            make_centerline(3, (0.0, 1.0), (4.0, 1.0)),
            make_centerline(5, (4.0, 1.0), (8.0, 1.0)),
            make_centerline(7, (8.0, 1.0), (9.0, 1.0)),
        ),
        edges=((3, 5), (5, 7), (7, 5)),
    )
    with pytest.raises(TopologyError, match="lane graph has a cycle through centerline 5"):
        hmm_associate(Scene(sd=sd, hd=hd))


def test_hmm_empty_lane_graph():
    sd = SdGraph(roads=(road(0, 0.0),), edges=())
    assoc = hmm_associate(Scene(sd=sd, hd=HdGraph(centerlines=(), edges=())))
    assert assoc.labels == {}
    assert assoc.meta == {"method": "hmm"}


# ---------------------------------------------------------------------------
# soft association matrix


def test_distance_assoc_matrix_shape_and_rows(grid42):
    amat = distance_assoc_matrix(grid42)
    assert amat.probs.dtype == np.float32
    assert amat.probs.shape == (len(amat.centerline_ids), len(amat.road_ids))
    assert amat.centerline_ids == tuple(sorted(amat.centerline_ids))
    assert amat.road_ids == tuple(sorted(amat.road_ids))
    np.testing.assert_allclose(amat.probs.sum(axis=1), 1.0, atol=1e-6)


def test_distance_assoc_matrix_argmax_matches_knn(grid42):
    amat = distance_assoc_matrix(grid42)
    assert amat.argmax_association().labels == knn_associate(grid42).labels

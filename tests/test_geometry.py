"""Core map model: vectors, resampling, path enumeration, distances."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapassoc import geometry
from mapassoc.errors import InvalidGeometryError, TopologyError, ValidationError
from mapassoc.geometry import (
    Association,
    Boundary,
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    enumerate_paths,
    full_angle,
    point_to_polyline_distance,
    point_to_road_distance,
    polyline_length,
    sample_polyline,
    validate_scene,
    vectorize_polyline,
)

from mapassoc.scenegen import GenConfig, PerturbConfig, generate_scene, perturb_scene

from conftest import make_centerline, tiny_scene
from oracles import longest_path_depths


# ---------------------------------------------------------------------------
# angles and vectors


def test_full_angle_convention():
    assert full_angle(1.0, 0.0) == 0.0
    assert full_angle(0.0, 1.0) == pytest.approx(math.pi / 2)
    assert full_angle(0.0, -1.0) == pytest.approx(-math.pi / 2)
    # +pi wraps to -pi so the range is [-pi, pi)
    assert full_angle(-1.0, 0.0) == -math.pi


def test_dirvec_from_points():
    v = DirVec.from_points(Point2(0.0, 0.0), Point2(1.0, 1.0))
    assert v.theta == pytest.approx(math.pi / 4)
    assert v.length == pytest.approx(math.sqrt(2))
    assert v.midpoint == Point2(0.5, 0.5)
    assert v.as_tuple() == (0.0, 0.0, 1.0, 1.0, v.theta)


def test_dirvec_rejects_degenerate():
    with pytest.raises(InvalidGeometryError):
        DirVec.from_points(Point2(1.0, 2.0), Point2(1.0, 2.0))


# ---------------------------------------------------------------------------
# resampling


def test_vectorize_axis_aligned_uniform_split():
    vs = vectorize_polyline([(0.0, 0.0), (2.0, 0.0)], spacing=1.0)
    assert [(v.p1, v.p2) for v in vs] == [
        (Point2(0.0, 0.0), Point2(1.0, 0.0)),
        (Point2(1.0, 0.0), Point2(2.0, 0.0)),
    ]
    assert all(v.theta == 0.0 for v in vs)


def test_vectorize_y_axis_symmetry():
    vs = vectorize_polyline([(0.0, 0.0), (0.0, 3.0)], spacing=1.5)
    assert len(vs) == 2
    assert all(v.theta == pytest.approx(math.pi / 2) for v in vs)


def test_vectorize_corner_preserved():
    # derived from the arc-length walk: the original vertex restarts sampling
    vs = vectorize_polyline([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)], spacing=1.0)
    assert [(v.p1, v.p2) for v in vs] == [
        (Point2(0.0, 0.0), Point2(1.0, 0.0)),
        (Point2(1.0, 0.0), Point2(1.0, 1.0)),
    ]


def test_vectorize_short_final_segment_kept():
    vs = vectorize_polyline([(0.0, 0.0), (2.5, 0.0)], spacing=1.0)
    assert [v.length for v in vs] == pytest.approx([1.0, 1.0, 0.5])


def test_vectorize_sub_epsilon_remainder_absorbed():
    vs = vectorize_polyline([(0.0, 0.0), (2.0 + 1e-9, 0.0)], spacing=1.0)
    assert len(vs) == 2
    assert sum(v.length for v in vs) == pytest.approx(2.0 + 1e-9, rel=1e-12)


def test_sample_polyline_rejects_bad_input():
    with pytest.raises(InvalidGeometryError):
        sample_polyline([(0.0, 0.0), (1.0, 0.0)], spacing=0.0)
    with pytest.raises(InvalidGeometryError):
        sample_polyline([(0.0, 0.0)], spacing=1.0)


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=32)


@st.composite
def polylines(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pts = [
        (draw(coord), draw(coord))
        for _ in range(n)
    ]
    # keep consecutive points well separated; sub-epsilon edges are a
    # documented carve-out (they are dropped), not part of this invariant
    out = [pts[0]]
    for p in pts[1:]:
        if math.dist(p, out[-1]) > 1e-2:
            out.append(p)
    if len(out) < 2:
        out.append((out[0][0] + 1.0, out[0][1]))
    return out


@given(polylines(), st.floats(min_value=0.3, max_value=10.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_vectorize_conserves_arc_length(points, spacing):
    vs = vectorize_polyline(points, spacing)
    total = polyline_length([Point2(*p) for p in points])
    assert sum(v.length for v in vs) == pytest.approx(total, rel=1e-9)


@given(polylines(), st.floats(min_value=0.3, max_value=10.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_vectorize_chains_and_stays_on_polyline(points, spacing):
    vs = vectorize_polyline(points, spacing)
    pts = [Point2(*p) for p in points]
    for a, b in zip(vs, vs[1:]):
        assert a.p2 == b.p1
    for v in vs:
        assert point_to_polyline_distance(v.p1, pts) < 1e-6
        assert point_to_polyline_distance(v.p2, pts) < 1e-6


@given(polylines(), st.floats(min_value=0.3, max_value=10.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_vector_endpoints_reproduce_samples_exactly(points, spacing):
    samples = sample_polyline(points, spacing)
    vs = vectorize_polyline(points, spacing)
    rebuilt = [vs[0].p1] + [v.p2 for v in vs]
    assert rebuilt == samples


# ---------------------------------------------------------------------------
# path enumeration


def chain_graph(*ids):
    cls = tuple(make_centerline(i, (float(k), 0.0), (float(k) + 1.0, 0.0)) for k, i in enumerate(ids))
    edges = tuple((a, b) for a, b in zip(ids, ids[1:]))
    return HdGraph(centerlines=cls, edges=edges)


def test_enumerate_chain():
    pidx = enumerate_paths(chain_graph(1, 2, 3))
    assert pidx.paths == ((1, 2, 3),)


def test_enumerate_fork():
    g = HdGraph(
        centerlines=(
            make_centerline(1, (0, 0), (1, 0)),
            make_centerline(2, (1, 0), (2, 1)),
            make_centerline(3, (1, 0), (2, -1)),
        ),
        edges=((1, 2), (1, 3)),
    )
    assert enumerate_paths(g).paths == ((1, 2), (1, 3))


def test_enumerate_diamond_duplicates_merge_node():
    g = HdGraph(
        centerlines=(
            make_centerline(1, (0, 0), (1, 0)),
            make_centerline(2, (1, 0), (2, 1)),
            make_centerline(3, (1, 0), (2, -1)),
            make_centerline(4, (2, 0), (3, 0)),
        ),
        edges=((1, 2), (1, 3), (2, 4), (3, 4)),
    )
    pidx = enumerate_paths(g)
    assert pidx.paths == ((1, 2, 4), (1, 3, 4))
    # the merge node appears twice in the flattened duplication map
    assert pidx.dup_map == (1, 2, 4, 1, 3, 4)
    assert pidx.dup_map.count(4) == 2


def test_enumerate_binary_tree_path_count():
    # full out-tree of depth d has 2^d root-to-leaf paths
    depth = 5
    cls = []
    edges = []
    next_id = 0
    frontier = []
    cls.append(make_centerline(0, (0, 0), (1, 0)))
    frontier.append(0)
    next_id = 1
    for level in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(2):
                cls.append(make_centerline(next_id, (level + 1, next_id), (level + 2, next_id)))
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    g = HdGraph(centerlines=tuple(cls), edges=tuple(edges))
    assert len(enumerate_paths(g).paths) == 2 ** depth


def test_enumerate_isolated_node_is_singleton_path():
    g = HdGraph(
        centerlines=(make_centerline(1, (0, 0), (1, 0)), make_centerline(7, (5, 5), (6, 5))),
        edges=(),
    )
    assert enumerate_paths(g).paths == ((1,), (7,))


def test_enumerate_rejects_cycle():
    g = SdGraph(
        roads=(
            Road(id=1, points=(Point2(0, 0), Point2(1, 0))),
            Road(id=2, points=(Point2(1, 0), Point2(2, 0))),
        ),
        edges=((1, 2), (2, 1)),
    )
    with pytest.raises(TopologyError):
        enumerate_paths(g)


def test_enumerate_path_cap():
    # 13 chained diamonds give 2^13 = 8192 paths, over the 4096 default cap
    cls = []
    edges = []
    nid = 0
    prev_tail = None
    for d in range(13):
        head, left, right, tail = nid, nid + 1, nid + 2, nid + 3
        for i in (head, left, right, tail):
            cls.append(make_centerline(i, (i, 0), (i + 0.5, 0)))
        edges += [(head, left), (head, right), (left, tail), (right, tail)]
        if prev_tail is not None:
            edges.append((prev_tail, head))
        prev_tail = tail
        nid += 4
    g = HdGraph(centerlines=tuple(cls), edges=tuple(edges))
    # each path passes 3 nodes of each of the 13 diamonds
    msg = r"lane graph has 8192 root-to-leaf paths \(319488 path tokens\), more than 4096"
    with pytest.raises(TopologyError, match=msg):
        enumerate_paths(g)


def test_path_index_total_tokens():
    pidx = enumerate_paths(chain_graph(1, 2, 3))
    assert pidx.total_tokens == 3


@st.composite
def dags(draw):
    """A random DAG on permuted ids: edges run forward in a hidden order."""
    n = draw(st.integers(min_value=0, max_value=10))
    ids = draw(st.lists(st.integers(min_value=-40, max_value=40), min_size=n, max_size=n, unique=True))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=18)) if pairs else []
    isolated = draw(st.lists(st.integers(min_value=41, max_value=60), max_size=3, unique=True))
    cls = [make_centerline(i, (float(i), 0.0), (float(i) + 1.0, 0.0)) for i in ids + isolated]
    edges = [(ids[i], ids[j]) for i, j in chosen]
    return HdGraph(centerlines=tuple(cls), edges=tuple(edges))


def reference_depths(graph) -> tuple:
    row = {i: k for k, i in enumerate(graph.node_ids)}
    tail = np.array([row[a] for a, _ in graph.edges], dtype=np.int64)
    head = np.array([row[b] for _, b in graph.edges], dtype=np.int64)
    return tuple(longest_path_depths(len(row), tail, head).tolist())


@given(dags())
@settings(max_examples=200, deadline=None)
def test_depths_match_relaxation_reference(g):
    assert g.depths == reference_depths(g)


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.integers(min_value=0, max_value=50),
    st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=25, deadline=None)
def test_depths_match_reference_on_generated_scenes(layout, seed, dropout):
    scene = perturb_scene(generate_scene(GenConfig(layout=layout, seed=seed)),
                          PerturbConfig(dropout_rate=dropout, seed=seed))
    assert scene.hd.depths == reference_depths(scene.hd)


def test_cycle_names_lowest_node_on_one():
    # 5 <-> 6 and 8 <-> 9 are cycles; 0 feeds one, 1 and 2 hang below them
    ids = (0, 1, 2, 5, 6, 8, 9)
    cls = tuple(make_centerline(i, (float(i), 0.0), (float(i) + 1.0, 0.0)) for i in ids)
    g = HdGraph(centerlines=cls, edges=((0, 5), (5, 6), (6, 5), (6, 1), (1, 2), (9, 8), (8, 9), (8, 2)))
    with pytest.raises(TopologyError, match=r"graph has a cycle through node 5$"):
        g.depths
    with pytest.raises(TopologyError, match=r"graph has a cycle through node 5$"):
        enumerate_paths(g)
    s = tiny_scene()
    with pytest.raises(TopologyError, match=r"lane graph has a cycle through centerline 5$"):
        validate_scene(Scene(sd=s.sd, hd=g, meta={}))


def fresh(g):
    return HdGraph(centerlines=g.centerlines, edges=g.edges, boundaries=g.boundaries)


@given(dags())
@settings(max_examples=100, deadline=None)
def test_path_guard_counts_before_enumerating(g):
    pidx = enumerate_paths(g)
    assert enumerate_paths(g) is pidx
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "MAX_PATHS", 0)
        if not pidx.paths:
            assert enumerate_paths(fresh(g)) == pidx
            return
        msg = f"lane graph has {len(pidx.paths)} root-to-leaf paths ({len(pidx.dup_map)} path tokens), more than 0"
        with pytest.raises(TopologyError, match=re.escape(msg)):
            enumerate_paths(fresh(g))


def test_road_graph_guard_names_the_road_graph(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_PATHS", 0)
    g = SdGraph(roads=(Road(id=1, points=(Point2(0, 0), Point2(1, 0))),), edges=())
    with pytest.raises(TopologyError, match=r"^road graph has 1 root-to-leaf paths \(1 path tokens\)"):
        enumerate_paths(g)


def test_cached_paths_leave_equality_alone():
    g = chain_graph(1, 2, 3)
    enumerate_paths(g)
    g.depths
    assert g == chain_graph(1, 2, 3)
    assert hash(g) == hash(chain_graph(1, 2, 3))


# ---------------------------------------------------------------------------
# distances


X_AXIS_ROAD = Road(id=1, points=(Point2(-5.0, 0.0), Point2(5.0, 0.0)))


def test_point_distance_perpendicular_drop():
    assert point_to_road_distance(Point2(0.0, 1.0), X_AXIS_ROAD) == pytest.approx(1.0)


def test_point_distance_membership():
    assert point_to_road_distance(Point2(2.0, 0.0), X_AXIS_ROAD) == 0.0


def test_point_distance_endpoint_clamp():
    # beyond the segment end the nearest point is the endpoint itself
    assert point_to_road_distance(Point2(6.0, 1.0), X_AXIS_ROAD) == pytest.approx(math.sqrt(2.0))


@given(
    st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_point_distance_lipschitz(px, py, qx, qy):
    p, q = Point2(px, py), Point2(qx, qy)
    dp = point_to_road_distance(p, X_AXIS_ROAD)
    dq = point_to_road_distance(q, X_AXIS_ROAD)
    assert abs(dp - dq) <= math.dist(p, q) + 1e-12
    assert dp >= 0.0


# ---------------------------------------------------------------------------
# graph and scene validation


def test_graphs_canonicalize_order():
    a = Road(id=2, points=(Point2(0, 0), Point2(1, 0)))
    b = Road(id=1, points=(Point2(0, 1), Point2(1, 1)))
    g1 = SdGraph(roads=(a, b), edges=((2, 1), (1, 2)))
    g2 = SdGraph(roads=(b, a), edges=((1, 2), (2, 1), (1, 2)))
    assert g1 == g2
    assert [r.id for r in g1.roads] == [1, 2]
    assert g1.edges == ((1, 2), (2, 1))


def test_graph_rejects_duplicate_ids():
    r = Road(id=1, points=(Point2(0, 0), Point2(1, 0)))
    with pytest.raises(ValidationError, match="duplicate road ids"):
        SdGraph(roads=(r, r), edges=())
    c = make_centerline(1, (0, 0), (1, 0))
    b = Boundary(id=1, points=(Point2(0, 0), Point2(1, 0)))
    # centerlines are checked before boundaries
    with pytest.raises(ValidationError, match="duplicate centerline ids"):
        HdGraph(centerlines=(c, c), edges=(), boundaries=(b, b))
    with pytest.raises(ValidationError, match="duplicate boundary ids"):
        HdGraph(centerlines=(c,), edges=(), boundaries=(b, b))


def test_graph_rejects_dangling_edge():
    r = Road(id=1, points=(Point2(0, 0), Point2(1, 0)))
    with pytest.raises(TopologyError, match="99"):
        SdGraph(roads=(r,), edges=((1, 99),))


def test_graph_rejects_self_loop():
    r = Road(id=1, points=(Point2(0, 0), Point2(1, 0)))
    with pytest.raises(TopologyError):
        SdGraph(roads=(r,), edges=((1, 1),))


def test_validate_scene_accepts_tiny():
    assert validate_scene(tiny_scene()) is not None


def test_validate_scene_gt_coverage():
    s = tiny_scene()
    bad = Scene(sd=s.sd, hd=s.hd, gt=Association(labels={0: 0}), meta={})
    with pytest.raises(Exception, match="cover"):
        validate_scene(bad)


def test_validate_scene_gt_unknown_road():
    s = tiny_scene()
    labels = dict(s.gt.labels)
    labels[0] = 123
    bad = Scene(sd=s.sd, hd=s.hd, gt=Association(labels=labels), meta={})
    with pytest.raises(ValidationError, match="123"):
        validate_scene(bad)


def test_validate_scene_rejects_lane_cycle():
    s = tiny_scene()
    hd = HdGraph(
        centerlines=s.hd.centerlines,
        edges=s.hd.edges + ((2, 0),),
        boundaries=s.hd.boundaries,
    )
    with pytest.raises(TopologyError):
        validate_scene(Scene(sd=s.sd, hd=hd, gt=s.gt, meta={}))


def test_validate_scene_rejects_nonfinite():
    r = Road(id=1, points=(Point2(0.0, 0.0), Point2(math.nan, 0.0)))
    c = make_centerline(0, (0, 0), (1, 0))
    scene = Scene(
        sd=SdGraph(roads=(r,), edges=()),
        hd=HdGraph(centerlines=(c,), edges=()),
        gt=Association(labels={0: 1}),
        meta={},
    )
    with pytest.raises(ValidationError, match="finite"):
        validate_scene(scene)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_scene_rejects_nonfinite_boundary(bad):
    s = tiny_scene()
    b = Boundary(id=9, points=(Point2(0.0, 0.0), Point2(bad, 1.0)))
    hd = HdGraph(centerlines=s.hd.centerlines, edges=s.hd.edges, boundaries=(b,))
    with pytest.raises(ValidationError, match="boundary 9 has non-finite point"):
        validate_scene(Scene(sd=s.sd, hd=hd, gt=s.gt, meta={}))


def test_validate_scene_crop_bounds():
    s = tiny_scene()
    meta = {"crop": {"sd": [5.0, 5.0]}}
    with pytest.raises(ValidationError):
        validate_scene(Scene(sd=s.sd, hd=s.hd, gt=s.gt, meta=meta))


def test_association_covers():
    s = tiny_scene()
    assert s.gt.covers(s.hd)
    assert not Association(labels={0: 0}).covers(s.hd)

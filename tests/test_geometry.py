"""Core map model: vectors, resampling, path enumeration, distances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import make_centerline, tiny_scene


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
    with pytest.raises(TopologyError):
        enumerate_paths(g)
    # raising the cap admits the same graph
    assert len(enumerate_paths(g, max_paths=10000).paths) == 2 ** 13


def test_path_index_total_tokens():
    pidx = enumerate_paths(chain_graph(1, 2, 3))
    assert pidx.total_tokens == 3


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
    with pytest.raises(ValidationError):
        SdGraph(roads=(r, r), edges=())


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

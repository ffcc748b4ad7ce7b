"""Core map model: vectors, resampling, path enumeration, distances."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mapassoc import geometry
from mapassoc import io as mio
from mapassoc.errors import InvalidGeometryError, TopologyError, ValidationError
from mapassoc.geometry import (
    Association,
    Boundary,
    Centerline,
    DirVec,
    HdGraph,
    PathIndex,
    Point2,
    Road,
    Scene,
    SdGraph,
    enumerate_paths,
    full_angle,
    polyline_length,
    sample_polyline,
    validate_scene,
    vectorize_polyline,
)

from mapassoc.scenegen import AugConfig, GenConfig, PerturbConfig, augment_scene, generate_scene, perturb_scene

from conftest import make_centerline, tiny_scene
from oracles import _polyline_dist_reference, longest_path_depths, paths_reference


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


def test_dirvec_holds_only_its_endpoints():
    assert [f.name for f in dataclasses.fields(DirVec)] == ["p1", "p2"]
    with pytest.raises(TypeError):
        DirVec(Point2(0.0, 0.0), Point2(1.0, 0.0), 0.3)


def _derived(v: DirVec) -> bool:
    """Whether `v.theta` has the bits of `full_angle` of its endpoints, in [-pi, pi)."""
    want = full_angle(v.p2.x - v.p1.x, v.p2.y - v.p1.y)
    return v.theta.hex() == want.hex() and -math.pi <= v.theta < math.pi


COORD = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@st.composite
def endpoint_pairs(draw):
    """Two distinct finite endpoints; one pair in four heads along -x."""
    p1 = Point2(draw(COORD), draw(COORD))
    if draw(st.integers(0, 3)):
        p2 = Point2(draw(COORD), draw(COORD))
    else:
        p2 = Point2(p1.x - draw(st.floats(1e-3, 1e3)), p1.y)
    assume(p2 != p1)
    return p1, p2


@given(st.lists(endpoint_pairs(), min_size=1, max_size=8))
@example(pairs=[(Point2(0.0, 0.0), Point2(-1.0, 0.0)), (Point2(2.0, 0.0), Point2(1.0, -0.0))])
@settings(max_examples=100, deadline=None)
def test_every_constructor_and_reader_derives_the_heading(pairs):
    made = [DirVec(p1, p2) for p1, p2 in pairs] + [DirVec.from_points(list(p1), tuple(p2)) for p1, p2 in pairs]
    scene = Scene(
        sd=SdGraph(roads=(Road(id=0, points=((0.0, 0.0), (1.0, 1.0))),), edges=()),
        hd=HdGraph(centerlines=tuple(Centerline(i, v) for i, v in enumerate(made[: len(pairs)])), edges=()),
    )
    doc = mio.scene_to_doc(scene)
    batch = mio._scene_in_batches(doc, {}, None, None)
    per_element = mio._scene_per_element(doc, {}, "scene")
    assert batch == per_element == scene
    made += [c.vector for s in (batch, per_element) for c in s.hd.centerlines]
    assert all(map(_derived, made))
    for v in made:
        if v.p2.y == v.p1.y and v.p2.x < v.p1.x:
            assert v.theta == -math.pi


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("layout", ["grid", "radial", "random-planar"])
def test_generated_perturbed_and_augmented_vectors_derive_the_heading(layout, seed):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    noisy = perturb_scene(
        scene, PerturbConfig(gps_shift=1.0, dropout_rate=0.1, jitter_sigma=0.2, oversegment_rate=0.3, seed=seed)
    )
    moved = augment_scene(noisy, AugConfig(rotate_p=1.0, flip_p=0.5, scale_range=(0.9, 1.1), seed=seed))
    for s in (scene, noisy, moved):
        vectors = [c.vector for c in s.hd.centerlines]
        vectors += [v for e in (*s.sd.roads, *s.hd.boundaries) for v in e.vectors]
        assert vectors and all(map(_derived, vectors))


@pytest.mark.parametrize("cls, noun", [(Road, "road"), (Boundary, "boundary")])
def test_polylines_check_their_points_and_name_their_kind(cls, noun):
    with pytest.raises(InvalidGeometryError, match=f"^{noun} 7: needs at least 2 points$"):
        cls(id=7, points=[(0.0, 0.0)])
    with pytest.raises(InvalidGeometryError, match=re.escape(f"{noun} 7: repeated point {Point2(1.0, 1.0)}")):
        cls(id=7, points=[(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)])
    line = cls(id=7, points=[[0, 0], [1, 0], [1, 2]])
    assert line.points == (Point2(0, 0), Point2(1, 0), Point2(1, 2)) and type(line.points[0]) is Point2
    assert [v.p2 for v in line.vectors] == list(line.points[1:])


def test_a_road_and_a_boundary_are_never_equal():
    pts = (Point2(0.0, 0.0), Point2(1.0, 0.0))
    assert Road(1, pts) == Road(1, pts) and Boundary(1, pts) == Boundary(1, pts)
    assert Road(1, pts) != Boundary(1, pts)
    assert len({Road(1, pts), Boundary(1, pts)}) == 2


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
    ends = np.array([p for v in vs for p in (v.p1, v.p2)], dtype=np.float64)
    assert (_polyline_dist_reference(ends, np.array(pts, dtype=np.float64)) < 1e-6).all()


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
    with pytest.raises(TopologyError, match=r"^lane graph has a cycle through centerline 5$"):
        g.depths
    with pytest.raises(TopologyError, match=r"^lane graph has a cycle through centerline 5$"):
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


@given(dags())
@example(HdGraph(centerlines=(), edges=()))
@settings(max_examples=200, deadline=None)
def test_flat_path_index_holds_the_tuple_view(g):
    pidx, rows = enumerate_paths(g), g.path_rows
    assert pidx.paths == paths_reference(g)
    flat = [n for p in pidx.paths for n in p]
    assert pidx.nodes.dtype == pidx.offsets.dtype == rows.nodes.dtype == np.int64
    assert pidx.nodes.tolist() == flat and pidx.dup_map == tuple(flat) and pidx.total_tokens == len(flat)
    assert pidx.offsets.tolist() == [0, *itertools.accumulate(map(len, pidx.paths))]
    assert rows.offsets.tolist() == pidx.offsets.tolist()
    assert [g.node_ids[r] for r in rows.nodes.tolist()] == flat
    assert not (pidx.nodes.flags.writeable or pidx.offsets.flags.writeable)
    # the index built from tuples holds the same arrays and compares equal
    built = PathIndex(paths=pidx.paths)
    assert built == pidx and hash(built) == hash(pidx)
    assert built.nodes.tolist() == flat and built.offsets.tolist() == pidx.offsets.tolist()


def test_path_index_is_immutable():
    pidx = enumerate_paths(chain_graph(1, 2, 3))
    with pytest.raises(AttributeError):
        pidx.nodes = np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError):
        pidx.nodes[0] = 7


def test_cached_paths_leave_equality_alone():
    g = chain_graph(1, 2, 3)
    enumerate_paths(g)
    g.depths
    assert g == chain_graph(1, 2, 3)
    assert hash(g) == hash(chain_graph(1, 2, 3))


def test_lengths_table_holds_each_centerline_length_once():
    hd = generate_scene(GenConfig(grid_rows=4, grid_cols=4, hd_extent=(75.0, 75.0), seed=0)).hd
    lengths = hd.lengths
    assert list(lengths) == [c.id for c in hd.centerlines]
    for c in hd.centerlines:
        assert lengths[c.id] == c.vector.length and type(lengths[c.id]) is float
    assert hd.lengths is lengths


# ---------------------------------------------------------------------------
# distances


X_AXIS_ROAD = Road(id=1, points=(Point2(-5.0, 0.0), Point2(5.0, 0.0)))


def x_axis_scene(*points) -> Scene:
    """The x-axis road and one unit centerline along x centred on each point, ids in point order."""
    cls = tuple(make_centerline(i, (x - 0.5, y), (x + 0.5, y)) for i, (x, y) in enumerate(points))
    return Scene(sd=SdGraph(roads=(X_AXIS_ROAD,), edges=()), hd=HdGraph(centerlines=cls, edges=()))


def test_point_distance_perpendicular_drop():
    assert x_axis_scene((0.0, 1.0)).road_distances[0, 0] == 1.0


def test_point_distance_membership():
    assert x_axis_scene((2.0, 0.0)).road_distances[0, 0] == 0.0


def test_point_distance_endpoint_clamp():
    # beyond the segment end the nearest point is the endpoint itself
    assert x_axis_scene((6.0, 1.0)).road_distances[0, 0] == pytest.approx(math.sqrt(2.0))


@given(
    st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20),
    st.floats(min_value=-20, max_value=20), st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=200, deadline=None)
def test_point_distance_lipschitz(px, py, qx, qy):
    scene = x_axis_scene((px, py), (qx, qy))
    dp, dq = scene.road_distances[:, 0]
    p, q = (c.vector.midpoint for c in scene.hd.centerlines)
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


def _noisy_scene(seed: int) -> Scene:
    noise = PerturbConfig(gps_shift=1.0, dropout_rate=0.1, jitter_sigma=0.2, oversegment_rate=0.3, seed=seed)
    return augment_scene(perturb_scene(generate_scene(GenConfig(layout="radial", seed=seed)), noise), AugConfig(seed=seed))


@pytest.mark.parametrize("seed", range(4))
def test_graphs_keep_canonical_input_as_given(seed):
    scene = _noisy_scene(seed)
    roads, sd_edges = tuple(list(scene.sd.roads)), tuple(list(scene.sd.edges))
    sd = SdGraph(roads=roads, edges=sd_edges)
    assert sd.roads is roads and sd.edges is sd_edges
    cls, bounds, hd_edges = (tuple(list(v)) for v in (scene.hd.centerlines, scene.hd.boundaries, scene.hd.edges))
    hd = HdGraph(centerlines=cls, edges=hd_edges, boundaries=bounds)
    assert hd.centerlines is cls and hd.boundaries is bounds and hd.edges is hd_edges
    assert (sd, hd) == (scene.sd, scene.hd)
    # a list is kept as a tuple
    assert type(SdGraph(roads=list(roads), edges=list(sd_edges)).roads) is tuple


@pytest.mark.parametrize("order", ["canonical", "shuffled elements", "unsorted edges", "repeated edges", "list edges"])
@pytest.mark.parametrize("seed", range(4))
def test_shuffled_repeated_and_canonical_input_give_equal_graphs(seed, order):
    scene = _noisy_scene(seed)
    rng = np.random.default_rng(seed)
    roads, cls, bounds = list(scene.sd.roads), list(scene.hd.centerlines), list(scene.hd.boundaries)
    sd_edges, hd_edges = list(scene.sd.edges), list(scene.hd.edges)
    if order == "shuffled elements":
        for elements in (roads, cls, bounds):
            rng.shuffle(elements)
    elif order in ("unsorted edges", "repeated edges"):
        for edges in (sd_edges, hd_edges):
            if order == "repeated edges":
                edges += edges[: len(edges) // 2 + 1]
            rng.shuffle(edges)
    elif order == "list edges":
        sd_edges, hd_edges = [list(e) for e in sd_edges], [list(e) for e in hd_edges]
    sd = SdGraph(roads=tuple(roads), edges=tuple(sd_edges))
    hd = HdGraph(centerlines=tuple(cls), edges=tuple(hd_edges), boundaries=tuple(bounds))
    assert (sd, hd) == (scene.sd, scene.hd)
    assert (sd.roads, sd.edges) == (scene.sd.roads, scene.sd.edges)
    assert (hd.centerlines, hd.edges, hd.boundaries) == (scene.hd.centerlines, scene.hd.edges, scene.hd.boundaries)
    assert all(type(e) is tuple and list(map(type, e)) == [int, int] for e in sd.edges + hd.edges)


def test_many_builders_equal_the_constructors():
    scene = _noisy_scene(0)
    roads, bounds, cls = scene.sd.roads, scene.hd.boundaries, scene.hd.centerlines
    as_lists = lambda elements: [[list(p) for p in e.points] for e in elements]
    assert Road.many([r.id for r in roads], as_lists(roads)) == list(roads)
    assert Boundary.many([b.id for b in bounds], as_lists(bounds)) == list(bounds)
    got = Centerline.many([c.id for c in cls], [list(c.vector.p1) for c in cls], [list(c.vector.p2) for c in cls])
    assert got == list(cls)
    assert all(type(p) is Point2 for c in got for p in (c.vector.p1, c.vector.p2))
    # one polyline's last point equal to the next one's first is no repeat
    chained = Road.many([1, 2], [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])
    assert [r.points for r in chained] == [(Point2(0.0, 0.0), Point2(1.0, 0.0)), (Point2(1.0, 0.0), Point2(2.0, 0.0))]
    assert all(type(p) is Point2 for r in chained for p in r.points)
    assert Road.many([], []) == [] and Centerline.many([], [], []) == []


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Road.many([1, 2], [[[0.0, 0.0], [1.0, 0.0]], [[5.0, 5.0]]]), "road 2: needs at least 2 points"),
        (lambda: Road.many([1], [[[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]]), "road 1: repeated point Point2(x=1.0, y=0.0)"),
        (lambda: Boundary.many([4], [[[0.0, -0.0], [-0.0, 0.0]]]), "boundary 4: repeated point Point2(x=0.0, y=-0.0)"),
        (lambda: Centerline.many([1, 2], [[0.0, 0.0], [3.0, 3.0]], [[1.0, 0.0], [3.0, 3.0]]),
         "degenerate vector at Point2(x=3.0, y=3.0)"),
    ],
    ids=["too few points", "repeated point", "repeated signed zeros", "zero-length vector"],
)
def test_many_builders_raise_the_constructors_message(build, message):
    with pytest.raises(InvalidGeometryError) as info:
        build()
    assert str(info.value) == message


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


@pytest.mark.parametrize(
    "crop, message",
    [
        ("ab", "meta.crop: expected an object, got 'ab'"),
        ({"hd": [1]}, "meta.crop.hd: expected [x, y] extents, got [1]"),
        ({"sd": [True, 2]}, "meta.crop.sd: expected [x, y] extents, got [True, 2]"),
        ({"sd": [5.0, math.inf]}, "meta.crop.sd: expected [x, y] extents, got [5.0, inf]"),
        ({"hd": (1.0, math.nan)}, "meta.crop.hd: expected [x, y] extents, got (1.0, nan)"),
    ],
)
def test_validate_scene_names_a_malformed_crop(crop, message):
    s = tiny_scene()
    with pytest.raises(ValidationError) as info:
        validate_scene(Scene(sd=s.sd, hd=s.hd, gt=s.gt, meta={"crop": crop}))
    assert str(info.value) == message


def test_association_covers():
    s = tiny_scene()
    assert s.gt.covers(s.hd)
    assert not Association(labels={0: 0}).covers(s.hd)

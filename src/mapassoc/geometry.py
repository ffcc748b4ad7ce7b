"""Geometric and topological primitives for two-layer road/lane maps.

A scene couples a coarse road graph (SD layer: polyline roads with directed
road-to-road connectivity) with a fine lane graph (HD layer: short directed
centerline vectors with lane-level connectivity, plus boundary polylines).
Coordinates are meters in an ego-centered frame; angles are radians in
[-pi, pi) under the atan2 convention with +pi wrapped to -pi.

All containers are frozen dataclasses and safe to share across workers.
Derived data (vectors of a polyline, adjacency maps) is computed once and
cached on the instance.

Public types
------------
Point2, DirVec, Road, Centerline, Boundary, SdGraph, HdGraph, Association,
Scene, PathIndex

Public operations
-----------------
vectorize_polyline : resample a polyline into chained direction vectors
enumerate_paths    : all root-to-leaf paths of a DAG, in lexicographic order
point_to_road_distance : Euclidean point-to-polyline distance
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (
    CoverageError,
    InvalidGeometryError,
    TopologyError,
    ValidationError,
)

__all__ = [
    "Point2",
    "DirVec",
    "Road",
    "Centerline",
    "Boundary",
    "SdGraph",
    "HdGraph",
    "Association",
    "Scene",
    "PathIndex",
    "full_angle",
    "sample_polyline",
    "vectorize_polyline",
    "polyline_length",
    "enumerate_paths",
    "point_to_segment_distance",
    "point_to_polyline_distance",
    "point_to_road_distance",
    "validate_scene",
    "MAX_PATHS",
    "MIN_SEGMENT",
]

# Pieces shorter than this are never emitted; the remainder folds into the
# previous piece so chains stay gap-free and total length is preserved.
MIN_SEGMENT = 1e-6

# Hard cap on enumerated root-to-leaf paths before aborting.
MAX_PATHS = 4096


class Point2(NamedTuple):
    """A 2D point in meters."""

    x: float
    y: float


def full_angle(dx: float, dy: float) -> float:
    """Full-range angle of (dx, dy) in [-pi, pi)."""
    a = math.atan2(dy, dx)
    return -math.pi if a == math.pi else a


@dataclass(frozen=True)
class DirVec:
    """A short directed vector: two endpoints plus the cached heading angle."""

    p1: Point2
    p2: Point2
    theta: float

    def __post_init__(self):
        if self.p1 == self.p2:
            raise InvalidGeometryError(f"degenerate vector at {self.p1}")

    @classmethod
    def from_points(cls, p1: Point2, p2: Point2) -> "DirVec":
        p1 = Point2(*p1)
        p2 = Point2(*p2)
        return cls(p1, p2, full_angle(p2.x - p1.x, p2.y - p1.y))

    @property
    def length(self) -> float:
        return math.hypot(self.p2.x - self.p1.x, self.p2.y - self.p1.y)

    @property
    def midpoint(self) -> Point2:
        return Point2((self.p1.x + self.p2.x) / 2.0, (self.p1.y + self.p2.y) / 2.0)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        """The 5-number form fed to the model: [p1x, p1y, p2x, p2y, theta]."""
        return (self.p1.x, self.p1.y, self.p2.x, self.p2.y, self.theta)


def _check_polyline(points: Sequence[Point2], what: str, ident) -> tuple[Point2, ...]:
    pts = tuple(Point2(*p) for p in points)
    if len(pts) < 2:
        raise InvalidGeometryError(f"{what} {ident}: needs at least 2 points")
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise InvalidGeometryError(f"{what} {ident}: repeated point {a}")
    return pts


@dataclass(frozen=True)
class Road(object):
    """An SD road: an ordered polyline with a stable integer id."""

    id: int
    points: tuple[Point2, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _check_polyline(self.points, "road", self.id))

    @cached_property
    def vectors(self) -> tuple[DirVec, ...]:
        """Chained vectors between consecutive points; v[i].p2 == v[i+1].p1."""
        return tuple(DirVec.from_points(a, b) for a, b in zip(self.points, self.points[1:]))

    @cached_property
    def length(self) -> float:
        return polyline_length(self.points)


@dataclass(frozen=True)
class Centerline:
    """One HD lane element: a single directed vector with a stable id."""

    id: int
    vector: DirVec


@dataclass(frozen=True)
class Boundary:
    """An HD lane-boundary polyline with a stable id."""

    id: int
    points: tuple[Point2, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _check_polyline(self.points, "boundary", self.id))

    @cached_property
    def vectors(self) -> tuple[DirVec, ...]:
        return tuple(DirVec.from_points(a, b) for a, b in zip(self.points, self.points[1:]))


def _check_edges(edges, ids: set, what: str) -> tuple[tuple[int, int], ...]:
    out = []
    for e in edges:
        a, b = int(e[0]), int(e[1])
        if a == b:
            raise TopologyError(f"{what} self-loop edge on id {a}")
        for node in (a, b):
            if node not in ids:
                raise TopologyError(f"{what} edge ({a}, {b}) references missing id {node}")
        out.append((a, b))
    return tuple(out)


@dataclass(frozen=True)
class SdGraph:
    """Road graph: roads plus directed road-to-road connectivity edges.

    Stored in canonical order (roads by id, edges sorted and deduplicated)
    so equal graphs compare equal regardless of construction order.
    """

    roads: tuple[Road, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "roads", tuple(sorted(self.roads, key=lambda r: r.id)))
        ids = [r.id for r in self.roads]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate road ids")
        edges = _check_edges(self.edges, set(ids), "road")
        object.__setattr__(self, "edges", tuple(sorted(set(edges))))

    @cached_property
    def by_id(self) -> dict:
        return {r.id: r for r in self.roads}

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(r.id for r in self.roads))

    @cached_property
    def successors(self) -> dict:
        succ = {i: [] for i in self.node_ids}
        for a, b in self.edges:
            succ[a].append(b)
        return {i: tuple(sorted(set(s))) for i, s in succ.items()}


@dataclass(frozen=True)
class HdGraph:
    """Lane graph: centerline vectors, lane connectivity, boundary polylines.

    Stored in canonical order (elements by id, edges sorted and
    deduplicated) so equal graphs compare equal regardless of
    construction order.
    """

    centerlines: tuple[Centerline, ...]
    edges: tuple[tuple[int, int], ...]
    boundaries: tuple[Boundary, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "centerlines", tuple(sorted(self.centerlines, key=lambda c: c.id)))
        object.__setattr__(self, "boundaries", tuple(sorted(self.boundaries, key=lambda b: b.id)))
        ids = [c.id for c in self.centerlines]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate centerline ids")
        bids = [b.id for b in self.boundaries]
        if len(set(bids)) != len(bids):
            raise ValidationError("duplicate boundary ids")
        edges = _check_edges(self.edges, set(ids), "centerline")
        object.__setattr__(self, "edges", tuple(sorted(set(edges))))

    @cached_property
    def by_id(self) -> dict:
        return {c.id: c for c in self.centerlines}

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(c.id for c in self.centerlines))

    @cached_property
    def successors(self) -> dict:
        succ = {i: [] for i in self.node_ids}
        for a, b in self.edges:
            succ[a].append(b)
        return {i: tuple(sorted(set(s))) for i, s in succ.items()}


@dataclass(frozen=True)
class Association:
    """A many-to-one lane-to-road assignment: centerline id -> road id.

    `meta` carries decode bookkeeping (fallback flags and the like) and is
    excluded from equality.
    """

    labels: dict
    meta: dict = field(default_factory=dict, compare=False)

    def __getitem__(self, cl_id: int) -> int:
        return self.labels[cl_id]

    def covers(self, hd: "HdGraph") -> bool:
        return all(c.id in self.labels for c in hd.centerlines)


@dataclass(frozen=True)
class Scene:
    """One ego-centered crop: SD layer, HD layer, optional gt association."""

    sd: SdGraph
    hd: HdGraph
    gt: Union[Association, None] = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PathIndex:
    """Root-to-leaf paths of a DAG plus the flattened duplication map.

    `paths` holds ordered node-id sequences in lexicographic order.
    `dup_map[k]` is the originating node id of the k-th path token when all
    paths are concatenated, which is what token duplication consumes.
    """

    paths: tuple[tuple[int, ...], ...]
    dup_map: tuple[int, ...]

    @property
    def total_tokens(self) -> int:
        return len(self.dup_map)


# ---------------------------------------------------------------------------
# polyline resampling


def polyline_length(points: Sequence[Point2]) -> float:
    return sum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(points, points[1:]))


def _dedupe(points: Sequence[Point2]) -> list[Point2]:
    # collapse consecutive points closer than MIN_SEGMENT
    out = [Point2(*points[0])]
    for p in points[1:]:
        p = Point2(*p)
        if math.hypot(p.x - out[-1].x, p.y - out[-1].y) >= MIN_SEGMENT:
            out.append(p)
    return out


def sample_polyline(points: Sequence[Point2], spacing: float) -> list[Point2]:
    """Resample a polyline at arc-length steps of `spacing`.

    Sampling restarts at every original vertex so samples always lie on the
    polyline; each edge contributes floor(len/spacing) full steps plus a
    shorter final step (absorbed into the last full step when it would fall
    under MIN_SEGMENT). Original vertices are reproduced exactly, so chained
    consumers see bitwise-equal shared endpoints.
    """
    if spacing <= 0.0:
        raise InvalidGeometryError(f"spacing must be positive, got {spacing}")
    if len(points) < 2:
        raise InvalidGeometryError("polyline needs at least 2 points")
    pts = _dedupe(points)
    if len(pts) < 2:
        raise InvalidGeometryError("degenerate polyline: total length is zero")
    samples = [pts[0]]
    for a, b in zip(pts, pts[1:]):
        seg_len = math.hypot(b.x - a.x, b.y - a.y)
        n_full = int(seg_len // spacing)
        remainder = seg_len - n_full * spacing
        pieces = n_full if remainder < MIN_SEGMENT else n_full + 1
        pieces = max(pieces, 1)
        for i in range(1, pieces):
            t = (i * spacing) / seg_len
            samples.append(Point2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        samples.append(b)
    return samples


def vectorize_polyline(points: Sequence[Point2], spacing: float) -> list[DirVec]:
    """Resample a polyline into chained DirVecs (see sample_polyline)."""
    samples = sample_polyline(points, spacing)
    return [DirVec.from_points(a, b) for a, b in zip(samples, samples[1:])]


# ---------------------------------------------------------------------------
# path enumeration


def _graph_view(graph) -> tuple[tuple[int, ...], dict]:
    if isinstance(graph, (SdGraph, HdGraph)):
        return graph.node_ids, graph.successors
    raise TypeError(f"expected SdGraph or HdGraph, got {type(graph).__name__}")


def _find_cycle_node(node_ids, successors) -> Union[int, None]:
    # Kahn peel; any node left with nonzero in-degree sits on a cycle.
    indeg = {i: 0 for i in node_ids}
    for i in node_ids:
        for j in successors[i]:
            indeg[j] += 1
    queue = [i for i in node_ids if indeg[i] == 0]
    seen = 0
    while queue:
        i = queue.pop()
        seen += 1
        for j in successors[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if seen == len(node_ids):
        return None
    return min(i for i in node_ids if indeg[i] > 0)


def enumerate_paths(graph, max_paths: int = MAX_PATHS) -> PathIndex:
    """All maximal root-to-leaf paths of a DAG, lexicographically ordered.

    Roots are nodes with in-degree 0, leaves nodes with out-degree 0;
    isolated nodes yield singleton paths, so every node appears on at least
    one path. Raises TopologyError on a cycle (naming one node on it) or when
    the path count would exceed `max_paths`.
    """
    node_ids, successors = _graph_view(graph)
    if not node_ids:
        return PathIndex(paths=(), dup_map=())
    cyc = _find_cycle_node(node_ids, successors)
    if cyc is not None:
        raise TopologyError(f"graph has a cycle through node {cyc}")
    indeg = {i: 0 for i in node_ids}
    for i in node_ids:
        for j in successors[i]:
            indeg[j] += 1
    roots = [i for i in node_ids if indeg[i] == 0]

    paths: list[tuple[int, ...]] = []
    # Iterative DFS; visiting successors in ascending id order emits leaves in
    # lexicographic path order.
    for root in roots:
        stack = [(root, iter(successors[root]))]
        trail = [root]
        if not successors[root]:
            paths.append((root,))
            if len(paths) > max_paths:
                raise TopologyError(f"more than {max_paths} root-to-leaf paths")
            continue
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                stack.pop()
                trail.pop()
                continue
            trail.append(nxt)
            if successors[nxt]:
                stack.append((nxt, iter(successors[nxt])))
            else:
                paths.append(tuple(trail))
                if len(paths) > max_paths:
                    raise TopologyError(f"more than {max_paths} root-to-leaf paths")
                trail.pop()
    dup = tuple(n for p in paths for n in p)
    return PathIndex(paths=tuple(paths), dup_map=dup)


# ---------------------------------------------------------------------------
# distances


def point_to_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    px, py = p[0], p[1]
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_to_polyline_distance(p: Point2, points: Sequence[Point2]) -> float:
    if len(points) < 2:
        raise InvalidGeometryError("polyline needs at least 2 points")
    return min(point_to_segment_distance(p, a, b) for a, b in zip(points, points[1:]))


def point_to_road_distance(p: Point2, road: Road) -> float:
    """Euclidean distance from a point to the road polyline (endpoint-clamped)."""
    return point_to_polyline_distance(p, road.points)


# ---------------------------------------------------------------------------
# whole-scene validation


def _check_crop(points: Iterable[Point2], half: Sequence[float], what: str):
    ex, ey = float(half[0]), float(half[1])
    eps = 1e-6
    for p in points:
        if abs(p[0]) > ex + eps or abs(p[1]) > ey + eps:
            raise ValidationError(f"{what} point {tuple(p)} outside crop extents ({ex}, {ey})")


def validate_scene(scene: Scene) -> Scene:
    """Check every structural invariant; return the scene unchanged.

    Graph-local invariants (unique ids, edge references, chaining) are already
    enforced by the constructors; this adds the DAG requirement on the lane
    graph, gt coverage, finiteness, and the declared crop extents in meta.
    """
    for road in scene.sd.roads:
        for p in road.points:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValidationError(f"road {road.id} has non-finite point {tuple(p)}")
    for c in scene.hd.centerlines:
        for p in (c.vector.p1, c.vector.p2):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValidationError(f"centerline {c.id} has non-finite point {tuple(p)}")
    for b in scene.hd.boundaries:
        for p in b.points:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValidationError(f"boundary {b.id} has non-finite point {tuple(p)}")
    cyc = _find_cycle_node(scene.hd.node_ids, scene.hd.successors)
    if cyc is not None:
        raise TopologyError(f"lane graph has a cycle through centerline {cyc}")
    if scene.gt is not None:
        road_ids = set(scene.sd.node_ids)
        for c in scene.hd.centerlines:
            if c.id not in scene.gt.labels:
                raise CoverageError(f"gt does not cover centerline {c.id}")
        for cl_id, road_id in scene.gt.labels.items():
            if cl_id not in scene.hd.by_id:
                raise ValidationError(f"gt references missing centerline {cl_id}")
            if road_id not in road_ids:
                raise ValidationError(f"gt maps centerline {cl_id} to missing road {road_id}")
    crop = scene.meta.get("crop")
    if crop:
        if "sd" in crop:
            for road in scene.sd.roads:
                _check_crop(road.points, crop["sd"], f"road {road.id}")
        if "hd" in crop:
            for c in scene.hd.centerlines:
                _check_crop((c.vector.p1, c.vector.p2), crop["hd"], f"centerline {c.id}")
            for b in scene.hd.boundaries:
                _check_crop(b.points, crop["hd"], f"boundary {b.id}")
    return scene

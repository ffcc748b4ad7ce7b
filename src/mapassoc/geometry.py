"""Geometric and topological primitives for two-layer road/lane maps.

A scene couples a coarse road graph (SD layer: polyline roads with directed
road-to-road connectivity) with a fine lane graph (HD layer: short directed
centerline vectors with lane-level connectivity, plus boundary polylines).
Coordinates are meters in an ego-centered frame; angles are radians in
[-pi, pi) under the atan2 convention with +pi wrapped to -pi.

All containers are frozen dataclasses and safe to share across workers.
Derived data (vectors of a polyline, adjacency maps) is computed once and
cached on the instance. Each road and lane graph owns its DAG facts: one
Kahn peel gives its longest-path `depths` and finds cycles, and `paths` is
its PathIndex, counted before it is enumerated and built once per graph. A
reader that has checked a whole scene in bulk builds its objects with
`_trusted`, which skips the constructor checks.

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
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from operator import eq, setitem
from typing import NamedTuple, Sequence, Union

from .errors import (
    CoverageError,
    InvalidGeometryError,
    TopologyError,
    ValidationError,
)
from .fields import fits

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
    "crop_extents",
    "MAX_PATHS",
    "MIN_SEGMENT",
]

# Pieces shorter than this are never emitted; the remainder folds into the
# previous piece so chains stay gap-free and total length is preserved.
MIN_SEGMENT = 1e-6

# Most root-to-leaf paths a graph may have; checked before any is built.
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
        if type(p1) is not Point2:
            p1 = Point2(*p1)
        if type(p2) is not Point2:
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
    pts = tuple(points)
    if not set(map(type, pts)) <= {Point2}:
        pts = tuple(Point2(*p) for p in pts)
    if len(pts) < 2:
        raise InvalidGeometryError(f"{what} {ident}: needs at least 2 points")
    if True in map(eq, pts, pts[1:]):
        a = next(a for a, b in zip(pts, pts[1:]) if a == b)
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


_point2 = partial(tuple.__new__, Point2)  # Point2 from a checked [x, y] pair, unconverted


def _trusted(cls, *columns) -> list:
    """`cls` instances from one column of values per field, unchecked.

    The frozen dataclass `__init__`/`__post_init__` does not run, so nothing
    is checked, converted or sorted: the caller must already have checked
    every invariant the constructor enforces and pass canonical values
    (`Point2` points, element tuples sorted by id, sorted unique edges). The
    instances are indistinguishable from constructed ones; pickle restores
    a dataclass the same way. Each field is set for every instance in one
    C-level pass.
    """
    objs = list(map(object.__new__, repeat(cls, len(columns[0]))))
    attrs = list(map(vars, objs))
    for name, column in zip(cls.__dataclass_fields__, columns):
        list(map(setitem, attrs, repeat(name), column))
    return objs


class _Dag:
    """Canonical form and DAG facts shared by SdGraph and HdGraph.

    A subclass is a frozen dataclass with an `edges` field. `_ELEMENTS` lists
    its fields of id-keyed elements with the noun its messages use, the
    graph's nodes first; `_LAYER` names the graph in messages. Construction
    sorts every element field by id and the edges, drops duplicate edges and
    rejects duplicate ids, self-loops and edges to missing nodes, so equal
    graphs compare equal regardless of construction order. The DAG facts are
    computed on first use and cached on the instance.
    """

    def __post_init__(self):
        for name, what in self._ELEMENTS:
            elements = tuple(sorted(getattr(self, name), key=lambda e: e.id))
            object.__setattr__(self, name, elements)
            if len({e.id for e in elements}) != len(elements):
                raise ValidationError(f"duplicate {what} ids")
        name, what = self._ELEMENTS[0]
        ids = {n.id for n in getattr(self, name)}
        edges = set()
        for e in self.edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise TopologyError(f"{what} self-loop edge on id {a}")
            for node in (a, b):
                if node not in ids:
                    raise TopologyError(f"{what} edge ({a}, {b}) references missing id {node}")
            edges.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(edges)))

    @cached_property
    def by_id(self) -> dict:
        return {n.id: n for n in getattr(self, self._ELEMENTS[0][0])}

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(self.by_id)

    @cached_property
    def successors(self) -> dict:
        """Successor ids of every node, ascending (the edges are sorted)."""
        succ = {i: [] for i in self.node_ids}
        for a, b in self.edges:
            succ[a].append(b)
        return {i: tuple(s) for i, s in succ.items()}

    @cached_property
    def _peel(self) -> tuple[tuple[int, ...], Union[int, None]]:
        # One Kahn peel: longest-path depths, and the lowest node on a cycle
        # (None on a DAG). `order` is a FIFO queue that grows while it is
        # walked, so it visits nodes level by level and the predecessor that
        # frees a node is one of its deepest.
        succ = self.successors
        indeg = dict.fromkeys(self.node_ids, 0)
        for _, b in self.edges:
            indeg[b] += 1
        depth = dict.fromkeys(self.node_ids, 0)
        order = [i for i, d in indeg.items() if d == 0]
        for i in order:
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    depth[j] = depth[i] + 1
                    order.append(j)
        if len(order) == len(indeg):
            return tuple(depth.values()), None
        # every node left has a predecessor left, so a cycle remains; name the
        # lowest node that reaches itself, not one merely downstream of a cycle
        rest = set(indeg).difference(order)

        def on_cycle(v):
            seen, stack = set(), [v]
            while stack:
                for w in succ[stack.pop()]:
                    if w == v:
                        return True
                    if w in rest and w not in seen:
                        seen.add(w)
                        stack.append(w)
            return False

        return (), next(v for v in sorted(rest) if on_cycle(v))

    @property
    def depths(self) -> tuple[int, ...]:
        """Longest-path depth of every node, in `node_ids` order.

        Roots (in-degree 0) have depth 0, any other node 1 + the largest
        depth among its predecessors. Raises TopologyError on a cycle,
        naming the lowest node on one.
        """
        depths, cyc = self._peel
        if cyc is not None:
            raise TopologyError(f"{self._LAYER} graph has a cycle through node {cyc}")
        return depths

    @cached_property
    def paths(self) -> PathIndex:
        """All root-to-leaf paths, lexicographically ordered (see enumerate_paths).

        The paths and path tokens are counted in one pass over the nodes,
        deepest first, before any path is built; more than MAX_PATHS paths
        raises TopologyError naming both counts.
        """
        succ = self.successors
        depth = dict(zip(self.node_ids, self.depths))
        count, tokens = {}, {}  # paths from a node to a leaf, and their nodes
        for v in sorted(depth, key=depth.__getitem__, reverse=True):
            count[v] = sum(count[w] for w in succ[v]) or 1
            tokens[v] = count[v] + sum(tokens[w] for w in succ[v])
        roots = [v for v, d in depth.items() if d == 0]
        n_paths = sum(count[r] for r in roots)
        if n_paths > MAX_PATHS:
            raise TopologyError(
                f"{self._LAYER} graph has {n_paths} root-to-leaf paths "
                f"({sum(tokens[r] for r in roots)} path tokens), more than {MAX_PATHS}"
            )
        paths: list[tuple[int, ...]] = []
        # Iterative DFS; visiting successors in ascending id order emits leaves
        # in lexicographic path order.
        for root in roots:
            trail, stack = [root], [iter(succ[root])]
            while stack:
                nxt = next(stack[-1], None)
                if nxt is None:
                    if not succ[trail[-1]]:
                        paths.append(tuple(trail))
                    stack.pop()
                    trail.pop()
                else:
                    trail.append(nxt)
                    stack.append(iter(succ[nxt]))
        return PathIndex(paths=tuple(paths))


@dataclass(frozen=True)
class SdGraph(_Dag):
    """Road graph: roads plus directed road-to-road connectivity edges."""

    roads: tuple[Road, ...]
    edges: tuple[tuple[int, int], ...]

    _ELEMENTS = (("roads", "road"),)
    _LAYER = "road"


@dataclass(frozen=True)
class HdGraph(_Dag):
    """Lane graph: centerline vectors, lane connectivity, boundary polylines.

    The centerlines are the nodes; boundaries are sorted and id-checked but
    take no part in the DAG.
    """

    centerlines: tuple[Centerline, ...]
    edges: tuple[tuple[int, int], ...]
    boundaries: tuple[Boundary, ...] = ()

    _ELEMENTS = (("centerlines", "centerline"), ("boundaries", "boundary"))
    _LAYER = "lane"

    @cached_property
    def lengths(self) -> dict:
        """Vector length of every centerline, by id, computed once per graph."""
        return {c.id: c.vector.length for c in self.centerlines}


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
    """Root-to-leaf paths of a DAG; `paths` holds node-id sequences in lexicographic order."""

    paths: tuple[tuple[int, ...], ...]

    @cached_property
    def dup_map(self) -> tuple[int, ...]:
        """The originating node id of each path token, all paths concatenated."""
        return tuple(n for p in self.paths for n in p)

    @property
    def total_tokens(self) -> int:
        return sum(map(len, self.paths))


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


def enumerate_paths(graph) -> PathIndex:
    """All maximal root-to-leaf paths of a DAG, lexicographically ordered.

    Roots are nodes with in-degree 0, leaves nodes with out-degree 0;
    isolated nodes yield singleton paths, so every node appears on at least
    one path. Returns the graph's cached `paths`, so each graph is
    enumerated once. Raises TopologyError on a cycle (naming the lowest node
    on one) or, before any path is built, when the graph has more than
    MAX_PATHS paths.
    """
    return graph.paths


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


# Slack on the declared crop extents, for points written at the boundary.
CROP_SLACK = 1e-6


def crop_extents(meta: dict) -> tuple:
    """The (sd, hd) crop half-extents `meta` declares, each (ex, ey) floats or None.

    `meta["crop"]`, when present, must be an object; its optional "sd" and
    "hd" entries must be [x, y] pairs of finite, non-negative numbers (not
    bools). Anything else raises ValidationError naming the field.
    """
    if "crop" not in meta:
        return None, None
    crop = meta["crop"]
    if not isinstance(crop, dict):
        raise ValidationError(f"meta.crop: expected an object, got {crop!r}")
    out = []
    for key in ("sd", "hd"):
        half = crop.get(key)
        if key in crop and not (fits(half, tuple[float, float]) and all(0 <= v <= sys.float_info.max for v in half)):
            raise ValidationError(f"meta.crop.{key}: expected [x, y] extents, got {half!r}")
        out.append(None if half is None else (float(half[0]), float(half[1])))
    return tuple(out)


def _coords_within(coords: list, half=None) -> bool:
    """Whether every coordinate is finite and, given half-extents, inside the crop.

    `coords` is flat, [x0, y0, x1, y1, ...]; `half` is (ex, ey) or None, and a
    point is inside when |x| <= ex + CROP_SLACK and |y| <= ey + CROP_SLACK.
    Both checks are reductions over the whole list. A sum that overflows
    reads as a failure, so a True answer is exact and a False one may need a
    per-point look to name the culprit.
    """
    if not coords:
        return True
    if not math.isfinite(sum(coords)):
        return False
    if half is None:
        return True
    xs, ys = coords[0::2], coords[1::2]
    ex, ey = half[0] + CROP_SLACK, half[1] + CROP_SLACK
    return -ex <= min(xs) and max(xs) <= ex and -ey <= min(ys) and max(ys) <= ey


def _check_points(what: str, owners: Sequence, half=None) -> None:
    """Raise at the first point of `owners`, (id, points) pairs, that fails `_coords_within`."""
    if _coords_within(list(chain.from_iterable(chain.from_iterable(pts for _, pts in owners))), half):
        return
    for ident, pts in owners:
        for p in pts:
            if not (math.isfinite(p[0]) and math.isfinite(p[1])):
                raise ValidationError(f"{what} {ident} has non-finite point {tuple(p)}")
            if half is not None and not _coords_within([p[0], p[1]], half):
                raise ValidationError(f"{what} {ident} point {tuple(p)} outside crop extents ({half[0]}, {half[1]})")


def validate_scene(scene: Scene) -> Scene:
    """Check every structural invariant; return the scene unchanged.

    Graph-local invariants (unique ids, edge references, chaining) are already
    enforced by the constructors; this adds, in this order, finiteness, the
    DAG requirement on the lane graph, gt coverage, and the crop extents
    declared in meta (see crop_extents).
    """
    roads = [(r.id, r.points) for r in scene.sd.roads]
    cls = [(c.id, (c.vector.p1, c.vector.p2)) for c in scene.hd.centerlines]
    bounds = [(b.id, b.points) for b in scene.hd.boundaries]
    for what, owners in (("road", roads), ("centerline", cls), ("boundary", bounds)):
        _check_points(what, owners)
    cyc = scene.hd._peel[1]
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
    sd_half, hd_half = crop_extents(scene.meta)
    if sd_half is not None:
        _check_points("road", roads, sd_half)
    if hd_half is not None:
        _check_points("centerline", cls, hd_half)
        _check_points("boundary", bounds, hd_half)
    return scene

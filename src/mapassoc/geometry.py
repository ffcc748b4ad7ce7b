"""Geometric and topological primitives for two-layer road/lane maps.

A scene couples a coarse road graph (SD layer: polyline roads with directed
road-to-road connectivity) with a fine lane graph (HD layer: short directed
centerline vectors with lane-level connectivity, plus boundary polylines).
Coordinates are meters in an ego-centered frame; angles are radians in
[-pi, pi) under the atan2 convention with +pi wrapped to -pi.

Elements hold only the values that define them. A vector's heading is
derived from its endpoints by `DirVec.theta` and is not stored; roads and
boundaries share one polyline type that owns their checks.

All containers are frozen dataclasses and safe to share across workers.
Derived data (vectors of a polyline, adjacency maps, a scene's
`road_distances`) is computed once and cached on the instance, so every
consumer reads the same values. Each road and lane graph owns its DAG facts:
one Kahn peel gives its longest-path `depths` and finds cycles, and one DFS
per graph, run after the paths are counted, builds `path_rows`, its flat
PathIndex over node rows; `paths` is the same index over node ids.
This module owns every element and graph rule: the `many` builders check a
whole list of elements in one pass, and a graph keeps canonical input as given.

Public types
------------
Point2, DirVec, Road, Centerline, Boundary, SdGraph, HdGraph, Association,
Scene, PathIndex

Public operations
-----------------
vectorize_polyline : resample a polyline into chained direction vectors
enumerate_paths    : all root-to-leaf paths of a DAG, in lexicographic order
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, chain, repeat
from operator import attrgetter, eq, ge, setitem
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    CoverageError,
    InvalidGeometryError,
    LabelError,
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
    """A short directed vector, defined by its two endpoints; its heading
    `theta` is derived from them on each read, never stored."""

    p1: Point2
    p2: Point2

    def __post_init__(self):
        if self.p1 == self.p2:
            raise InvalidGeometryError(f"degenerate vector at {self.p1}")

    @classmethod
    def from_points(cls, p1: Point2, p2: Point2) -> "DirVec":
        if type(p1) is not Point2:
            p1 = Point2(*p1)
        if type(p2) is not Point2:
            p2 = Point2(*p2)
        return cls(p1, p2)

    @property
    def theta(self) -> float:
        """Heading of p1 -> p2 in [-pi, pi) (see full_angle)."""
        return full_angle(self.p2.x - self.p1.x, self.p2.y - self.p1.y)

    @property
    def length(self) -> float:
        return math.hypot(self.p2.x - self.p1.x, self.p2.y - self.p1.y)

    @property
    def midpoint(self) -> Point2:
        return Point2((self.p1.x + self.p2.x) / 2.0, (self.p1.y + self.p2.y) / 2.0)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        """The 5-number form fed to the model: [p1x, p1y, p2x, p2y, theta]."""
        return (self.p1.x, self.p1.y, self.p2.x, self.p2.y, self.theta)


@dataclass(frozen=True)
class _Polyline:
    """An id plus an ordered polyline of at least 2 points, none repeated
    back to back; `_NOUN` names the element kind in messages."""

    id: int
    points: tuple[Point2, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not set(map(type, pts)) <= {Point2}:
            pts = tuple(Point2(*p) for p in pts)
        if len(pts) < 2:
            raise InvalidGeometryError(f"{self._NOUN} {self.id}: needs at least 2 points")
        if True in map(eq, pts, pts[1:]):
            a = next(a for a, b in zip(pts, pts[1:]) if a == b)
            raise InvalidGeometryError(f"{self._NOUN} {self.id}: repeated point {a}")
        object.__setattr__(self, "points", pts)

    @classmethod
    def many(cls, ids: Sequence[int], point_lists: Sequence[Sequence]) -> list:
        """One `cls` per id from its list of [x, y] pairs, checked in one pass
        and built unchecked; input that fails goes through the constructor."""
        if min(map(len, point_lists), default=2) >= 2:
            pts = tuple(map(_point2, chain.from_iterable(point_lists)))
            ends = list(accumulate(map(len, point_lists)))
            same = list(map(eq, pts, pts[1:]))
            for end in ends[:-1]:
                same[end - 1] = False  # the first point of the next polyline
            if True not in same:
                return _trusted(cls, ids, list(map(pts.__getitem__, map(slice, [0, *ends[:-1]], ends))))
        return list(map(cls, ids, point_lists))  # raises the first fault

    @cached_property
    def vectors(self) -> tuple[DirVec, ...]:
        """Chained vectors between consecutive points; v[i].p2 == v[i+1].p1."""
        return tuple(DirVec.from_points(a, b) for a, b in zip(self.points, self.points[1:]))


@dataclass(frozen=True)
class Road(_Polyline):
    """An SD road: an ordered polyline with a stable integer id."""

    _NOUN = "road"

    @cached_property
    def length(self) -> float:
        return polyline_length(self.points)


@dataclass(frozen=True)
class Centerline:
    """One HD lane element: a single directed vector with a stable id."""

    id: int
    vector: DirVec

    @classmethod
    def many(cls, ids: Sequence[int], p1s: Sequence, p2s: Sequence) -> list:
        """One Centerline per id from [x, y] endpoint pairs, built unchecked
        when no vector has zero length; otherwise `DirVec` raises the first fault."""
        p1s, p2s = list(map(_point2, p1s)), list(map(_point2, p2s))
        if True in map(eq, p1s, p2s):
            return list(map(cls, ids, map(DirVec, p1s, p2s)))
        return _trusted(cls, ids, _trusted(DirVec, p1s, p2s))


@dataclass(frozen=True)
class Boundary(_Polyline):
    """An HD lane-boundary polyline with a stable id."""

    _NOUN = "boundary"


_point2 = partial(tuple.__new__, Point2)  # Point2 from an [x, y] pair, unconverted
_ID = attrgetter("id")


def _trusted(cls, *columns) -> list:
    """`cls` instances from one column of values per field, unchecked.

    The frozen dataclass `__init__`/`__post_init__` does not run: the `many`
    builders call it on values that passed the constructor's checks. The
    instances are indistinguishable from constructed ones; pickle restores a
    dataclass the same way. Each field is set for every instance in one
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
    graphs compare equal regardless of construction order; input already in
    that form is kept as given. The DAG facts are computed on first use and cached.
    """

    def __post_init__(self):
        for name, _ in self._ELEMENTS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "edges", tuple(self.edges))
        if self._canonical():
            return
        for name, what in self._ELEMENTS:
            elements = tuple(sorted(getattr(self, name), key=_ID))
            object.__setattr__(self, name, elements)
            if len(set(map(_ID, elements))) != len(elements):
                raise ValidationError(f"duplicate {what} ids")
        name, what = self._ELEMENTS[0]
        ids = set(map(_ID, getattr(self, name)))
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

    def _canonical(self) -> bool:
        # int ids strictly ascending; edges strictly ascending (a, b) int tuples, a != b, of node ids
        ids = [list(map(_ID, getattr(self, name))) for name, _ in self._ELEMENTS]
        if not all(set(map(type, i)) <= {int} and True not in map(ge, i, i[1:]) for i in ids):
            return False
        edges = self.edges
        if not set(map(type, edges)) <= {tuple} or not set(map(len, edges)) <= {2}:
            return False
        ends = list(chain.from_iterable(edges))
        if not set(map(type, ends)) <= {int} or not set(ids[0]).issuperset(ends):
            return False
        return True not in map(eq, ends[0::2], ends[1::2]) and True not in map(ge, edges, edges[1:])

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
            raise TopologyError(f"{self._LAYER} graph has a cycle through {self._ELEMENTS[0][1]} {cyc}")
        return depths

    @cached_property
    def path_rows(self) -> PathIndex:
        """`paths` with each node given as its row in `node_ids`: the one DFS.

        The paths and path tokens are counted in one pass over the nodes,
        deepest first, before any path is built; more than MAX_PATHS paths
        raises TopologyError naming both counts. The DFS emits the flat
        arrays directly.
        """
        row = {v: i for i, v in enumerate(self.node_ids)}
        succ = [[row[w] for w in ws] for ws in self.successors.values()]
        depths = self.depths
        count, tokens = [0] * len(succ), [0] * len(succ)  # paths from a node to a leaf, and their nodes
        for v in sorted(range(len(succ)), key=depths.__getitem__, reverse=True):
            count[v] = sum(count[w] for w in succ[v]) or 1
            tokens[v] = count[v] + sum(tokens[w] for w in succ[v])
        roots = [v for v, d in enumerate(depths) if d == 0]
        n_paths = sum(count[r] for r in roots)
        if n_paths > MAX_PATHS:
            raise TopologyError(
                f"{self._LAYER} graph has {n_paths} root-to-leaf paths "
                f"({sum(tokens[r] for r in roots)} path tokens), more than {MAX_PATHS}"
            )
        nodes, ends = [], []
        # Iterative DFS; visiting successors in ascending id order emits leaves
        # in lexicographic path order.
        for root in roots:
            trail, stack = [root], [iter(succ[root])]
            while stack:
                nxt = next(stack[-1], None)
                if nxt is None:
                    if not succ[trail[-1]]:
                        nodes += trail
                        ends.append(len(nodes))
                    stack.pop()
                    trail.pop()
                else:
                    trail.append(nxt)
                    stack.append(iter(succ[nxt]))
        return PathIndex.from_flat(nodes, [0, *ends])

    @cached_property
    def paths(self) -> PathIndex:
        """All root-to-leaf paths, lexicographically ordered (see enumerate_paths)."""
        rows = self.path_rows
        return PathIndex.from_flat(np.asarray(self.node_ids)[rows.nodes], rows.offsets)


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

    @cached_property
    def road_distances(self) -> np.ndarray:
        """Distance from every centerline's midpoint to every road.

        A read-only float64 (n_centerlines, n_roads) array, rows in
        `hd.node_ids` order and columns in `sd.node_ids` order, computed once
        per scene. Raises LabelError when the scene has no roads.
        """
        return _road_distances(self.hd.centerlines, self.sd.roads)


class PathIndex:
    """Root-to-leaf paths of a DAG, held as two flat arrays.

    `nodes` is every path concatenated and path i is
    `nodes[offsets[i]:offsets[i + 1]]`; `offsets` has one entry more than
    there are paths. Both are read-only int64 arrays (`nodes` is an object
    array when a node id does not fit int64). A graph's index holds node ids
    in lexicographic path order, the transformer's token indices. `paths`,
    the same paths as a tuple of tuples, is derived from the arrays once, on
    first read. Two indexes are equal when they hold the same paths.
    """

    def __init__(self, paths=()):
        paths = tuple(map(tuple, paths))
        flat = _flat(list(chain.from_iterable(paths)), [0, *accumulate(map(len, paths))])
        self.__dict__.update(flat, paths=paths)

    @classmethod
    def from_flat(cls, nodes, offsets) -> "PathIndex":
        """The index over `nodes`, every path concatenated, split at `offsets`."""
        index = object.__new__(cls)
        index.__dict__.update(_flat(nodes, offsets))
        return index

    def __setattr__(self, name, value):
        raise AttributeError(f"PathIndex is immutable: cannot set {name!r}")

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        flat, ends = tuple(self.nodes.tolist()), self.offsets.tolist()
        return tuple(map(flat.__getitem__, map(slice, ends, ends[1:])))

    @cached_property
    def dup_map(self) -> tuple[int, ...]:
        """The originating node id of each path token, all paths concatenated."""
        return tuple(self.nodes.tolist())

    @property
    def total_tokens(self) -> int:
        return len(self.nodes)

    def __eq__(self, other):
        if not isinstance(other, PathIndex):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash(self.paths)

    def __repr__(self):
        return f"PathIndex(paths={self.paths!r})"

    def __reduce__(self):
        return PathIndex.from_flat, (self.nodes, self.offsets)


def _flat(nodes, offsets) -> dict:
    nodes = np.asarray(nodes)
    if nodes.dtype != object:
        nodes = nodes.astype(np.int64)
    offsets = np.array(offsets, dtype=np.int64)
    nodes.flags.writeable = offsets.flags.writeable = False
    return {"nodes": nodes, "offsets": offsets}


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


# Most (centerline, road segment) pairs one block of the distance kernel
# holds: each float64 temporary of a block stays within 1 MB.
_PAIRS_PER_BLOCK = 1 << 17


def _road_distances(cls: Sequence[Centerline], roads: Sequence[Road]) -> np.ndarray:
    """The kernel of `Scene.road_distances`; both sequences sorted by id.

    A distance is the minimum over the road's segments of the distance from
    the midpoint to the foot of its perpendicular, clamped to the segment;
    the length is sqrt(dx*dx + dy*dy), inf where the square overflows, or
    np.hypot(dx, dy) in a row where every square does. One pass per block of
    centerline rows measures every road segment, held as x and y columns; the
    per-road minimum is one `minimum.reduceat` over each road's segments.
    """
    if not roads:
        raise LabelError("scene has no roads to associate against")
    flat = chain.from_iterable
    ends = np.fromiter(flat(c.vector.p1 + c.vector.p2 for c in cls), dtype=np.float64).reshape(-1, 4)
    mx = (ends[:, 0] + ends[:, 2]) / 2.0
    my = (ends[:, 1] + ends[:, 3]) / 2.0

    # the points of all roads in id order; a segment joining one road's last
    # point to the next road's first is dropped
    counts = np.array([len(r.points) for r in roads], dtype=np.int64)
    pts = np.fromiter(flat(flat(r.points for r in roads)), dtype=np.float64).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    keep = np.ones(len(pts) - 1, dtype=bool)
    keep[np.cumsum(counts)[:-1] - 1] = False
    ax, ay = x[:-1][keep], y[:-1][keep]
    sx, sy = np.diff(x)[keep], np.diff(y)[keep]
    seg2 = sx * sx + sy * sy
    first = np.concatenate(([0], np.cumsum(counts - 1)[:-1]))

    # x and y errors e = m - (a + t s), t = ((m - a) . s) / |s|^2 clamped to [0, 1], of midpoints m (a (k, 1)
    # column or one point) to every segment, in the order of operations of one segment at a time: same floats
    def errors(bx, by):
        t = bx - ax
        t *= sx
        e = by - ay
        e *= sy
        t += e
        t /= seg2
        np.clip(t, 0.0, 1.0, out=t)
        np.multiply(t, sx, out=e)
        e += ax
        np.subtract(bx, e, out=e)  # e = x error
        t *= sy
        t += ay
        np.subtract(by, t, out=t)  # t = y error
        return e, t

    dist = np.empty((len(cls), len(roads)), dtype=np.float64)
    step = max(1, _PAIRS_PER_BLOCK // len(sx))
    for lo in range(0, len(cls), step):
        bx, by = mx[lo : lo + step, None], my[lo : lo + step, None]
        e, t = errors(bx, by)
        e *= e
        t *= t
        e += t
        np.sqrt(e, out=e)
        dist[lo : lo + step] = np.minimum.reduceat(e, first, axis=1)
        for i in lo + np.flatnonzero(np.isinf(dist[lo : lo + step].min(axis=1))):  # every square overflowed
            dist[i] = np.minimum.reduceat(np.hypot(*errors(mx[i], my[i])), first)
    dist.flags.writeable = False
    return dist


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
    scene.hd.depths  # raises on a lane cycle
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

"""Synthetic scene generation, perturbation, and augmentation.

Scenes are built from a junction skeleton: junction points joined by straight
directed arcs, one road per arc. Roads stop ``junction_radius`` short of each
junction center (real intersections keep an open box), which guarantees that
a lane is always strictly nearest to its own road on clean scenes. Lanes are
parallel offsets of the road line, and boundaries envelope each road's lanes.
Each lane and boundary line is sampled at HD spacing and cropped to the one
run of samples inside the HD extent (a straight line enters the crop box at
most once); a lane's run becomes a chain of centerline vectors. At each
junction, every lane whose run reaches a road's end joins the nearest lane
whose run starts each successor road (the lowest id on a tie).

Three layouts
-------------
``grid``           one-way horizontal and vertical lines on a regular pitch
``radial``         arms through the origin, dual carriageways per arm
``random-planar``  a seeded random road tree with clearance constraints

Perturbation models upstream mapping noise (rigid GPS shift, centerline
dropout without re-stitching, endpoint jitter, over-segmentation);
augmentation models training-time transforms (small rotation, scale, flip,
tiny clipped jitter, grid deduplication). Both are deterministic given their
seed: every step draws from its own spawned child stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from typing import Literal, Optional, Union

import numpy as np

from .errors import ConfigError, GenerationError
from .fields import above, at_least, check_fields, within
from .geometry import (
    Association,
    Boundary,
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    point_to_segment_distance,
    sample_polyline,
)

__all__ = [
    "GenConfig",
    "PerturbConfig",
    "AugConfig",
    "generate_scene",
    "perturb_scene",
    "augment_scene",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GenConfig:
    """Scene generation settings. Extents are (x, y) half-widths in meters."""

    layout: Literal["grid", "radial", "random-planar"] = "grid"
    sd_extent: tuple[float, float] = field(default=(75.0, 75.0), metadata=above(0))
    hd_extent: tuple[float, float] = field(default=(15.0, 30.0), metadata=above(0))
    lanes_per_road: tuple[int, int] = field(default=(1, 3), metadata=at_least(1))
    lane_offset: float = field(default=3.0, metadata=above(0))
    vector_spacing_sd: float = field(default=10.0, metadata=above(0))
    vector_spacing_hd: float = field(default=3.0, metadata=above(0))
    junction_radius: float = field(default=6.0, metadata=at_least(0))
    boundary_margin: float = field(default=1.5, metadata=at_least(0))
    grid_rows: int = field(default=2, metadata=at_least(1))
    grid_cols: int = field(default=2, metadata=at_least(1))
    grid_pitch: float = field(default=20.0, metadata=above(0))
    radial_arms: int = field(default=3, metadata=at_least(2))
    carriageway_sep: float = field(default=9.0, metadata=at_least(0))
    random_roads: int = field(default=6, metadata=at_least(1))
    road_clearance: float = field(default=18.0, metadata=at_least(0))
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check_fields(self)
        lo, hi = self.lanes_per_road
        if lo > hi:
            raise ConfigError(f"lanes_per_road: low must be <= high, got {self.lanes_per_road!r}")


@dataclass(frozen=True)
class PerturbConfig:
    """Mapping-noise model. ``gps_shift`` is a fixed (dx, dy) offset or a
    Gaussian sigma in meters when given as a single number."""

    gps_shift: Union[tuple[float, float], float] = (0.0, 0.0)
    dropout_rate: float = field(default=0.0, metadata=within(0, 1))
    jitter_sigma: float = field(default=0.0, metadata=at_least(0))
    oversegment_rate: float = field(default=0.0, metadata=within(0, 1))
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class AugConfig:
    """Training-time augmentation settings, applied jointly to SD and HD."""

    rotate_range_deg: tuple[float, float] = (-1.0, 1.0)
    rotate_p: float = field(default=0.5, metadata=within(0, 1))
    scale_range: tuple[float, float] = field(default=(0.9, 1.1), metadata=above(0))
    flip_p: float = field(default=0.5, metadata=within(0, 1))
    jitter_sigma: float = field(default=0.005, metadata=at_least(0))
    jitter_clip: float = field(default=0.02, metadata=at_least(0))
    grid_sample: Optional[tuple[float, float, float]] = field(default=(0.1, 0.1, math.pi / 16), metadata=above(0))
    seed: int = field(default=0, metadata=at_least(0))

    def __post_init__(self):
        check_fields(self)
        lo, hi = self.scale_range
        if lo > hi:
            raise ConfigError(f"scale_range: low must be <= high, got {self.scale_range!r}")


# ---------------------------------------------------------------------------
# skeleton construction: junction nodes + directed arcs


@dataclass
class _Arc:
    tail: int
    head: int
    offset: float = 0.0  # lateral carriageway offset, left-normal units


def _unit(a: Point2, b: Point2) -> tuple[float, float, float]:
    dx, dy = b.x - a.x, b.y - a.y
    n = math.hypot(dx, dy)
    return dx / n, dy / n, n


def _grid_skeleton(cfg: GenConfig):
    ex, ey = cfg.sd_extent
    pitch = cfg.grid_pitch
    if pitch <= 2.0 * cfg.junction_radius + 2.0:
        raise GenerationError(f"grid pitch {pitch} leaves no room between junctions")
    ys = [(j - (cfg.grid_rows - 1) / 2.0) * pitch for j in range(cfg.grid_rows)]
    xs = [(i - (cfg.grid_cols - 1) / 2.0) * pitch for i in range(cfg.grid_cols)]
    if any(abs(y) >= ey for y in ys) or any(abs(x) >= ex for x in xs):
        raise GenerationError("grid lines fall outside the SD extent")
    nodes: list[Point2] = []
    arcs: list[_Arc] = []

    def add(p: Point2) -> int:
        nodes.append(p)
        return len(nodes) - 1

    def chain_line(line: list[int]) -> None:
        arcs.extend(_Arc(a, b) for a, b in zip(line, line[1:]))

    crossings = []  # crossings[j][i]: the node where row j meets column i
    for y in ys:  # horizontal lines, direction +x
        row = [add(Point2(-ex, y))] + [add(Point2(x, y)) for x in xs] + [add(Point2(ex, y))]
        chain_line(row)
        crossings.append(row[1:-1])
    for i, x in enumerate(xs):  # vertical lines, direction +y, through the crossings
        chain_line([add(Point2(x, -ey))] + [row[i] for row in crossings] + [add(Point2(x, ey))])
    return nodes, arcs


def _radial_skeleton(cfg: GenConfig):
    ex, ey = cfg.sd_extent
    sep = cfg.carriageway_sep
    nodes = [Point2(0.0, 0.0)]
    arcs: list[_Arc] = []
    for k in range(cfg.radial_arms):
        ang = _TWO_PI * k / cfg.radial_arms
        ux, uy = math.cos(ang), math.sin(ang)
        # keep the offset carriageway inside the SD box
        tx = (ex - sep / 2.0 - 0.5) / abs(ux) if abs(ux) > 1e-12 else math.inf
        ty = (ey - sep / 2.0 - 0.5) / abs(uy) if abs(uy) > 1e-12 else math.inf
        t = min(tx, ty)
        if t <= 2.0 * cfg.junction_radius:
            raise GenerationError("SD extent too small for radial arms")
        nodes.append(Point2(t * ux, t * uy))
        b = len(nodes) - 1
        # right-hand traffic: each carriageway shifts -sep/2 on its own left normal
        arcs.append(_Arc(0, b, -sep / 2.0))  # outbound
        arcs.append(_Arc(b, 0, -sep / 2.0))  # inbound
    return nodes, arcs


def _seg_seg_distance(p1, p2, q1, q2) -> float:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    d3, d4 = orient(p1, p2, q1), orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return 0.0
    return min(
        point_to_segment_distance(p1, q1, q2),
        point_to_segment_distance(p2, q1, q2),
        point_to_segment_distance(q1, p1, p2),
        point_to_segment_distance(q2, p1, p2),
    )


def _random_skeleton(cfg: GenConfig, rng: np.random.Generator):
    ex, ey = cfg.sd_extent
    # root the tree inside the HD crop so some lanes always survive clipping
    hx, hy = cfg.hd_extent
    nodes = [Point2(rng.uniform(-0.5 * hx, 0.5 * hx), rng.uniform(-0.5 * hy, 0.5 * hy))]
    arcs: list[_Arc] = []
    degree = {0: 0}
    incident_dirs: dict = {0: []}
    attempts = 0
    while len(arcs) < cfg.random_roads and attempts < 600:
        attempts += 1
        base = int(rng.integers(0, len(nodes)))
        if degree[base] >= 3:
            continue
        ang = rng.uniform(0.0, _TWO_PI)
        # branch angle floor keeps a lane strictly nearest its own road near a
        # junction: need junction_radius > max_offset * cot(phi / 2)
        ok_angle = all(
            min(abs(ang - d) % _TWO_PI, _TWO_PI - abs(ang - d) % _TWO_PI) > 5 * math.pi / 12
            for d in incident_dirs[base]
        )
        if not ok_angle:
            continue
        length = rng.uniform(0.4, 0.8) * min(ex, ey)
        p = nodes[base]
        q = Point2(p.x + length * math.cos(ang), p.y + length * math.sin(ang))
        if abs(q.x) > ex or abs(q.y) > ey:
            continue
        clear = True
        for arc in arcs:
            if arc.tail == base or arc.head == base:
                continue
            if (
                _seg_seg_distance(p, q, nodes[arc.tail], nodes[arc.head])
                < cfg.road_clearance
            ):
                clear = False
                break
        if clear:
            for ni, np_ in enumerate(nodes):
                if ni != base and point_to_segment_distance(np_, p, q) < cfg.road_clearance:
                    clear = False
                    break
        if not clear:
            continue
        nodes.append(q)
        nid = len(nodes) - 1
        degree[nid] = 1
        degree[base] += 1
        incident_dirs[nid] = [(ang + math.pi) % _TWO_PI]
        incident_dirs[base].append(ang)
        if rng.random() < 0.5:
            arcs.append(_Arc(base, nid))
        else:
            arcs.append(_Arc(nid, base))
    if len(arcs) < max(1, cfg.random_roads // 2):
        raise GenerationError(
            f"random-planar layout infeasible: placed {len(arcs)} of {cfg.random_roads} roads"
        )
    return nodes, arcs


# ---------------------------------------------------------------------------
# geometry realization


def _left_normal(ux: float, uy: float) -> tuple[float, float]:
    return -uy, ux


def _arc_line(nodes, arc: _Arc, trim_tail: float, trim_head: float):
    a, b = nodes[arc.tail], nodes[arc.head]
    ux, uy, length = _unit(a, b)
    usable = length - trim_tail - trim_head
    if usable <= 1.0:
        raise GenerationError(
            f"arc between {tuple(a)} and {tuple(b)} too short for junction radius"
        )
    nx, ny = _left_normal(ux, uy)
    ox, oy = arc.offset * nx, arc.offset * ny
    start = Point2(a.x + ux * trim_tail + ox, a.y + uy * trim_tail + oy)
    end = Point2(b.x - ux * trim_head + ox, b.y - uy * trim_head + oy)
    return start, end, (nx, ny)


def _offset_line(start: Point2, end: Point2, normal, off: float):
    nx, ny = normal
    return (
        Point2(start.x + off * nx, start.y + off * ny),
        Point2(end.x + off * nx, end.y + off * ny),
    )


def _crop_run(line, cfg: GenConfig) -> tuple[list[Point2], bool, bool]:
    """The samples of the straight `line` (start, end) at HD spacing that lie
    inside the HD crop, and whether they include its first and its last sample.

    Along a straight line each coordinate of the samples moves monotonically,
    and the crop is a box, so the samples inside it form one contiguous run.
    """
    pts = sample_polyline(line, cfg.vector_spacing_hd)
    hx, hy = cfg.hd_extent
    inside = [i for i, p in enumerate(pts) if abs(p.x) <= hx and abs(p.y) <= hy]
    if not inside:
        return [], False, False
    first, last = inside[0], inside[-1]
    return pts[first:last + 1], first == 0, last == len(pts) - 1


def generate_scene(cfg: GenConfig) -> Scene:
    """Build one deterministic scene from the config seed.

    Random layouts that produce an empty HD crop are retried on derived
    child seeds (a fixed number of times) before raising, so the op stays a
    pure function of the config.
    """
    last_err = None
    for attempt in range(5):
        try:
            return _generate_once(cfg, attempt)
        except GenerationError as err:
            last_err = err
            if cfg.layout != "random-planar":
                break
    raise last_err


def _generate_once(cfg: GenConfig, attempt: int) -> Scene:
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(attempt,))
    skel_rng, lane_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    if cfg.layout == "grid":
        nodes, arcs = _grid_skeleton(cfg)
    elif cfg.layout == "radial":
        nodes, arcs = _radial_skeleton(cfg)
    else:
        nodes, arcs = _random_skeleton(cfg, skel_rng)

    node_degree = {i: 0 for i in range(len(nodes))}
    for arc in arcs:
        node_degree[arc.tail] += 1
        node_degree[arc.head] += 1

    def trim(node: int) -> float:
        return cfg.junction_radius if node_degree[node] > 1 else 0.0

    roads = []
    road_lines = []  # (start, end, left normal) per road, lanes hang off these
    for rid, arc in enumerate(arcs):
        start, end, normal = _arc_line(nodes, arc, trim(arc.tail), trim(arc.head))
        pts = sample_polyline([start, end], cfg.vector_spacing_sd)
        roads.append(Road(id=rid, points=tuple(pts)))
        road_lines.append((start, end, normal))

    # road connectivity: shared junction, U-turns excluded
    sd_edges = [
        (i, j)
        for i, a in enumerate(arcs)
        for j, b in enumerate(arcs)
        if i != j and a.head == b.tail and a.tail != b.head
    ]

    lane_counts = [int(lane_rng.integers(cfg.lanes_per_road[0], cfg.lanes_per_road[1] + 1))
                   for _ in arcs]

    centerlines: list[Centerline] = []
    hd_edges: list[tuple[int, int]] = []
    gt_labels: dict = {}
    # per road, (id, point) of the first vector of every lane whose run reaches
    # the road's start, and of the last vector of every lane that reaches its end
    starts: list = [[] for _ in arcs]
    ends: list = [[] for _ in arcs]
    for rid, (start, end, normal) in enumerate(road_lines):
        n_lanes = lane_counts[rid]
        for k in range(n_lanes):
            off = cfg.lane_offset * (k - (n_lanes - 1) / 2.0)
            run, at_start, at_end = _crop_run(_offset_line(start, end, normal, off), cfg)
            if len(run) < 2:
                continue
            first = len(centerlines)
            for p1, p2 in zip(run, run[1:]):
                gt_labels[len(centerlines)] = rid
                centerlines.append(Centerline(id=len(centerlines), vector=DirVec.from_points(p1, p2)))
            last = len(centerlines) - 1
            hd_edges += zip(range(first, last), range(first + 1, last + 1))
            if at_start:
                starts[rid].append((first, run[0]))
            if at_end:
                ends[rid].append((last, run[-1]))

    # at each junction, every lane that reaches a road's end joins the nearest
    # lane that starts each successor road, the lowest id on a tie
    for ra, rb in sd_edges:
        for last, p in ends[ra]:
            if starts[rb]:
                first, _ = min(
                    starts[rb], key=lambda c: (math.hypot(c[1].x - p.x, c[1].y - p.y), c[0])
                )
                hd_edges.append((last, first))

    boundaries = []
    for rid, (start, end, normal) in enumerate(road_lines):
        half_span = cfg.lane_offset * (lane_counts[rid] - 1) / 2.0 + cfg.boundary_margin
        for side in (half_span, -half_span):
            run, _, _ = _crop_run(_offset_line(start, end, normal, side), cfg)
            if len(run) >= 2:
                boundaries.append(Boundary(id=len(boundaries), points=tuple(run)))

    if not centerlines:
        raise GenerationError("no centerlines fall inside the HD extent")

    scene = Scene(
        sd=SdGraph(roads=tuple(roads), edges=tuple(sd_edges)),
        hd=HdGraph(
            centerlines=tuple(centerlines),
            edges=tuple(hd_edges),
            boundaries=tuple(boundaries),
        ),
        gt=Association(labels=gt_labels),
        meta={
            "scene_id": f"{cfg.layout}-{cfg.seed}",
            "seed": cfg.seed,
            "layout": cfg.layout,
            "crop": {"sd": list(cfg.sd_extent), "hd": list(cfg.hd_extent)},
        },
    )
    return scene


# ---------------------------------------------------------------------------
# perturbation and augmentation: every point of a scene moves in one array pass


def _xy(polylines) -> np.ndarray:
    """The (n, 2) coordinates of every point of `polylines`, in order."""
    n = sum(map(len, polylines))
    return np.fromiter(chain.from_iterable(chain.from_iterable(polylines)), float, 2 * n).reshape(n, 2)


def _ends(centerlines) -> np.ndarray:
    """One [p1x, p1y, p2x, p2y] row per centerline."""
    return _xy([(c.vector.p1, c.vector.p2) for c in centerlines]).reshape(-1, 4)


def _centerlines(ids, ends: np.ndarray) -> list:
    """A Centerline per id, its vector from a [p1x, p1y, p2x, p2y] row of `ends`."""
    return Centerline.many(ids, ends[:, :2].tolist(), ends[:, 2:].tolist())


def _polylines(cls, elements, xy: np.ndarray) -> list:
    """`cls` (Road or Boundary) per element, with its points taken in turn from the rows of `xy`."""
    rows = xy.tolist()
    ends = list(accumulate(len(e.points) for e in elements))
    return cls.many([e.id for e in elements], list(map(rows.__getitem__, map(slice, [0, *ends[:-1]], ends))))


def _crop(base, xy: np.ndarray) -> list:
    """The (x, y) half-extents `base`, grown to cover every row of `xy` and rounded up to the millimeter."""
    ex, ey = float(base[0]), float(base[1])
    if len(xy):
        mx, my = np.abs(xy).max(axis=0).tolist()
        ex, ey = max(ex, mx), max(ey, my)
    return [math.ceil(ex * 1000) / 1000, math.ceil(ey * 1000) / 1000]


def perturb_scene(scene: Scene, cfg: PerturbConfig) -> Scene:
    """Model mapping noise on the HD layer.

    Applies, in order: rigid GPS translation, centerline dropout (edges die
    with their nodes, nothing is re-stitched), independent endpoint jitter on
    centerlines, and over-segmentation (a centerline splits at its midpoint
    into two chained halves, both inheriting the gt label). The SD layer is
    untouched. A zeroed config returns the scene unchanged.

    Endpoints move as one [p1x, p1y, p2x, p2y] row per centerline; the jitter
    is one (n, 4) draw, the stream of n draws of 4.
    """
    if (
        not np.any(cfg.gps_shift)
        and cfg.dropout_rate == 0.0
        and cfg.jitter_sigma == 0.0
        and cfg.oversegment_rate == 0.0
    ):
        return scene
    ss = np.random.SeedSequence(cfg.seed)
    shift_rng, drop_rng, jit_rng, over_rng = (np.random.default_rng(s) for s in ss.spawn(4))

    if isinstance(cfg.gps_shift, (int, float)):
        sigma = float(cfg.gps_shift)
        shift = (
            tuple(float(v) for v in shift_rng.normal(0.0, sigma, size=2))
            if sigma > 0
            else (0.0, 0.0)
        )
    else:
        shift = (float(cfg.gps_shift[0]), float(cfg.gps_shift[1]))

    ids = [c.id for c in scene.hd.centerlines]
    ends = _ends(scene.hd.centerlines)
    edges = list(scene.hd.edges)
    bounds = scene.hd.boundaries
    bxy = _xy([b.points for b in bounds])
    labels = dict(scene.gt.labels) if scene.gt is not None else None

    if shift != (0.0, 0.0):  # adding a zero shift would turn -0.0 into 0.0
        ends = ends + (*shift, *shift)
        bxy = bxy + shift
        bounds = _polylines(Boundary, bounds, bxy)

    if cfg.dropout_rate > 0:
        keep = ~(drop_rng.random(len(ids)) < cfg.dropout_rate)
        dropped = set(compress(ids, ~keep))
        ids, ends = list(compress(ids, keep)), ends[keep]
        edges = [(a, b) for a, b in edges if a not in dropped and b not in dropped]
        if labels is not None:
            labels = {i: r for i, r in labels.items() if i not in dropped}

    if cfg.jitter_sigma > 0:
        ends = ends + jit_rng.normal(0.0, cfg.jitter_sigma, size=ends.shape)

    split = np.zeros(len(ids), dtype=bool)
    if cfg.oversegment_rate > 0 and ids:
        split = over_rng.random(len(ids)) < cfg.oversegment_rate
    cls = _centerlines(list(compress(ids, ~split)), ends[~split])
    if split.any():
        # each split centerline keeps its id for its first half; the second
        # half takes the next new id, in centerline order, and its out-edges
        cut = ends[split]
        mid = (cut[:, :2] + cut[:, 2:]) / 2.0
        firsts = list(compress(ids, split))
        seconds = range(max(ids) + 1, max(ids) + 1 + len(firsts))
        cls += _centerlines(firsts, np.hstack((cut[:, :2], mid)))
        cls += _centerlines(seconds, np.hstack((mid, cut[:, 2:])))
        second_of = dict(zip(firsts, seconds))
        edges = [(second_of.get(a, a), b) for a, b in edges]
        edges += second_of.items()
        if labels is not None:
            for first, second in second_of.items():
                labels[second] = labels[first]

    hd = HdGraph(centerlines=tuple(cls), edges=tuple(edges), boundaries=tuple(bounds))
    meta = dict(scene.meta)
    meta["perturb"] = {
        "gps_shift": [shift[0], shift[1]],
        "dropout_rate": cfg.dropout_rate,
        "jitter_sigma": cfg.jitter_sigma,
        "oversegment_rate": cfg.oversegment_rate,
        "seed": cfg.seed,
    }
    crop = dict(meta.get("crop", {}))
    if "hd" in crop:
        crop["hd"] = _crop(crop["hd"], np.concatenate((_ends(hd.centerlines).reshape(-1, 2), bxy)))
        meta["crop"] = crop
    gt = Association(labels=labels) if labels is not None else None
    return Scene(sd=scene.sd, hd=hd, gt=gt, meta=meta)


def augment_scene(scene: Scene, cfg: AugConfig) -> Scene:
    """Jointly transform SD and HD layers, association-preserving.

    Order: rotate about the origin (probabilistic), uniform scale, x-flip
    (probabilistic), tiny clipped per-point jitter, then grid deduplication
    of centerline vectors sharing an (x, y, theta) cell (lowest id wins;
    ``grid_sample=None`` disables the step). Headings are recomputed from
    transformed endpoints.

    Every point of the scene moves in one array pass, in the order road
    points, centerline endpoints (p1, p2), boundary points; the jitter is one
    (n, 2) draw, the stream of one draw of 2 per point in that order.
    """
    ss = np.random.SeedSequence(cfg.seed)
    rot_rng, scale_rng, flip_rng, jit_rng = (np.random.default_rng(s) for s in ss.spawn(4))

    angle = 0.0
    if cfg.rotate_p > 0 and rot_rng.random() < cfg.rotate_p:
        angle = math.radians(rot_rng.uniform(*cfg.rotate_range_deg))
    lo, hi = cfg.scale_range
    scale = float(lo) if lo == hi else float(scale_rng.uniform(lo, hi))
    flip = cfg.flip_p > 0 and flip_rng.random() < cfg.flip_p

    ca, sa = math.cos(angle), math.sin(angle)
    fx = -1.0 if flip else 1.0
    identity = angle == 0.0 and scale == 1.0 and not flip
    if identity and cfg.jitter_sigma == 0.0 and cfg.grid_sample is None:
        return scene

    roads, bounds = scene.sd.roads, scene.hd.boundaries
    ids = [c.id for c in scene.hd.centerlines]
    sd_xy = _xy([r.points for r in roads])
    xy = np.concatenate((sd_xy, _ends(scene.hd.centerlines).reshape(-1, 2), _xy([b.points for b in bounds])))
    if not identity:  # an identity transform would turn -0.0 into 0.0
        x, y = xy[:, 0], xy[:, 1]
        xy = np.stack(((x * ca - y * sa) * scale * fx, (x * sa + y * ca) * scale), axis=1)
    if cfg.jitter_sigma > 0:
        xy = xy + np.clip(jit_rng.normal(0.0, cfg.jitter_sigma, size=xy.shape), -cfg.jitter_clip, cfg.jitter_clip)
    n_sd, n_hd = len(sd_xy), len(sd_xy) + 2 * len(ids)
    sd_xy, ends, bxy = xy[:n_sd], xy[n_sd:n_hd].reshape(-1, 4), xy[n_hd:]
    roads = _polylines(Road, roads, sd_xy)
    bounds = _polylines(Boundary, bounds, bxy)
    cls = _centerlines(ids, ends)
    edges = list(scene.hd.edges)
    labels = dict(scene.gt.labels) if scene.gt is not None else None

    keep = np.ones(len(ids), dtype=bool)
    if cfg.grid_sample is not None and ids:
        gx, gy, gtheta = (float(v) for v in cfg.grid_sample)
        mid = (ends[:, :2] + ends[:, 2:]) / 2.0
        cells = zip(
            np.floor(mid[:, 0] / gx).tolist(),
            np.floor(mid[:, 1] / gy).tolist(),
            [math.floor((c.vector.theta % _TWO_PI) / gtheta) for c in cls],
        )
        seen: dict = {}
        for cid, cell in zip(ids, cells):  # graph elements come in id order
            seen.setdefault(cell, cid)
        if len(seen) < len(ids):
            winners = set(seen.values())
            keep = np.array([cid in winners for cid in ids], dtype=bool)
            dropped = set(ids) - winners
            edges = [(a, b) for a, b in edges if a not in dropped and b not in dropped]
            if labels is not None:
                labels = {i: r for i, r in labels.items() if i not in dropped}

    hd = HdGraph(centerlines=tuple(compress(cls, keep)), edges=tuple(edges), boundaries=bounds)
    sd = SdGraph(roads=roads, edges=scene.sd.edges)
    meta = dict(scene.meta)
    meta["augment"] = {
        "angle_rad": angle,
        "scale": scale,
        "flip": bool(flip),
        "jitter_sigma": cfg.jitter_sigma,
        "seed": cfg.seed,
    }
    crop = dict(meta.get("crop", {}))
    if "sd" in crop:
        crop["sd"] = _crop(crop["sd"], sd_xy)
    if "hd" in crop:
        crop["hd"] = _crop(crop["hd"], np.concatenate((ends[keep].reshape(-1, 2), bxy)))
    meta["crop"] = crop
    gt = Association(labels=labels) if labels is not None else None
    return Scene(sd=sd, hd=hd, gt=gt, meta=meta)

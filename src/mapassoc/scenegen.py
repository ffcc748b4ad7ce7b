"""Synthetic scene generation, perturbation, and augmentation.

Scenes are built from a junction skeleton: junction points joined by straight
directed arcs, one road per arc. Roads stop ``junction_radius`` short of each
junction center (real intersections keep an open box), which guarantees that
a lane is always strictly nearest to its own road on clean scenes. Lanes are
parallel offsets of the road line, vectorized at HD spacing and cropped to
the HD extent; lane chains that reach a junction connect across it following
road connectivity. Boundaries envelope each road's lanes.

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
from dataclasses import dataclass, field, replace
from itertools import chain, compress
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, GenerationError
from .fields import check_fields
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
    _point2,
    full_angle,
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

    layout: str = "grid"
    sd_extent: tuple[float, float] = (75.0, 75.0)
    hd_extent: tuple[float, float] = (15.0, 30.0)
    lanes_per_road: tuple[int, int] = (1, 3)
    lane_offset: float = 3.0
    vector_spacing_sd: float = 10.0
    vector_spacing_hd: float = 3.0
    junction_radius: float = 6.0
    boundary_margin: float = 1.5
    grid_rows: int = 2
    grid_cols: int = 2
    grid_pitch: float = 20.0
    radial_arms: int = 3
    carriageway_sep: float = 9.0
    random_roads: int = 6
    road_clearance: float = 18.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.layout not in ("grid", "radial", "random-planar"):
            raise ConfigError(f"unknown layout {self.layout!r}")
        lo, hi = self.lanes_per_road
        if not (1 <= lo <= hi):
            raise ConfigError(f"bad lanes_per_road range {self.lanes_per_road}")
        for name in ("lane_offset", "vector_spacing_sd", "vector_spacing_hd"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if min(self.sd_extent) <= 0 or min(self.hd_extent) <= 0:
            raise ConfigError("extents must be positive")
        for name in ("junction_radius", "boundary_margin", "carriageway_sep", "road_clearance"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PerturbConfig:
    """Mapping-noise model. ``gps_shift`` is a fixed (dx, dy) offset or a
    Gaussian sigma in meters when given as a single number."""

    gps_shift: Union[tuple[float, float], float] = (0.0, 0.0)
    dropout_rate: float = 0.0
    jitter_sigma: float = 0.0
    oversegment_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for name in ("dropout_rate", "oversegment_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("jitter_sigma", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class AugConfig:
    """Training-time augmentation settings, applied jointly to SD and HD."""

    rotate_range_deg: tuple[float, float] = (-1.0, 1.0)
    rotate_p: float = 0.5
    scale_range: tuple[float, float] = (0.9, 1.1)
    flip_p: float = 0.5
    jitter_sigma: float = 0.005
    jitter_clip: float = 0.02
    grid_sample: Optional[tuple[float, float, float]] = (0.1, 0.1, math.pi / 16)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for name in ("rotate_p", "flip_p"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        for name in ("jitter_sigma", "jitter_clip", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.grid_sample is not None and min(self.grid_sample) <= 0:
            raise ConfigError(f"grid_sample cell sizes must be > 0, got {self.grid_sample}")


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

    def add(p: Point2) -> int:
        nodes.append(p)
        return len(nodes) - 1

    arcs: list[_Arc] = []
    for y in ys:  # horizontal lines, direction +x
        cols = [add(Point2(-ex, y))] + [add(Point2(x, y)) for x in xs] + [add(Point2(ex, y))]
        for a, b in zip(cols, cols[1:]):
            arcs.append(_Arc(a, b))
    # crossing nodes were added per line; merge verticals onto them
    cross = {}
    for idx, p in enumerate(nodes):
        cross[(round(p.x, 9), round(p.y, 9))] = idx
    for x in xs:  # vertical lines, direction +y
        col_nodes = [add(Point2(x, -ey))]
        for y in ys:
            col_nodes.append(cross[(round(x, 9), round(y, 9))])
        col_nodes.append(add(Point2(x, ey)))
        for a, b in zip(col_nodes, col_nodes[1:]):
            arcs.append(_Arc(a, b))
    return nodes, arcs


def _radial_skeleton(cfg: GenConfig):
    if cfg.radial_arms < 2:
        raise GenerationError("radial layout needs at least 2 arms")
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
    return start, end, (ux, uy), (nx, ny)


def _offset_line(start: Point2, end: Point2, normal, off: float):
    nx, ny = normal
    return (
        Point2(start.x + off * nx, start.y + off * ny),
        Point2(end.x + off * nx, end.y + off * ny),
    )


def _inside(p: Point2, half) -> bool:
    return abs(p.x) <= half[0] and abs(p.y) <= half[1]


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
    road_lines = []  # (start, end, dir, normal) per road, lanes hang off these
    for rid, arc in enumerate(arcs):
        start, end, direction, normal = _arc_line(nodes, arc, trim(arc.tail), trim(arc.head))
        pts = sample_polyline([start, end], cfg.vector_spacing_sd)
        roads.append(Road(id=rid, points=tuple(pts)))
        road_lines.append((start, end, direction, normal))

    # road connectivity: shared junction, U-turns excluded
    sd_edges = []
    for i, a in enumerate(arcs):
        for j, b in enumerate(arcs):
            if i == j or a.head != b.tail:
                continue
            if a.tail == b.head:  # reverse pair
                continue
            sd_edges.append((i, j))
    sd_edges.sort()

    lane_counts = [int(lane_rng.integers(cfg.lanes_per_road[0], cfg.lanes_per_road[1] + 1))
                   for _ in arcs]

    centerlines: list[Centerline] = []
    hd_edges: list[tuple[int, int]] = []
    gt_labels: dict = {}
    next_cl = 0
    # per (road, lane): (first_cl_id or None, last_cl_id or None, reach flags)
    lane_ends: dict = {}
    for rid, arc in enumerate(arcs):
        start, end, direction, normal = road_lines[rid]
        n_lanes = lane_counts[rid]
        for k in range(n_lanes):
            off = cfg.lane_offset * (k - (n_lanes - 1) / 2.0)
            ls, le = _offset_line(start, end, normal, off)
            pts = sample_polyline([ls, le], cfg.vector_spacing_hd)
            # vector i joins samples i and i + 1; only those inside the crop are built
            inside = [_inside(p, cfg.hd_extent) for p in pts]
            kept = [i for i in range(len(pts) - 1) if inside[i] and inside[i + 1]]
            ids = []
            for i in kept:
                centerlines.append(Centerline(id=next_cl, vector=DirVec.from_points(pts[i], pts[i + 1])))
                gt_labels[next_cl] = rid
                ids.append((i, next_cl))
                next_cl += 1
            for (i1, c1), (i2, c2) in zip(ids, ids[1:]):
                if i2 == i1 + 1:
                    hd_edges.append((c1, c2))
            reaches_start = bool(ids) and ids[0][0] == 0
            reaches_end = bool(ids) and ids[-1][0] == len(pts) - 2
            lane_ends[(rid, k)] = (
                ids[0][1] if ids else None,
                ids[-1][1] if ids else None,
                reaches_start,
                reaches_end,
            )

    by_id = {c.id: c for c in centerlines}
    # connect lane chains across junctions along road connectivity
    for ra, rb in sd_edges:
        incoming = [
            lane_ends[(ra, k)]
            for k in range(lane_counts[ra])
            if lane_ends[(ra, k)][1] is not None and lane_ends[(ra, k)][3]
        ]
        outgoing = [
            lane_ends[(rb, k)]
            for k in range(lane_counts[rb])
            if lane_ends[(rb, k)][0] is not None and lane_ends[(rb, k)][2]
        ]
        for _, last_id, _, _ in incoming:
            if not outgoing:
                break
            p_out = by_id[last_id].vector.p2
            best = min(
                outgoing,
                key=lambda entry: (
                    math.hypot(
                        by_id[entry[0]].vector.p1.x - p_out.x,
                        by_id[entry[0]].vector.p1.y - p_out.y,
                    ),
                    entry[0],
                ),
            )
            hd_edges.append((last_id, best[0]))

    boundaries = []
    next_b = 0
    for rid, arc in enumerate(arcs):
        start, end, direction, normal = road_lines[rid]
        half_span = cfg.lane_offset * (lane_counts[rid] - 1) / 2.0 + cfg.boundary_margin
        for side in (half_span, -half_span):
            bs, be = _offset_line(start, end, normal, side)
            pts = sample_polyline([bs, be], cfg.vector_spacing_hd)
            run: list[Point2] = []
            runs: list[list[Point2]] = []
            for p in pts:
                if _inside(p, cfg.hd_extent):
                    run.append(p)
                elif run:
                    runs.append(run)
                    run = []
            if run:
                runs.append(run)
            for r in runs:
                if len(r) >= 2:
                    boundaries.append(Boundary(id=next_b, points=tuple(r)))
                    next_b += 1

    if not centerlines:
        raise GenerationError("no centerlines fall inside the HD extent")

    hd_edges = sorted(set(hd_edges))
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


def _vectors(ends: np.ndarray) -> list:
    """A DirVec per [p1x, p1y, p2x, p2y] row, its heading from `full_angle`
    per vector, as `DirVec.from_points` gives it."""
    dxs, dys = (ends[:, 2:] - ends[:, :2]).T.tolist()
    p1s = map(_point2, ends[:, :2].tolist())
    p2s = map(_point2, ends[:, 2:].tolist())
    return list(map(DirVec, p1s, p2s, map(full_angle, dxs, dys)))


def _polylines(cls, elements, xy: np.ndarray) -> tuple:
    """`cls` (Road or Boundary) per element, with its points taken in turn from the rows of `xy`."""
    pts = list(map(_point2, xy.tolist()))
    out, start = [], 0
    for e in elements:
        end = start + len(e.points)
        out.append(cls(e.id, tuple(pts[start:end])))
        start = end
    return tuple(out)


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

    cls = list(scene.hd.centerlines)
    ids = [c.id for c in cls]
    ends = _ends(cls)
    edges = list(scene.hd.edges)
    bounds = scene.hd.boundaries
    bxy = _xy([b.points for b in bounds])
    labels = dict(scene.gt.labels) if scene.gt is not None else None

    moved = shift != (0.0, 0.0)  # every centerline needs a new vector
    if moved:
        ends = ends + (*shift, *shift)
        bxy = bxy + shift
        bounds = _polylines(Boundary, bounds, bxy)

    if cfg.dropout_rate > 0:
        keep = ~(drop_rng.random(len(ids)) < cfg.dropout_rate)
        dropped = set(compress(ids, ~keep))
        cls, ids, ends = list(compress(cls, keep)), list(compress(ids, keep)), ends[keep]
        edges = [(a, b) for a, b in edges if a not in dropped and b not in dropped]
        if labels is not None:
            labels = {i: r for i, r in labels.items() if i not in dropped}

    if cfg.jitter_sigma > 0:
        ends = ends + jit_rng.normal(0.0, cfg.jitter_sigma, size=ends.shape)
        moved = True

    split = np.zeros(len(ids), dtype=bool)
    if cfg.oversegment_rate > 0 and ids:
        split = over_rng.random(len(ids)) < cfg.oversegment_rate
    whole = ~split
    if moved:
        cls = list(map(Centerline, compress(ids, whole), _vectors(ends[whole])))
    else:
        cls = list(compress(cls, whole))
    if split.any():
        # each split centerline keeps its id for its first half; the second
        # half takes the next new id, in centerline order, and its out-edges
        cut = ends[split]
        mid = (cut[:, :2] + cut[:, 2:]) / 2.0
        firsts = list(compress(ids, split))
        seconds = range(max(ids) + 1, max(ids) + 1 + len(firsts))
        cls += map(Centerline, firsts, _vectors(np.hstack((cut[:, :2], mid))))
        cls += map(Centerline, seconds, _vectors(np.hstack((mid, cut[:, 2:]))))
        second_of = dict(zip(firsts, seconds))
        edges = [(second_of.get(a, a), b) for a, b in edges]
        edges += second_of.items()
        if labels is not None:
            for first, second in second_of.items():
                labels[second] = labels[first]

    hd = HdGraph(centerlines=tuple(cls), edges=tuple(sorted(set(edges))), boundaries=tuple(bounds))
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

    roads, cls, bounds = scene.sd.roads, scene.hd.centerlines, scene.hd.boundaries
    sd_xy = _xy([r.points for r in roads])
    ends = _ends(cls)
    bxy = _xy([b.points for b in bounds])
    moved = not identity or cfg.jitter_sigma > 0
    if moved:
        xy = np.concatenate((sd_xy, ends.reshape(-1, 2), bxy))
        if not identity:
            x, y = xy[:, 0], xy[:, 1]
            xy = np.stack(((x * ca - y * sa) * scale * fx, (x * sa + y * ca) * scale), axis=1)
        if cfg.jitter_sigma > 0:
            xy = xy + np.clip(jit_rng.normal(0.0, cfg.jitter_sigma, size=xy.shape),
                              -cfg.jitter_clip, cfg.jitter_clip)
        n_sd, n_hd = len(sd_xy), len(sd_xy) + 2 * len(cls)
        sd_xy, ends, bxy = xy[:n_sd], xy[n_sd:n_hd].reshape(-1, 4), xy[n_hd:]
        roads = _polylines(Road, roads, sd_xy)
        bounds = _polylines(Boundary, bounds, bxy)
        vectors = _vectors(ends)
    else:
        vectors = [c.vector for c in cls]
    ids = [c.id for c in cls]
    edges = list(scene.hd.edges)
    labels = dict(scene.gt.labels) if scene.gt is not None else None

    keep = np.ones(len(ids), dtype=bool)
    if cfg.grid_sample is not None and ids:
        gx, gy, gtheta = (float(v) for v in cfg.grid_sample)
        mid = (ends[:, :2] + ends[:, 2:]) / 2.0
        cells = zip(
            np.floor(mid[:, 0] / gx).tolist(),
            np.floor(mid[:, 1] / gy).tolist(),
            [math.floor((v.theta % _TWO_PI) / gtheta) for v in vectors],
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

    cls = tuple(map(Centerline, compress(ids, keep), compress(vectors, keep)))
    hd = HdGraph(centerlines=cls, edges=tuple(sorted(set(edges))), boundaries=bounds)
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

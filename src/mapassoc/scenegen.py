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
        if self.junction_radius < 0:
            raise ConfigError(f"junction_radius must be >= 0, got {self.junction_radius}")
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
            vectors = [DirVec.from_points(a, b) for a, b in zip(pts, pts[1:])]
            kept = [
                (i, v)
                for i, v in enumerate(vectors)
                if _inside(v.p1, cfg.hd_extent) and _inside(v.p2, cfg.hd_extent)
            ]
            ids = []
            for i, v in kept:
                centerlines.append(Centerline(id=next_cl, vector=v))
                gt_labels[next_cl] = rid
                ids.append((i, next_cl))
                next_cl += 1
            for (i1, c1), (i2, c2) in zip(ids, ids[1:]):
                if i2 == i1 + 1:
                    hd_edges.append((c1, c2))
            reaches_start = bool(ids) and ids[0][0] == 0
            reaches_end = bool(ids) and ids[-1][0] == len(vectors) - 1
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
# perturbation


def _observed_crop(hd: HdGraph, base) -> list:
    ex, ey = float(base[0]), float(base[1])
    for c in hd.centerlines:
        for p in (c.vector.p1, c.vector.p2):
            ex, ey = max(ex, abs(p.x)), max(ey, abs(p.y))
    for b in hd.boundaries:
        for p in b.points:
            ex, ey = max(ex, abs(p.x)), max(ey, abs(p.y))
    return [math.ceil(ex * 1000) / 1000, math.ceil(ey * 1000) / 1000]


def perturb_scene(scene: Scene, cfg: PerturbConfig) -> Scene:
    """Model mapping noise on the HD layer.

    Applies, in order: rigid GPS translation, centerline dropout (edges die
    with their nodes, nothing is re-stitched), independent endpoint jitter on
    centerlines, and over-segmentation (a centerline splits at its midpoint
    into two chained halves, both inheriting the gt label). The SD layer is
    untouched. A zeroed config returns the scene unchanged.
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

    def shifted(p: Point2) -> Point2:
        return Point2(p.x + shift[0], p.y + shift[1])

    cls = list(scene.hd.centerlines)
    edges = list(scene.hd.edges)
    bounds = list(scene.hd.boundaries)
    labels = dict(scene.gt.labels) if scene.gt is not None else None

    if shift != (0.0, 0.0):
        cls = [
            Centerline(c.id, DirVec.from_points(shifted(c.vector.p1), shifted(c.vector.p2)))
            for c in cls
        ]
        bounds = [Boundary(b.id, tuple(shifted(p) for p in b.points)) for b in bounds]

    if cfg.dropout_rate > 0:
        mask = drop_rng.random(len(cls)) < cfg.dropout_rate
        dropped = {c.id for c, m in zip(cls, mask) if m}
        cls = [c for c in cls if c.id not in dropped]
        edges = [(a, b) for a, b in edges if a not in dropped and b not in dropped]
        if labels is not None:
            labels = {i: r for i, r in labels.items() if i not in dropped}

    if cfg.jitter_sigma > 0:
        noisy = []
        for c in cls:
            d = jit_rng.normal(0.0, cfg.jitter_sigma, size=4)
            p1 = Point2(c.vector.p1.x + d[0], c.vector.p1.y + d[1])
            p2 = Point2(c.vector.p2.x + d[2], c.vector.p2.y + d[3])
            noisy.append(Centerline(c.id, DirVec.from_points(p1, p2)))
        cls = noisy

    if cfg.oversegment_rate > 0 and cls:
        mask = over_rng.random(len(cls)) < cfg.oversegment_rate
        next_id = max(c.id for c in cls) + 1
        out = []
        for c, m in zip(cls, mask):
            if not m:
                out.append(c)
                continue
            mid = c.vector.midpoint
            first = Centerline(c.id, DirVec.from_points(c.vector.p1, mid))
            second = Centerline(next_id, DirVec.from_points(mid, c.vector.p2))
            out.extend([first, second])
            edges = [(second.id, b) if a == c.id else (a, b) for a, b in edges]
            edges.append((c.id, second.id))
            if labels is not None:
                labels[second.id] = labels[c.id]
            next_id += 1
        cls = out

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
        crop["hd"] = _observed_crop(hd, crop["hd"])
        meta["crop"] = crop
    gt = Association(labels=labels) if labels is not None else None
    return Scene(sd=scene.sd, hd=hd, gt=gt, meta=meta)


# ---------------------------------------------------------------------------
# augmentation


def augment_scene(scene: Scene, cfg: AugConfig) -> Scene:
    """Jointly transform SD and HD layers, association-preserving.

    Order: rotate about the origin (probabilistic), uniform scale, x-flip
    (probabilistic), tiny clipped per-point jitter, then grid deduplication
    of centerline vectors sharing an (x, y, theta) cell (lowest id wins;
    ``grid_sample=None`` disables the step). Headings are recomputed from
    transformed endpoints.
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

    def xform(p: Point2) -> Point2:
        if identity:
            return p
        x = (p.x * ca - p.y * sa) * scale * fx
        y = (p.x * sa + p.y * ca) * scale
        return Point2(x, y)

    def jittered(p: Point2) -> Point2:
        d = np.clip(jit_rng.normal(0.0, cfg.jitter_sigma, size=2),
                    -cfg.jitter_clip, cfg.jitter_clip)
        return Point2(p.x + float(d[0]), p.y + float(d[1]))

    use_jitter = cfg.jitter_sigma > 0

    def points(seq):
        out = [xform(p) for p in seq]
        if use_jitter:
            out = [jittered(p) for p in out]
        return tuple(out)

    roads = tuple(Road(r.id, points(r.points)) for r in scene.sd.roads)
    cls = []
    for c in scene.hd.centerlines:
        p1, p2 = points((c.vector.p1, c.vector.p2))
        cls.append(Centerline(c.id, DirVec.from_points(p1, p2)))
    bounds = tuple(Boundary(b.id, points(b.points)) for b in scene.hd.boundaries)
    edges = list(scene.hd.edges)
    labels = dict(scene.gt.labels) if scene.gt is not None else None

    if cfg.grid_sample is not None and cls:
        gx, gy, gtheta = (float(v) for v in cfg.grid_sample)
        seen: dict = {}
        for c in sorted(cls, key=lambda c: c.id):
            m = c.vector.midpoint
            cell = (
                math.floor(m.x / gx),
                math.floor(m.y / gy),
                math.floor((c.vector.theta % _TWO_PI) / gtheta),
            )
            seen.setdefault(cell, c.id)
        keep = set(seen.values())
        dropped = {c.id for c in cls if c.id not in keep}
        if dropped:
            cls = [c for c in cls if c.id in keep]
            edges = [(a, b) for a, b in edges if a not in dropped and b not in dropped]
            if labels is not None:
                labels = {i: r for i, r in labels.items() if i not in dropped}

    hd = HdGraph(centerlines=tuple(cls), edges=tuple(sorted(set(edges))), boundaries=bounds)
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
        ex, ey = crop["sd"]
        for r in roads:
            for p in r.points:
                ex, ey = max(ex, abs(p.x)), max(ey, abs(p.y))
        crop["sd"] = [math.ceil(ex * 1000) / 1000, math.ceil(ey * 1000) / 1000]
    if "hd" in crop:
        crop["hd"] = _observed_crop(hd, crop["hd"])
    meta["crop"] = crop
    gt = Association(labels=labels) if labels is not None else None
    return Scene(sd=sd, hd=hd, gt=gt, meta=meta)

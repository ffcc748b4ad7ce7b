"""Scene generation, perturbation, and augmentation."""

from __future__ import annotations

import hashlib
import math
import re
from itertools import compress

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import augment_reference, perturb_reference

from mapassoc.baselines import knn_associate
from mapassoc.errors import ConfigError, GenerationError
from mapassoc.geometry import (
    Association,
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    enumerate_paths,
    sample_polyline,
    validate_scene,
)
from mapassoc.io import dumps_scene
from mapassoc.scenegen import (
    AugConfig,
    GenConfig,
    PerturbConfig,
    _crop_run,
    augment_scene,
    generate_scene,
    perturb_scene,
)


def lane_path_length(scene, path) -> float:
    return sum(scene.hd.by_id[c].vector.length for c in path)


# ---------------------------------------------------------------------------
# generation


def test_same_seed_same_bytes():
    a = generate_scene(GenConfig(seed=5))
    b = generate_scene(GenConfig(seed=5))
    assert dumps_scene(a) == dumps_scene(b)


def test_different_seeds_differ():
    a = generate_scene(GenConfig(layout="random-planar", seed=1))
    b = generate_scene(GenConfig(layout="random-planar", seed=2))
    assert dumps_scene(a) != dumps_scene(b)


def test_grid_nearest_road_equals_gt():
    s = generate_scene(GenConfig(layout="grid", grid_rows=2, grid_cols=2, lanes_per_road=(1, 1), seed=3))
    assert knn_associate(s).labels == s.gt.labels


def test_radial_junction_paths():
    s = generate_scene(GenConfig(layout="radial", radial_arms=3, seed=4))
    pidx = enumerate_paths(s.hd)
    # arms meet at the junction, so most lane paths continue from one road
    # onto another; count paths whose ground truth spans >= 2 distinct roads
    crossing = sum(1 for path in pidx.paths if len({s.gt.labels[c] for c in path}) >= 2)
    assert len(pidx.paths) >= 3
    assert crossing >= 3


@pytest.mark.parametrize("layout", ["grid", "radial", "random-planar"])
def test_layouts_validate_and_cover(layout):
    for seed in range(3):
        s = generate_scene(GenConfig(layout=layout, seed=seed))
        validate_scene(s)
        assert s.gt.covers(s.hd)
        assert len(s.sd.roads) > 0 and len(s.hd.centerlines) > 0


def test_generation_infeasible_layout_errors():
    # far too many roads for the requested clearance in a small extent
    cfg = GenConfig(layout="random-planar", sd_extent=(10.0, 10.0), random_roads=40, road_clearance=8.0, seed=0)
    with pytest.raises(GenerationError):
        generate_scene(cfg)


# ---------------------------------------------------------------------------
# perturbation


def test_gps_shift_rigid_translation():
    s = generate_scene(GenConfig(seed=7))
    p = perturb_scene(s, PerturbConfig(gps_shift=(3.0, 0.0), seed=1))
    assert p.gt.labels == s.gt.labels
    assert p.sd == s.sd
    for c0, c1 in zip(s.hd.centerlines, p.hd.centerlines):
        assert c1.vector.p1.x == pytest.approx(c0.vector.p1.x + 3.0)
        assert c1.vector.p1.y == pytest.approx(c0.vector.p1.y)
        assert c1.vector.p2.x == pytest.approx(c0.vector.p2.x + 3.0)
    for b0, b1 in zip(s.hd.boundaries, p.hd.boundaries):
        for q0, q1 in zip(b0.points, b1.points):
            assert q1 == Point2(q0.x + 3.0, q0.y)


def test_zero_perturb_is_identity():
    s = generate_scene(GenConfig(seed=8))
    p = perturb_scene(s, PerturbConfig(seed=9))
    assert p.sd == s.sd and p.hd == s.hd and p.gt == s.gt


def test_full_dropout_empties_hd():
    s = generate_scene(GenConfig(seed=9))
    p = perturb_scene(s, PerturbConfig(dropout_rate=1.0, seed=2))
    assert len(p.hd.centerlines) == 0
    assert p.gt.labels == {}


def test_dropout_does_not_restitch():
    s = generate_scene(GenConfig(seed=10))
    p = perturb_scene(s, PerturbConfig(dropout_rate=0.3, seed=3))
    survivors = {c.id for c in p.hd.centerlines}
    # every surviving edge must already have been an edge before dropout;
    # no predecessor-successor bridging across a removed node
    original = set(s.hd.edges)
    for e in p.hd.edges:
        assert e in original
    for a, b in p.hd.edges:
        assert a in survivors and b in survivors


def test_oversegmentation_splits_and_conserves_length():
    s = generate_scene(GenConfig(seed=11))
    p = perturb_scene(s, PerturbConfig(oversegment_rate=1.0, seed=4))
    assert len(p.hd.centerlines) == 2 * len(s.hd.centerlines)
    # arc length conserved path by path
    total0 = sum(c.vector.length for c in s.hd.centerlines)
    total1 = sum(c.vector.length for c in p.hd.centerlines)
    assert total1 == pytest.approx(total0, rel=1e-9)
    # both halves inherit the parent label
    for c in s.hd.centerlines:
        parent_label = s.gt.labels[c.id]
        mid = c.vector.midpoint
        halves = [
            d for d in p.hd.centerlines
            if d.vector.p1 == mid or d.vector.p2 == mid
        ]
        assert len(halves) >= 2
        for d in halves[:2]:
            assert p.gt.labels[d.id] == parent_label


def test_oversegment_two_vector_path_becomes_four():
    s = generate_scene(GenConfig(seed=12))
    pidx0 = enumerate_paths(s.hd)
    p = perturb_scene(s, PerturbConfig(oversegment_rate=1.0, seed=5))
    pidx1 = enumerate_paths(p.hd)
    by_len0 = sorted(len(q) for q in pidx0.paths)
    by_len1 = sorted(len(q) for q in pidx1.paths)
    assert by_len1 == [2 * n for n in by_len0]


def test_jitter_moves_centerlines_only():
    s = generate_scene(GenConfig(seed=13))
    p = perturb_scene(s, PerturbConfig(jitter_sigma=0.2, seed=6))
    assert p.sd == s.sd
    assert p.hd.boundaries == s.hd.boundaries
    moved = any(
        c0.vector.p1 != c1.vector.p1 or c0.vector.p2 != c1.vector.p2
        for c0, c1 in zip(s.hd.centerlines, p.hd.centerlines)
    )
    assert moved
    assert p.gt.labels == s.gt.labels


def test_perturb_deterministic():
    s = generate_scene(GenConfig(seed=14))
    cfg = PerturbConfig(gps_shift=2.0, dropout_rate=0.2, jitter_sigma=0.1, oversegment_rate=0.2, seed=7)
    assert dumps_scene(perturb_scene(s, cfg)) == dumps_scene(perturb_scene(s, cfg))


def test_perturbed_scene_still_validates():
    s = generate_scene(GenConfig(seed=15))
    p = perturb_scene(s, PerturbConfig(gps_shift=2.0, dropout_rate=0.2, oversegment_rate=0.3, seed=8))
    validate_scene(p)
    assert p.gt.covers(p.hd)


# ---------------------------------------------------------------------------
# augmentation


def test_flip_negates_x_and_reflects_theta():
    s = generate_scene(GenConfig(seed=16))
    a = augment_scene(s, AugConfig(flip_p=1.0, rotate_p=0.0, scale_range=(1.0, 1.0), jitter_sigma=0.0, grid_sample=None, seed=9))
    assert a.gt.labels == s.gt.labels
    for r0, r1 in zip(s.sd.roads, a.sd.roads):
        for q0, q1 in zip(r0.points, r1.points):
            assert q1 == Point2(-q0.x, q0.y)
    for c0, c1 in zip(s.hd.centerlines, a.hd.centerlines):
        assert c1.vector.p1 == Point2(-c0.vector.p1.x, c0.vector.p1.y)
        want = math.atan2(c0.vector.p2.y - c0.vector.p1.y, -(c0.vector.p2.x - c0.vector.p1.x))
        if want == math.pi:
            want = -math.pi
        assert c1.vector.theta == pytest.approx(want)


def test_augment_identity_config_is_noop():
    s = generate_scene(GenConfig(seed=17))
    a = augment_scene(s, AugConfig(rotate_p=0.0, scale_range=(1.0, 1.0), flip_p=0.0, jitter_sigma=0.0, grid_sample=None, seed=10))
    assert a.sd == s.sd and a.hd == s.hd and a.gt == s.gt


def test_grid_sample_dedupes_same_cell():
    s = generate_scene(GenConfig(seed=18))
    # augment with the default resample cell sizes; identical vectors share
    # a cell and collapse, distinct ones survive
    a = augment_scene(s, AugConfig(rotate_p=0.0, scale_range=(1.0, 1.0), flip_p=0.0, jitter_sigma=0.0, grid_sample=(0.1, 0.1, math.pi / 16), seed=11))
    # generated scenes have no duplicate cells, so nothing is removed
    assert len(a.hd.centerlines) == len(s.hd.centerlines)


def test_grid_sample_crop_covers_only_the_kept_centerlines():
    # centerline 1 shares centerline 0's cell and reaches further out; once
    # it is dropped, the observed HD crop ends at centerline 0
    s = Scene(
        sd=SdGraph(roads=(Road(0, (Point2(0.0, 0.0), Point2(20.0, 0.0))),), edges=()),
        hd=HdGraph(centerlines=(
            Centerline(0, DirVec.from_points(Point2(10.0, 0.0), Point2(10.5, 0.0))),
            Centerline(1, DirVec.from_points(Point2(10.02, 0.01), Point2(10.6, 0.01))),
        ), edges=()),
        gt=Association(labels={0: 0, 1: 0}),
        meta={"crop": {"sd": [20.0, 1.0], "hd": [1.0, 1.0]}},
    )
    cfg = AugConfig(rotate_p=0.0, scale_range=(1.0, 1.0), flip_p=0.0, jitter_sigma=0.0,
                    grid_sample=(1.0, 1.0, math.pi / 8), seed=0)
    a = augment_scene(s, cfg)
    assert a.hd.node_ids == (0,)
    assert a.meta["crop"]["hd"] == [10.5, 1.0]
    assert a == augment_reference(s, cfg)


def test_rigid_augment_preserves_nearest_road_recovery():
    s = generate_scene(GenConfig(seed=19))
    a = augment_scene(s, AugConfig(rotate_p=1.0, rotate_range_deg=(10.0, 80.0), scale_range=(0.8, 1.2), flip_p=1.0, jitter_sigma=0.0, grid_sample=None, seed=12))
    assert knn_associate(a).labels == a.gt.labels


def test_augment_deterministic():
    s = generate_scene(GenConfig(seed=20))
    cfg = AugConfig(rotate_p=1.0, scale_range=(0.9, 1.1), flip_p=0.5, jitter_sigma=0.05, seed=13)
    assert dumps_scene(augment_scene(s, cfg)) == dumps_scene(augment_scene(s, cfg))


def test_generated_hd_is_always_dag():
    for seed in range(6):
        s = generate_scene(GenConfig(layout="random-planar", seed=seed))
        enumerate_paths(s.hd)  # raises on a cycle


@st.composite
def crop_lines(draw):
    """A straight line, an HD crop and a spacing: endpoints are drawn freely or
    exactly on a crop edge, and some lines run parallel to an axis."""
    hx, hy = draw(st.floats(0.5, 40.0)), draw(st.floats(0.5, 40.0))

    def coord(half):
        return draw(st.one_of(st.floats(-60.0, 60.0), st.sampled_from([-half, 0.0, half])))

    start = Point2(coord(hx), coord(hy))
    axis = draw(st.sampled_from(["any", "x", "y"]))
    end = Point2(start.x if axis == "y" else coord(hx), start.y if axis == "x" else coord(hy))
    assume(math.hypot(end.x - start.x, end.y - start.y) >= 1e-3)
    return (start, end), (hx, hy), draw(st.floats(0.2, 15.0))


@given(crop_lines())
@example(((Point2(-20.0, 5.0), Point2(20.0, 5.0)), (15.0, 30.0), 3.0))
@example(((Point2(15.0, -40.0), Point2(15.0, 40.0)), (15.0, 30.0), 3.0))
@example(((Point2(-15.0, 30.0), Point2(40.0, -33.0)), (15.0, 30.0), 1.7))
@example(((Point2(50.0, 50.0), Point2(20.0, 35.0)), (15.0, 30.0), 3.0))
@settings(max_examples=300, deadline=None)
def test_crop_run_is_the_one_run_of_inside_samples(case):
    line, (hx, hy), spacing = case
    run, at_start, at_end = _crop_run(line, GenConfig(hd_extent=(hx, hy), vector_spacing_hd=spacing))
    samples = sample_polyline(line, spacing)
    inside = [abs(p.x) <= hx and abs(p.y) <= hy for p in samples]
    assert re.fullmatch("0*1*0*", "".join("01"[f] for f in inside)), "inside samples are not one run"
    assert run == list(compress(samples, inside))
    assert (at_start, at_end) == (inside[0], inside[-1])


@pytest.mark.parametrize("name", ["boundary_margin", "carriageway_sep", "road_clearance"])
def test_negative_distances_are_refused_naming_the_field(name):
    with pytest.raises(ConfigError) as exc:
        GenConfig(**{name: -1.5})
    assert str(exc.value) == f"{name}: must be >= 0, got -1.5"
    GenConfig(**{name: 0.0})


# ---------------------------------------------------------------------------
# pinned bytes, and the per-point reference of perturb and augment

PIN_PERTURB = PerturbConfig(gps_shift=1.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.25, seed=4)
PIN_AUGMENT = AugConfig(rotate_range_deg=(-5.0, 5.0), rotate_p=1.0, scale_range=(0.8, 1.2), flip_p=1.0,
                        jitter_sigma=0.01, jitter_clip=0.012, grid_sample=(2.0, 2.0, math.pi / 4), seed=6)
# sha256 of `dumps_scene` after generate, then perturb, then augment, recorded
# from the per-point implementation that `oracles.perturb_reference` and
# `oracles.augment_reference` keep
PINNED = {
    "grid": (
        "1dc2c9682fc190453836cf0b6d006116d8549884ea012563d2dc10e0f593269d",
        "34bde3a2a6291b0ada1cac820a4c693e1048904d2ea3e0d0eb94841ff7df1814",
        "a08f2a59ad93d98bb9d6c6fdb52f4aaf6d5d52511cdf41cef3be1107a7e80ad6",
    ),
    "radial": (
        "2adfbff809ce34c19c9f3fb9cce39213a05c0cb9f56d9811f6814a33443826fc",
        "2e3557fbc20f70ae5d7d3d51803dabae2f6eb6009fea414e7b7de96d437ccaef",
        "2da814fe987cdb62e995a8d18d3b36d10a7dc262942c4535ef1c21c67e00891c",
    ),
    "random-planar": (
        "ab946031a9d4e17e31ea7decb080e999c8cbfc5a6f1f9fdf4b01cfa414dace7a",
        "1f1124a281fa96f4de8ab3a221abeb48c7596e98ff9ebcfaa8e621d36e63bd69",
        "b062e4e479479785c503663671d1b40e7fd9371c352f1e60bf14daac83558310",
    ),
}


def sha256(scene) -> str:
    return hashlib.sha256(dumps_scene(scene).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("layout", sorted(PINNED))
def test_generate_perturb_augment_bytes_are_pinned(layout):
    s = generate_scene(GenConfig(layout=layout, hd_extent=(40.0, 40.0), seed=3))
    p = perturb_scene(s, PIN_PERTURB)
    a = augment_scene(p, PIN_AUGMENT)
    assert (sha256(s), sha256(p), sha256(a)) == PINNED[layout]
    # every step of both ops took part
    assert p.meta["perturb"]["gps_shift"] != [0.0, 0.0]
    assert max(p.hd.node_ids) > max(s.hd.node_ids)  # oversegmented
    assert set(s.hd.node_ids) - set(p.hd.node_ids)  # dropped
    assert a.meta["augment"]["flip"] and a.meta["augment"]["angle_rad"] != 0.0
    assert a.meta["augment"]["scale"] != 1.0
    assert len(a.hd.centerlines) < len(p.hd.centerlines)  # grid-deduplicated


SHIFTS = st.one_of(
    st.just((0.0, 0.0)),
    st.floats(0.0, 3.0),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
GRIDS = st.sampled_from([None, (0.1, 0.1, math.pi / 16), (2.0, 2.0, math.pi / 4)])
NO_PERTURB = dict(shift=(0.0, 0.0), dropout=0.0, jitter=0.0, overseg=0.0)
RIGID = dict(rotate_p=1.0, flip_p=1.0, scale=(0.8, 1.2))
IDENTITY = dict(rotate_p=0.0, flip_p=0.0, scale=(1.0, 1.0))


@given(
    layout=st.sampled_from(["grid", "radial", "random-planar"]),
    crop=st.sampled_from([(15.0, 30.0), (75.0, 75.0)]),
    seed=st.integers(0, 40),
    shift=SHIFTS,
    dropout=st.sampled_from([0.0, 0.2, 1.0]),
    jitter=st.sampled_from([0.0, 0.3]),
    overseg=st.sampled_from([0.0, 0.3, 1.0]),
    rotate_p=st.sampled_from([0.0, 0.5, 1.0]),
    flip_p=st.sampled_from([0.0, 0.5, 1.0]),
    scale=st.sampled_from([(1.0, 1.0), (0.9, 1.1)]),
    aug_jitter=st.sampled_from([(0.0, 0.02), (0.005, 0.02), (0.02, 0.005), (0.01, 0.0)]),
    grid=GRIDS,
    aug_seed=st.integers(0, 10**6),
)
@example(layout="grid", crop=(15.0, 30.0), seed=0, **NO_PERTURB, **IDENTITY,
         aug_jitter=(0.0, 0.02), grid=(2.0, 2.0, math.pi / 4), aug_seed=0)  # grid dedup alone
@example(layout="radial", crop=(75.0, 75.0), seed=1, shift=0.0, dropout=1.0, jitter=0.3, overseg=1.0,
         **RIGID, aug_jitter=(0.005, 0.02), grid=(0.1, 0.1, math.pi / 16), aug_seed=1)  # everything dropped
@example(layout="random-planar", crop=(75.0, 75.0), seed=2, shift=(0.0, 0.0), dropout=0.0, jitter=0.0,
         overseg=1.0, **RIGID, aug_jitter=(0.0, 0.02), grid=None, aug_seed=2)  # every centerline split
@example(layout="grid", crop=(75.0, 75.0), seed=3, shift=(1.5, -0.5), dropout=0.2, jitter=0.0, overseg=0.0,
         **IDENTITY, aug_jitter=(0.02, 0.005), grid=None, aug_seed=3)  # identity transform, clipped jitter
@settings(max_examples=60, deadline=None)
def test_array_pass_matches_the_per_point_reference(
    layout, crop, seed, shift, dropout, jitter, overseg, rotate_p, flip_p, scale, aug_jitter, grid, aug_seed
):
    s = generate_scene(GenConfig(layout=layout, hd_extent=crop, seed=seed))
    pcfg = PerturbConfig(gps_shift=shift, dropout_rate=dropout, jitter_sigma=jitter, oversegment_rate=overseg,
                         seed=seed)
    acfg = AugConfig(rotate_p=rotate_p, flip_p=flip_p, scale_range=scale, jitter_sigma=aug_jitter[0],
                     jitter_clip=aug_jitter[1], grid_sample=grid, seed=aug_seed)
    p, p_ref = perturb_scene(s, pcfg), perturb_reference(s, pcfg)
    assert dumps_scene(p) == dumps_scene(p_ref)
    assert p == p_ref  # headings too, which the bytes leave out
    for source in (s, p):
        a, a_ref = augment_scene(source, acfg), augment_reference(source, acfg)
        assert dumps_scene(a) == dumps_scene(a_ref)
        assert a == a_ref

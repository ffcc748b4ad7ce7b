"""Topology-constrained beam search, pinned against exhaustive enumeration
and against the per-path decoder it replaced."""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapassoc.assocmatrix import AssocMatrix
from mapassoc.baselines import distance_assoc_matrix
from mapassoc.decoder import DecodeResult, DecoderConfig, beam_decode, decode_association
from mapassoc.errors import ConfigError, LabelError
from mapassoc.geometry import HdGraph, Point2, Road, Scene, SdGraph, enumerate_paths
from mapassoc.mat import desk_config, init_weights, mat_associate
from mapassoc.scenegen import GenConfig, PerturbConfig, generate_scene, perturb_scene

from conftest import make_centerline
from oracles import (
    beam_decode_reference,
    brute_beam,
    decode_association_reference,
    decode_merge_reference,
    init_on_rows_reference,
)


def amat_of(rows, cl_ids, road_ids):
    return AssocMatrix(
        probs=np.asarray(rows, dtype=np.float32), centerline_ids=cl_ids, road_ids=road_ids
    )


# ---------------------------------------------------------------------------
# seed cell


def beam_seed(amat, path) -> tuple:
    """The (path position, road id) the beam search starts a lane path from.

    Each of the path's rows is followed by an all-zero row: the beam cannot
    extend from the seed, the argmax fallback scores -inf, and every later
    step is a dead end too, so every position but the seed is a fallback.
    """
    rows = np.vstack([amat.probs, np.zeros((1, amat.n_roads), dtype=amat.probs.dtype)])
    zero = len(amat.probs)
    spaced = [r for i in amat.row_indices(path) for r in (i, zero)]
    (res,) = beam_decode(rows, amat.road_ids, (), paths=[spaced])
    (seed,) = set(range(len(spaced))) - set(res.fallback_positions)
    assert seed % 2 == 0
    return seed // 2, res.labels[seed]


def test_beam_seed_takes_global_max():
    amat = amat_of(
        [[0.1, 0.2, 0.7], [0.05, 0.9, 0.05], [0.3, 0.4, 0.3]], (10, 11, 12), (0, 5, 9)
    )
    assert beam_seed(amat, [10, 11, 12]) == (1, 5)


def test_beam_seed_uniform_breaks_ties_low():
    amat = amat_of(np.full((2, 3), 1.0 / 3.0), (4, 6), (2, 5, 8))
    assert beam_seed(amat, [4, 6]) == (0, 2)


def test_beam_seed_follows_path_order():
    amat = amat_of([[0.9, 0.1], [0.2, 0.8]], (0, 1), (0, 1))
    # reversing the path changes which row is position 0
    assert beam_seed(amat, [0, 1]) == (0, 0)
    assert beam_seed(amat, [1, 0]) == (1, 0)


@st.composite
def tied_matrices(draw):
    """An AssocMatrix whose rows repeat cell values or are constant, and a lane path over it."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 6))
    weights = []
    for _ in range(n_rows):
        if draw(st.booleans()):
            weights.append([1] * n_cols)  # a constant row
        else:
            row = draw(st.lists(st.integers(0, 2), min_size=n_cols, max_size=n_cols))
            weights.append(row if any(row) else [1] * n_cols)
    rows = np.asarray(weights, dtype=np.float64)
    rows /= rows.sum(axis=1, keepdims=True)
    amat = amat_of(rows, tuple(range(10, 10 + n_rows)), tuple(range(3, 3 + 2 * n_cols, 2)))
    path = draw(st.permutations(amat.centerline_ids))[: draw(st.integers(1, n_rows))]
    return amat, path


@given(tied_matrices())
@settings(max_examples=200, deadline=None)
def test_beam_seed_is_the_best_cell_of_the_path_rows(case):
    amat, path = case
    t, rid = beam_seed(amat, path)
    assert (t, amat.road_ids.index(rid)) == init_on_rows_reference(amat.rows_for(path))


# ---------------------------------------------------------------------------
# single-path beam


def test_beam_single_token_is_argmax():
    res = beam_decode(np.array([[0.2, 0.8]]), [3, 9], ())
    assert res.labels == (9,)
    assert res.score == pytest.approx(math.log(0.8))
    assert not res.fallback
    assert res.fallback_positions == ()


def test_beam_full_connectivity_reduces_to_argmax():
    rng = np.random.default_rng(0)
    rows = rng.uniform(0.05, 1.0, size=(6, 4))
    rows /= rows.sum(axis=1, keepdims=True)
    road_ids = [0, 1, 2, 3]
    edges = tuple((a, b) for a in road_ids for b in road_ids if a != b)
    res = beam_decode(rows, road_ids, edges, DecoderConfig(k=8))
    assert res.labels == tuple(int(np.argmax(r)) for r in rows)
    assert res.score == pytest.approx(float(np.log(rows.max(axis=1)).sum()))


def test_beam_connectivity_overrides_greedy_argmax():
    # greedy would pick (1, 3, 3) but road 1 never connects to road 3
    rows = np.array([[0.8, 0.15, 0.05], [0.1, 0.35, 0.55], [0.05, 0.15, 0.8]])
    res = beam_decode(rows, [1, 2, 3], ((1, 2), (2, 3)))
    assert res.labels == (1, 2, 3)
    assert res.score == pytest.approx(math.log(0.8 * 0.35 * 0.8))
    assert not res.fallback


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
def test_beam_grows_over_the_whole_path(length):
    # a ring of roads never dead-ends, so the beam labels every position
    # itself and the score sums the chosen cells
    rng = np.random.default_rng(length)
    rows = rng.uniform(0.05, 1.0, size=(length, 3))
    rows /= rows.sum(axis=1, keepdims=True)
    res = beam_decode(rows, [0, 1, 2], ((0, 1), (1, 2), (2, 0)), DecoderConfig(k=2))
    assert len(res.labels) == length
    assert res.fallback_positions == ()
    for a, b in zip(res.labels, res.labels[1:]):
        assert a == b or (a, b) in {(0, 1), (1, 2), (2, 0)}
    assert res.score == pytest.approx(sum(math.log(rows[t, j]) for t, j in enumerate(res.labels)), rel=1e-12)


def test_beam_dead_end_falls_back_to_argmax():
    # no edges and disjoint support: the connected frontier is empty
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    res = beam_decode(rows, [1, 2], ())
    assert res.labels == (1, 2)
    assert res.fallback
    assert res.fallback_positions == (1,)
    assert res.score == pytest.approx(0.0)


def test_fallback_is_derived_from_its_positions():
    assert "fallback" not in {f.name for f in dataclasses.fields(DecodeResult)}
    assert not DecodeResult(labels=(1, 2), score=0.0).fallback
    assert DecodeResult(labels=(1, 2), score=0.0, fallback_positions=(1,)).fallback
    with pytest.raises(TypeError):
        DecodeResult(labels=(1,), score=0.0, fallback=True)


def test_beam_deterministic():
    rng = np.random.default_rng(1)
    rows = rng.uniform(0.01, 1.0, size=(5, 5))
    rows /= rows.sum(axis=1, keepdims=True)
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    a = beam_decode(rows, range(5), edges, DecoderConfig(k=3))
    b = beam_decode(rows, range(5), edges, DecoderConfig(k=3))
    assert a == b


def test_beam_validates_inputs():
    with pytest.raises(ConfigError):
        beam_decode(np.zeros((0, 2)), [0, 1], ())
    with pytest.raises(ConfigError):
        beam_decode(np.zeros(3), [0], ())
    with pytest.raises(ConfigError, match="road ids"):
        beam_decode(np.ones((2, 2)) * 0.5, [0], ())
    with pytest.raises(LabelError, match="empty lane path"):
        beam_decode(np.ones((2, 2)) * 0.5, [0, 1], (), paths=[[0], []])
    for path in ([1, -1], [0, 2]):
        with pytest.raises(ConfigError, match=r"row indices must lie in \[0, 2\)"):
            beam_decode(np.ones((2, 2)) * 0.5, [0, 1], (), paths=[path])
    assert beam_decode(np.zeros((0, 0)), [], (), paths=[]) == []
    with pytest.raises(ConfigError):
        DecoderConfig(k=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
def test_beam_rejects_cells_that_are_not_probabilities(bad):
    rows = np.full((3, 4), 0.25)
    rows[1, 2] = bad
    rows[2, 0] = math.nan  # a later bad cell is not the one named
    with pytest.raises(ConfigError, match=f"row 1 column 2 holds {bad}, not a finite probability"):
        beam_decode(rows, range(4), ())
    with pytest.raises(ConfigError, match="row 1 column 2"):
        beam_decode(rows, range(4), (), paths=[[0]])


def test_beam_accepts_negative_zero():
    rows = np.array([[-0.0, 1.0], [1.0, 0.0]])
    assert beam_decode(rows, [0, 1], ()) == beam_decode_reference(rows, [0, 1], ())


def random_instance(rng):
    t = int(rng.integers(2, 6))
    k = int(rng.integers(2, 7))
    rows = rng.uniform(0.05, 1.0, size=(t, k))
    rows /= rows.sum(axis=1, keepdims=True)
    edges = set()
    for _ in range(int(rng.integers(0, k * 2))):
        a, b = rng.integers(0, k, size=2)
        if a != b:
            edges.add((int(a), int(b)))
    return rows, list(range(k)), tuple(sorted(edges))


def test_saturated_beam_matches_brute_force():
    rng = np.random.default_rng(123)
    for _ in range(40):
        rows, road_ids, edges = random_instance(rng)
        res = beam_decode(rows, road_ids, edges, DecoderConfig(k=50000))
        want_labels, want_score = brute_beam(rows, road_ids, edges)
        assert want_labels is not None
        assert res.labels == want_labels
        assert res.score == pytest.approx(want_score, rel=1e-12)
        assert not res.fallback


def test_beam_respects_connectivity():
    rng = np.random.default_rng(7)
    for _ in range(30):
        rows, road_ids, edges = random_instance(rng)
        res = beam_decode(rows, road_ids, edges, DecoderConfig(k=3))
        if res.fallback:
            continue  # argmax fill is exempt by design
        allowed = set(edges)
        for a, b in zip(res.labels, res.labels[1:]):
            assert a == b or (a, b) in allowed


def test_beam_score_monotone_in_width_on_fixed_instances():
    # not a universal beam-search guarantee; pinned on these seeded instances
    rng = np.random.default_rng(123)
    for _ in range(40):
        rows, road_ids, edges = random_instance(rng)
        prev = -math.inf
        for width in (1, 2, 4, 8, 16, 64, 1024):
            res = beam_decode(rows, road_ids, edges, DecoderConfig(k=width))
            assert res.score >= prev - 1e-12
            prev = res.score


# ---------------------------------------------------------------------------
# the per-scene kernel against the per-path reference


@st.composite
def decode_instances(draw):
    """Rows, road ids, edges, a config and lane paths as row indices."""
    k = draw(st.sampled_from([1, 2, 5, 100_000]))
    saturating = k == 100_000  # no pruning, so keep the beam small
    n_cols = draw(st.integers(1, 3 if saturating else 4))
    max_t = 4 if saturating else 7
    n_rows = draw(st.integers(1, max_t + 1))
    # few distinct cell values make score ties, and with them the label and
    # span tie-breaks, common; 0.0 cells are dead ends
    cells = st.sampled_from(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)) + [0.0])
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["cells", "constant", "zero"]))
        if kind == "cells":
            rows.append(draw(st.lists(cells, min_size=n_cols, max_size=n_cols)))
        else:
            rows.append([draw(cells) if kind == "constant" else 0.0] * n_cols)
    rows = np.array(rows, dtype=np.float64)
    if n_cols > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n_cols - 1), min_size=2, max_size=2, unique=True))
        rows[:, b] = rows[:, a]  # duplicated column
    if draw(st.booleans()):
        rows = rows.astype(np.float32)  # what AssocMatrix holds
    # unsorted and repeated ids; edges may name ids with no column
    road_ids = draw(st.lists(st.integers(0, 5), min_size=n_cols, max_size=n_cols))
    ends = st.sampled_from(road_ids + [6, 7])
    edges = draw(st.lists(st.tuples(ends, ends), max_size=12))
    paths = draw(
        st.lists(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=max_t), min_size=1, max_size=3)
    )
    return rows, road_ids, edges, DecoderConfig(k=k), paths


def bits(res):
    return struct.pack("<d", res.score)


@given(decode_instances())
@example((  # -inf ties after a dead end: the label tie-break decides
    np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.25, 1.0, 0.5], [0.0, 0.0, 0.0]]),
    [1, 1, 0], [(0, 0), (1, 0)], DecoderConfig(k=2), [[0, 1, 2, 3, 4]],
))
@example((  # k = 1 prunes the best sequence (1, 1, 1), which k = 2 keeps
    np.array([[0.5, 1.0], [0.75, 0.5], [0.5, 1.0]]), [0, 1], [(1, 0)], DecoderConfig(k=1), [[0, 1, 2]],
))
@settings(max_examples=500, deadline=None)
def test_beam_equals_per_path_reference(instance):
    rows, road_ids, edges, cfg, paths = instance
    got = beam_decode(rows, road_ids, edges, cfg, paths=paths)
    want = [beam_decode_reference(rows[p], road_ids, edges, cfg) for p in paths]
    assert got == want
    assert [bits(r) for r in got] == [bits(r) for r in want]
    one = beam_decode(rows[paths[0]], road_ids, edges, cfg)
    assert one == want[0] and bits(one) == bits(want[0])


LAYOUTS = ("grid", "radial", "random-planar")


@pytest.fixture(scope="module")
def generated_scenes():
    scenes = []
    for i in range(6):
        scene = generate_scene(GenConfig(layout=LAYOUTS[i % 3], seed=i))
        noise = PerturbConfig(gps_shift=2.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.1, seed=i)
        scenes.append(perturb_scene(scene, noise))
    return scenes


@pytest.mark.parametrize("source", ["distance", "mat"])
@pytest.mark.parametrize("k", [1, 5])
def test_decode_association_equals_per_path_reference(generated_scenes, source, k):
    mcfg = desk_config()
    weights = init_weights(mcfg, seed=0)
    cfg = DecoderConfig(k=k)
    for scene in generated_scenes:
        if source == "distance":
            amat = distance_assoc_matrix(scene)
        else:
            amat, _ = mat_associate(scene, mcfg, weights)
        got = decode_association(scene, amat, cfg)
        want = decode_association_reference(scene, amat, cfg)
        assert got.labels == want.labels
        assert got.meta == want.meta


# ---------------------------------------------------------------------------
# scene-level decoding


def test_decode_association_recovers_tiny(tiny):
    assoc = decode_association(tiny, distance_assoc_matrix(tiny))
    assert assoc.labels == tiny.gt.labels
    assert assoc.meta == {"method": "beam", "k": 5}


def diamond_scene():
    sd = SdGraph(
        roads=(
            Road(id=0, points=(Point2(0.0, 0.0), Point2(10.0, 0.0))),
            Road(id=1, points=(Point2(0.0, 6.0), Point2(10.0, 6.0))),
        ),
        edges=(),
    )
    hd = HdGraph(
        centerlines=tuple(
            make_centerline(i, (float(i), 1.0), (float(i) + 1.0, 1.0)) for i in range(4)
        ),
        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
    )
    return Scene(sd=sd, hd=hd)


def test_decode_association_shared_tokens_take_higher_scoring_path():
    scene = diamond_scene()
    amat = amat_of(
        [[0.6, 0.4], [0.99, 0.01], [0.01, 0.99], [0.6, 0.4]], (0, 1, 2, 3), (0, 1)
    )
    assoc = decode_association(scene, amat)
    # path (0,1,3) decodes all-road-0 with the better score than (0,2,3)
    assert assoc.labels == {0: 0, 1: 0, 2: 1, 3: 0}
    assert "fallback_paths" not in assoc.meta


def test_decode_association_score_tie_keeps_earlier_path():
    scene = diamond_scene()
    amat = amat_of(
        [[0.5, 0.5], [0.99, 0.01], [0.01, 0.99], [0.5, 0.5]], (0, 1, 2, 3), (0, 1)
    )
    assoc = decode_association(scene, amat)
    assert assoc.labels[0] == 0 and assoc.labels[3] == 0


@st.composite
def tied_lane_dags(draw):
    """A scene on a random lane DAG and a matrix whose rows are uniform over
    a subset of the roads, so lane paths often tie in score while giving a
    shared centerline different labels."""
    n = draw(st.integers(min_value=1, max_value=7))
    edges = tuple(e for e in ((a, b) for a in range(n) for b in range(a + 1, n)) if draw(st.booleans()))
    hd = HdGraph(centerlines=tuple(make_centerline(i, (float(i), 0.0), (float(i) + 1.0, 0.0)) for i in range(n)),
                 edges=edges)
    n_roads = draw(st.integers(min_value=1, max_value=3))
    roads = tuple(Road(id=r, points=(Point2(0.0, 5.0 * r), Point2(10.0, 5.0 * r))) for r in range(n_roads))
    road_edges = tuple(e for e in ((a, b) for a in range(n_roads) for b in range(n_roads) if a != b) if draw(st.booleans()))
    rows = []
    for _ in range(n):
        cols = draw(st.lists(st.integers(0, n_roads - 1), min_size=1, max_size=n_roads, unique=True))
        rows.append([1.0 / len(cols) if j in cols else 0.0 for j in range(n_roads)])
    scene = Scene(sd=SdGraph(roads=roads, edges=road_edges), hd=hd)
    return scene, amat_of(rows, tuple(range(n)), tuple(range(n_roads))), draw(st.sampled_from([1, 2, 5]))


@given(tied_lane_dags())
@settings(max_examples=300, deadline=None)
def test_decode_association_merges_paths_as_the_loop_over_the_tuple_view(case):
    scene, amat, k = case
    cfg = DecoderConfig(k=k)
    paths = enumerate_paths(scene.hd).paths
    results = beam_decode(amat.probs, amat.road_ids, scene.sd.edges, cfg,
                          paths=[amat.row_indices(path) for path in paths])
    got = decode_association(scene, amat, cfg)
    assert got.labels == decode_merge_reference(paths, results)
    assert got.meta.get("fallback_paths", []) == [i for i, res in enumerate(results) if res.fallback]


def test_decode_association_reports_fallback_paths():
    scene = diamond_scene()
    amat = amat_of(
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], (0, 1, 2, 3), (0, 1)
    )
    assoc = decode_association(scene, amat)
    assert assoc.meta["fallback_paths"] == [0]
    assert assoc.covers(scene.hd)

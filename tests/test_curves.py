"""Grid quantization, space-filling curve indices, token serialization."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapassoc.curves import (
    CURVE_KINDS,
    GridCoord,
    SerializationOrder,
    curve_index,
    curve_index_batch,
    grid_encode,
    grid_encode_batch,
    sort_tokens,
)
from mapassoc.errors import RangeError
from mapassoc.geometry import DirVec, Point2

from oracles import curve_keys_reference, grid_encode_reference, morton_ref


def vec(p1, p2) -> DirVec:
    return DirVec.from_points(Point2(*p1), Point2(*p2))


# ---------------------------------------------------------------------------
# grid quantization


def test_grid_encode_axis_aligned():
    c = grid_encode(vec((0.0, 0.0), (0.2, 0.0)), g=0.1, R=16)
    assert (c.x, c.y, c.r) == (1, 0, 0)


def test_grid_encode_half_turn():
    c = grid_encode(vec((1.0, 0.0), (0.0, 0.0)), g=0.1, R=16)
    assert c.r == 8


def test_grid_encode_floor_semantics_for_negatives():
    c = grid_encode(vec((-0.1, 0.0), (0.0, 0.0)), g=0.1, R=16)
    # centroid (-0.05, 0) -> floor(-0.5) = -1
    assert c.x == -1


def test_grid_encode_angle_bins_cover_circle():
    for k in range(16):
        theta = -math.pi + (k + 0.5) * (2 * math.pi / 16)
        p2 = (math.cos(theta), math.sin(theta))
        c = grid_encode(vec((0.0, 0.0), p2), g=1.0, R=16)
        # theta normalized into [0, 2pi) then floor-divided into R bins
        expected = int(((theta + 2 * math.pi) % (2 * math.pi)) / (2 * math.pi / 16))
        assert c.r == expected


@given(st.integers(min_value=-40, max_value=40))
@settings(max_examples=60, deadline=None)
def test_grid_encode_translation_covariant(k):
    # dyadic grid size keeps the shift arithmetic exact in binary floats
    g = 0.125
    base = vec((0.25, 0.375), (0.5, 0.625))
    shifted = vec((0.25 + k * g, 0.375), (0.5 + k * g, 0.625))
    a = grid_encode(base, g=g, R=16)
    b = grid_encode(shifted, g=g, R=16)
    assert (b.x - a.x, b.y, b.r) == (k, a.y, a.r)


def test_grid_encode_batch_matches_scalar():
    rng = np.random.default_rng(0)
    vecs = []
    for _ in range(50):
        p1 = rng.uniform(-5, 5, size=2)
        p2 = p1 + rng.uniform(0.1, 2.0, size=2)
        vecs.append(vec(tuple(p1), tuple(p2)))
    batch = grid_encode_batch([v.as_tuple() for v in vecs], g=0.1, R=16)
    for row, v in zip(batch, vecs):
        c = grid_encode(v, g=0.1, R=16)
        assert tuple(row) == (c.x, c.y, c.r)


@st.composite
def encodable_vectors(draw):
    """A vector with finite endpoints; one in four heads along -x, with theta exactly -pi."""
    coord = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    p1 = Point2(draw(coord), draw(coord))
    if draw(st.integers(0, 3)):
        p2 = Point2(draw(coord), draw(coord))
        assume(p2 != p1)
        return DirVec.from_points(p1, p2)
    return DirVec(p1, Point2(p1.x - 1.0, p1.y))


@given(st.lists(encodable_vectors(), min_size=1, max_size=20), st.sampled_from([(0.1, 16), (0.5, 7), (2.0, 1)]))
@settings(max_examples=200, deadline=None)
def test_grid_encode_matches_scalar_reference(vecs, setting):
    g, R = setting
    want = [grid_encode_reference(v, g, R) for v in vecs]
    assert [grid_encode(v, g=g, R=R) for v in vecs] == want
    assert [GridCoord(*row) for row in grid_encode_batch([v.as_tuple() for v in vecs], g=g, R=R).tolist()] == want


@pytest.mark.parametrize("g, R, message", [
    (1e-300, 16, "cell size 1e-300 puts a grid cell outside the int64 range"),
    (math.nan, 16, "cell size nan puts a grid cell outside the int64 range"),
    # a heading just below 0 wraps to 2 pi, whose sector index 2^63 R clamps only after the cast
    (0.1, 2**63 - 1, "sector count 9223372036854775807 puts a grid cell outside the int64 range"),
    (0.1, 2**63, r"sector count must be in \[1, 9223372036854775807\], got 9223372036854775808"),
    (0.1, 10**30, r"sector count must be in \[1, 9223372036854775807\], got 10{30}$"),
    (0.1, 0, r"sector count must be in \[1, 9223372036854775807\], got 0"),
], ids=["tiny-cell", "nan-cell", "sector-index-overflow", "R-2^63", "R-1e30", "R-0"])
def test_grid_encode_refuses_cells_beyond_int64(g, R, message):
    v = vec((0.0, 0.0), (1.0, -1e-20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing cast warns
        with pytest.raises(RangeError, match=message):
            grid_encode_batch([v.as_tuple()], g=g, R=R)


@pytest.mark.parametrize("p1, p2, g, R", [
    # the wrapped heading's sector index 2^62 fits, and is clamped to R - 1
    ((0.0, 0.0), (1.0, -1e-20), 0.1, 2**62),
    ((0.0, 0.0), (1.0, 0.0), 0.1, 2**63 - 1),
    ((1000.0, -1000.0), (1001.0, -999.0), 2.0**-50, 16),
    # x is exactly -2^62
    ((-(2.0**12), 0.0), (-(2.0**12), -1.0), 2.0**-50, 16),
], ids=["R-2^62", "R-int64-max", "cell-2^-50", "x-minus-2^62"])
def test_grid_encode_keeps_cells_that_fit_int64(p1, p2, g, R):
    v = vec(p1, p2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid_encode_batch([v.as_tuple()], g=g, R=R).tolist()
    assert [GridCoord(*row) for row in got] == [grid_encode_reference(v, g, R)]


# ---------------------------------------------------------------------------
# curve indices


def test_origin_is_curve_start():
    for kind in CURVE_KINDS:
        assert curve_index(GridCoord(0, 0, 0), kind) == 0


def test_z_order_unit_cells():
    # x occupies the least significant interleave slot
    assert curve_index(GridCoord(1, 0, 0), "z") == 1
    assert curve_index(GridCoord(0, 1, 0), "z") == 2
    assert curve_index(GridCoord(0, 0, 1), "z") == 4


def test_z_trans_permutes_axis_roles():
    # transposed variant maps (r, y, x) into the (x, y, r) interleave slots
    assert curve_index(GridCoord(0, 0, 1), "z-trans") == 1
    assert curve_index(GridCoord(0, 1, 0), "z-trans") == 2
    assert curve_index(GridCoord(1, 0, 0), "z-trans") == 4


def test_z_order_matches_interleave_reference():
    for x in range(8):
        for y in range(8):
            for r in range(8):
                assert curve_index(GridCoord(x, y, r), "z") == morton_ref(x, y, r)


def test_z_order_injective_in_range():
    seen = set()
    for x in range(8):
        for y in range(8):
            for r in range(8):
                seen.add(curve_index(GridCoord(x, y, r), "z"))
    assert len(seen) == 512


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["hilbert", "hilbert-trans"])
def test_hilbert_adjacency_exhaustive(order, kind):
    n = 1 << order
    cells = {}
    for x in range(n):
        for y in range(n):
            for r in range(n):
                cells[curve_index(GridCoord(x, y, r), kind, order=order)] = (x, y, r)
    assert len(cells) == n ** 3
    assert sorted(cells) == list(range(n ** 3))
    assert cells[0] == (0, 0, 0)
    for i in range(n ** 3 - 1):
        a, b = cells[i], cells[i + 1]
        assert sum(abs(u - v) for u, v in zip(a, b)) == 1


def test_curve_rejects_out_of_range():
    with pytest.raises(RangeError):
        curve_index(GridCoord(2, 0, 0), "z", order=1)
    with pytest.raises(RangeError):
        curve_index(GridCoord(-1, 0, 0), "z")


def test_curve_index_batch_matches_scalar():
    rng = np.random.default_rng(1)
    coords = rng.integers(0, 1 << 10, size=(200, 3))
    for kind in CURVE_KINDS:
        batch = curve_index_batch(coords, kind)
        for row, idx in zip(coords, batch):
            assert curve_index(GridCoord(*[int(v) for v in row]), kind) == int(idx)


# ---------------------------------------------------------------------------
# serialization order


def test_sort_single_token_identity():
    order = sort_tokens([GridCoord(3, 4, 5)], "hilbert")
    assert tuple(order.perm) == (0,)
    assert tuple(order.inv) == (0,)


@pytest.mark.parametrize("n", [0, 1, 2, 300])
@pytest.mark.parametrize("kind", CURVE_KINDS)
def test_inverse_is_derived_from_the_permutation(n, kind):
    assert [f.name for f in dataclasses.fields(SerializationOrder)] == ["perm"]
    coords = np.random.default_rng(n).integers(-40, 40, size=(n, 3))
    order = sort_tokens(coords, kind)
    assert order.inv.dtype == order.perm.dtype == np.int64 and order.inv.shape == (n,)
    assert (order.perm[order.inv] == np.arange(n)).all() and (order.inv[order.perm] == np.arange(n)).all()
    assert order.inv is order.inv  # computed once


def test_sort_in_order_tokens_identity():
    coords = [GridCoord(0, 0, 0), GridCoord(1, 0, 0), GridCoord(0, 1, 0), GridCoord(1, 1, 0)]
    # these are already ascending in z-index (0, 1, 2, 3)
    order = sort_tokens(coords, "z")
    assert list(order.perm) == [0, 1, 2, 3]


def test_sort_by_z_index_example():
    # z-indices (5, 0, 3) sort to positions (1, 2, 0)
    coords = [GridCoord(1, 0, 1), GridCoord(0, 0, 0), GridCoord(1, 1, 0)]
    assert curve_index(coords[0], "z") == 5
    assert curve_index(coords[1], "z") == 0
    assert curve_index(coords[2], "z") == 3
    order = sort_tokens(coords, "z")
    assert list(order.perm) == [1, 2, 0]


def test_sort_stable_on_ties():
    coords = [GridCoord(2, 2, 2)] * 4
    order = sort_tokens(coords, "hilbert")
    assert list(order.perm) == [0, 1, 2, 3]


def test_sort_handles_negative_coords():
    coords = [GridCoord(-5, -5, 0), GridCoord(-4, -5, 0)]
    order = sort_tokens(coords, "z")
    assert list(order.perm) == [0, 1]


@st.composite
def coord_lists(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    xs = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n))
    ys = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n))
    rs = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    return [GridCoord(x, y, r) for x, y, r in zip(xs, ys, rs)]


@given(coord_lists(), st.sampled_from(CURVE_KINDS))
@settings(max_examples=150, deadline=None)
def test_perm_inv_bijective(coords, kind):
    order = sort_tokens(coords, kind)
    n = len(coords)
    perm = list(order.perm)
    inv = list(order.inv)
    assert sorted(perm) == list(range(n))
    assert [perm[inv[j]] for j in range(n)] == list(range(n))
    assert [inv[perm[j]] for j in range(n)] == list(range(n))


@given(coord_lists(), st.sampled_from(CURVE_KINDS))
@settings(max_examples=100, deadline=None)
def test_perm_orders_by_curve_index(coords, kind):
    order = sort_tokens(coords, kind)
    ox = min(c.x for c in coords)
    oy = min(c.y for c in coords)
    orr = min(c.r for c in coords)
    keys = [curve_index(GridCoord(c.x - ox, c.y - oy, c.r - orr), kind) for c in coords]
    sorted_keys = [keys[i] for i in order.perm]
    assert sorted_keys == sorted(keys)


# ---------------------------------------------------------------------------
# keys against the fixed-order kernels kept in oracles


@st.composite
def cells_within(draw, order: int):
    """(N, 3) non-negative cells: each axis a spread of 0 to `order` bits, or one constant."""
    n = draw(st.integers(min_value=1, max_value=30))
    cols = []
    for _ in range(3):
        bits = draw(st.integers(min_value=0, max_value=order))
        top = (1 << bits) - 1
        if draw(st.booleans()):
            cols.append([draw(st.integers(0, top))] * n)  # a constant column
        else:
            cols.append(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    cells = np.array(cols, dtype=np.int64).T
    # repeat some rows, so equal keys (ties) occur
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return np.concatenate([cells, cells[repeats]])


@given(st.data(), st.integers(min_value=1, max_value=20), st.sampled_from(CURVE_KINDS))
@settings(max_examples=400, deadline=None)
def test_keys_equal_the_fixed_order_kernels(data, order, kind):
    cells = data.draw(cells_within(order))
    want = curve_keys_reference(cells, kind, order)
    np.testing.assert_array_equal(curve_index_batch(cells, kind, order), want)
    perm = sort_tokens(cells, kind, order).perm
    shifted = cells - cells.min(axis=0)
    np.testing.assert_array_equal(perm, np.argsort(curve_keys_reference(shifted, kind, order), kind="stable"))


@pytest.mark.parametrize("kind", CURVE_KINDS)
def test_hilbert_key_runs_at_the_lowest_exact_order(kind, monkeypatch):
    # an 11-bit spread at order 16 runs the transpose at order 13
    from mapassoc import curves

    seen = []
    original = curves._hilbert_transpose
    monkeypatch.setattr(curves, "_hilbert_transpose", lambda axes, order: seen.append(order) or original(axes, order))
    cells = np.array([[0, 0, 0], [(1 << 11) - 1, 5, 15]])
    np.testing.assert_array_equal(curve_index_batch(cells, kind, 16), curve_keys_reference(cells, kind, 16))
    assert seen == ([] if kind.startswith("z") else [13])


@pytest.mark.parametrize("kind", CURVE_KINDS)
def test_index_and_sort_compute_keys_at_one_lowest_order(kind, monkeypatch):
    # an 11-bit spread at order 16: Morton keys take 11 bit passes, Hilbert keys order 13
    from mapassoc import curves

    seen = []
    for name in ("_morton", "_hilbert"):
        kernel = getattr(curves, name)
        monkeypatch.setattr(curves, name, lambda axes, order, kernel=kernel: seen.append(order) or kernel(axes, order))
    cells = np.array([[0, 0, 0], [(1 << 11) - 1, 5, 15]])
    np.testing.assert_array_equal(curve_index_batch(cells, kind, 16), curve_keys_reference(cells, kind, 16))
    assert list(sort_tokens(cells, kind, 16).perm) == [0, 1]
    assert seen == ([11, 11] if kind.startswith("z") else [13, 13])


@given(st.data(), st.sampled_from(CURVE_KINDS), st.integers(min_value=17, max_value=21))
@settings(max_examples=150, deadline=None)
def test_sort_raises_the_order_for_a_wide_spread(data, kind, bits):
    hilbert = kind.startswith("hilbert")
    assume(not hilbert or bits <= 19)
    n = data.draw(st.integers(min_value=2, max_value=20))
    cells = np.array(data.draw(st.lists(
        st.tuples(st.integers(-(1 << 20), 1 << 20), st.integers(-9, 9), st.integers(0, 15)),
        min_size=n, max_size=n)), dtype=np.int64)
    cells[0, 0], cells[1, 0] = 0, (1 << (bits - 1))  # the x spread needs exactly `bits` bits
    cells[:, 0] = np.clip(cells[:, 0], 0, 1 << (bits - 1))
    shifted = cells - cells.min(axis=0)
    covering = 19 if hilbert else bits
    want = np.argsort(curve_keys_reference(shifted, kind, covering), kind="stable")
    np.testing.assert_array_equal(sort_tokens(cells, kind).perm, want)


@pytest.mark.parametrize("kind, order, limit", [
    ("hilbert", 16, 19), ("hilbert-trans", 16, 19), ("hilbert", 20, 20), ("hilbert", 14, 20),
    ("z", 16, 21), ("z-trans", 1, 21),
])
def test_sort_refuses_a_spread_past_the_uint64_key(kind, order, limit):
    fits = np.array([[0, 0, 0], [(1 << limit) - 1, 0, 0]])
    assert len(sort_tokens(fits, kind, order).perm) == 2
    wide = np.array([[-3, 0, 0], [(1 << limit) - 3, 0, 0]])
    with pytest.raises(RangeError) as exc:
        sort_tokens(wide, kind, order)
    assert str(exc.value) == (
        f"coordinate spread {1 << limit} needs {limit + 1} bits per axis; a {kind} key from order "
        f"{order} holds at most {limit} in uint64 (spread below {1 << limit})"
    )


def test_curve_index_keeps_its_range_at_the_requested_order():
    with pytest.raises(RangeError, match=r"coordinate 65536 outside \[0, 65536\) at order 16"):
        curve_index_batch(np.array([[1 << 16, 0, 0]]), "hilbert")
    with pytest.raises(RangeError, match=r"order must be in \[1, 20\], got 21"):
        sort_tokens(np.array([[0, 0, 0]]), "z", 21)

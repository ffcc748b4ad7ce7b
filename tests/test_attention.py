"""Rotary embedding and the two grouped attention ops, against dense oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mapassoc.curves import CURVE_KINDS, GridCoord
from mapassoc.errors import ConfigError, TopologyError
from mapassoc.geometry import PathIndex
from mapassoc.mat import attention
from mapassoc.mat.attention import (
    AttnWeights,
    gelu,
    layer_norm,
    path_attention,
    rope_rotate,
    spatial_attention,
)

from conftest import passthrough_attn, rand_attn
from oracles import (
    dense_attention,
    path_attention_reference,
    rope_reference,
    single_path_attention_reference,
    spatial_attention_reference,
)


def make_pidx(*paths):
    return PathIndex(paths=tuple(tuple(p) for p in paths))


# ---------------------------------------------------------------------------
# pointwise ops


def test_gelu_pins():
    assert gelu(np.array(0.0)) == 0.0
    assert float(gelu(np.array(1.0))) == pytest.approx(0.8413447460685429)
    assert float(gelu(np.array(20.0))) == pytest.approx(20.0)
    assert float(gelu(np.array(-20.0))) == pytest.approx(0.0, abs=1e-12)


def test_layer_norm_standardizes_rows():
    x = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    out = layer_norm(x, np.ones(3), np.zeros(3))
    want0 = (x[0] - 2.0) / math.sqrt(2.0 / 3.0 + 1e-5)
    np.testing.assert_allclose(out[0], want0, rtol=1e-12)
    np.testing.assert_allclose(out[1], 0.0, atol=1e-12)  # constant row -> zeros


def test_layer_norm_applies_affine():
    x = np.array([[1.0, 2.0, 3.0]])
    w = np.array([2.0, 0.5, 1.0])
    b = np.array([1.0, -1.0, 0.0])
    plain = layer_norm(x, np.ones(3), np.zeros(3))
    np.testing.assert_allclose(layer_norm(x, w, b), plain * w + b, rtol=1e-12)


# ---------------------------------------------------------------------------
# rotary embedding


def test_rope_zero_positions_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 8)).astype(np.float32)
    out = rope_rotate(x, np.zeros((5, 2), dtype=np.int64), axes=2)
    np.testing.assert_array_equal(out, x)


def test_rope_single_pair_rotates_by_position():
    # d=2, axes=1: the single frequency is base^0 == 1, so position p
    # rotates (x, y) by exactly p radians regardless of base
    for base in (10000.0, 7.0):
        out = rope_rotate(np.array([[1.0, 0.0]]), np.array([1]), axes=1, base=base)
        np.testing.assert_allclose(out, [[math.cos(1.0), math.sin(1.0)]], rtol=1e-15)
    out = rope_rotate(np.array([[0.5, -2.0]]), np.array([3]), axes=1)
    c, s = math.cos(3.0), math.sin(3.0)
    np.testing.assert_allclose(out, [[0.5 * c + 2.0 * s, 0.5 * s - 2.0 * c]], rtol=1e-12)


def test_rope_matches_reference():
    rng = np.random.default_rng(1)
    for axes in (1, 2, 3):
        d = 12
        x = rng.standard_normal((7, d))
        pos = rng.integers(-50, 50, size=(7, axes))
        np.testing.assert_allclose(rope_rotate(x, pos, axes=axes), rope_reference(x, pos, axes), rtol=1e-12)


def test_rope_dot_products_depend_on_relative_shift():
    rng = np.random.default_rng(2)
    for _ in range(50):
        axes = int(rng.integers(1, 4))
        d = 12 if axes == 3 else 8
        q = rng.standard_normal((1, d))
        k = rng.standard_normal((1, d))
        p = rng.integers(0, 200, size=(1, axes))
        p2 = rng.integers(0, 200, size=(1, axes))
        shift = rng.integers(-100, 100, size=(1, axes))
        before = (rope_rotate(q, p, axes=axes) @ rope_rotate(k, p2, axes=axes).T).item()
        after = (rope_rotate(q, p + shift, axes=axes) @ rope_rotate(k, p2 + shift, axes=axes).T).item()
        assert before == pytest.approx(after, abs=1e-8)


def test_rope_preserves_dtype_and_norm():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 8)).astype(np.float32)
    out = rope_rotate(x, rng.integers(0, 9, size=(4, 2)), axes=2)
    assert out.dtype == np.float32
    # pairwise rotations preserve the norm of every channel pair
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-6
    )


def test_rope_validates_inputs():
    x = np.zeros((3, 8))
    with pytest.raises(ConfigError):
        rope_rotate(x, np.zeros((3, 3)), axes=3)  # 8 % 6 != 0
    with pytest.raises(ConfigError):
        rope_rotate(x, np.zeros((3, 2)), axes=0)
    with pytest.raises(ConfigError):
        rope_rotate(x, np.zeros((4, 2)), axes=2)  # wrong token count


# ---------------------------------------------------------------------------
# path attention


def test_path_attention_single_token_passthrough():
    x = np.array([[1.5, -2.0, 0.25, 3.0]], dtype=np.float32)
    out = path_attention(x, make_pidx([0]), passthrough_attn(4), np.zeros(1, dtype=np.int64))
    np.testing.assert_array_equal(out, x)


def test_path_attention_scatter_mean_of_identical_copies():
    # the same token appears on two one-token paths; both copies produce the
    # same output, so their mean is the single-path result
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1, 8)).astype(np.float32)
    w = rand_attn(8, 2, rng)
    once = path_attention(x, make_pidx([0]), w, np.zeros(1, dtype=np.int64))
    twice = path_attention(x, make_pidx([0], [0]), w, np.zeros(1, dtype=np.int64))
    np.testing.assert_array_equal(once, twice)


@pytest.mark.parametrize(
    "paths",
    [
        [(0, 1, 2, 3, 4)],
        [(0, 1, 3), (0, 2, 3)],
        [(0, 1, 2), (3, 4)],
        [(0,), (1, 0), (2, 1, 0)],
    ],
)
def test_path_attention_matches_dense_reference(paths):
    rng = np.random.default_rng(5)
    n = max(i for p in paths for i in p) + 1
    x = rng.standard_normal((n, 24)).astype(np.float32)
    w = rand_attn(24, 2, rng)
    inst = rng.integers(0, 7, size=n)
    got = path_attention(x, make_pidx(*paths), w, inst)
    want = path_attention_reference(x, [tuple(p) for p in paths], w, inst)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_path_attention_mixes_only_within_paths():
    # two disjoint chains: changing tokens of one chain leaves the other alone
    rng = np.random.default_rng(6)
    pidx = make_pidx([0, 1], [2, 3])
    w = rand_attn(12, 1, rng)
    inst = np.zeros(4, dtype=np.int64)
    x = rng.standard_normal((4, 12)).astype(np.float32)
    y = x.copy()
    y[2:] += 1.0
    out_x = path_attention(x, pidx, w, inst)
    out_y = path_attention(y, pidx, w, inst)
    np.testing.assert_array_equal(out_x[:2], out_y[:2])
    assert not np.allclose(out_x[2:], out_y[2:])


def test_path_attention_rejects_uncovered_tokens():
    x = np.zeros((3, 4), dtype=np.float32)
    with pytest.raises(TopologyError, match="not covered"):
        path_attention(x, make_pidx([0, 2]), passthrough_attn(4), np.zeros(3, dtype=np.int64))


def test_path_attention_rejects_out_of_range_indices():
    x = np.zeros((2, 4), dtype=np.float32)
    with pytest.raises(TopologyError, match="out of range"):
        path_attention(x, make_pidx([0, 1, 5]), passthrough_attn(4), np.zeros(2, dtype=np.int64))


def test_path_attention_rejects_bad_positions_shape():
    x = np.zeros((2, 4), dtype=np.float32)
    with pytest.raises(ConfigError):
        path_attention(x, make_pidx([0, 1]), passthrough_attn(4), np.zeros(3, dtype=np.int64))


def test_attn_weights_validation():
    with pytest.raises(ConfigError):
        AttnWeights(
            q_w=np.eye(4), q_b=np.zeros(4), k_w=np.eye(4), k_b=np.zeros(4),
            v_w=np.eye(4), v_b=np.zeros(4), out_w=np.eye(3), out_b=np.zeros(4), heads=1,
        )
    with pytest.raises(ConfigError):
        passthrough_attn(4, heads=3)  # 4 % 3 != 0


# ---------------------------------------------------------------------------
# spatial attention


def coords_of(arr):
    return [GridCoord(int(x), int(y), int(r)) for x, y, r in arr]


def test_spatial_attention_small_group_is_full_attention():
    rng = np.random.default_rng(7)
    n = 5
    x = rng.standard_normal((n, 12)).astype(np.float32)
    coords = rng.integers(0, 8, size=(n, 3))
    w = rand_attn(12, 1, rng)
    got = spatial_attention(x, coords, w, patch_size=16, kind="z", order=6)
    full = np.ones((n, n), dtype=bool)
    want = dense_attention(x.astype(np.float64), w, full, coords, axes=3).astype(np.float32)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_spatial_attention_patch_one_with_passthrough_is_identity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 12)).astype(np.float32)
    coords = rng.integers(0, 8, size=(6, 3))
    out = spatial_attention(x, coords, passthrough_attn(12), patch_size=1, kind="hilbert", order=6)
    np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("kind", CURVE_KINDS)
@pytest.mark.parametrize("patch_size", [1, 3, 4, 64])
def test_spatial_attention_matches_dense_reference(kind, patch_size):
    rng = np.random.default_rng(9)
    n = 14
    x = rng.standard_normal((n, 24)).astype(np.float32)
    coords = rng.integers(-5, 20, size=(n, 3))
    w = rand_attn(24, 2, rng)
    got = spatial_attention(x, coords, w, patch_size, kind, order=6)
    want = spatial_attention_reference(x, coords_of(coords), w, patch_size, kind, order=6)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_spatial_attention_is_token_order_covariant():
    # with distinct cells the serialization is canonical, so shuffling the
    # input rows only shuffles the output rows
    rng = np.random.default_rng(10)
    n = 12
    x = rng.standard_normal((n, 12)).astype(np.float32)
    coords = np.unique(rng.integers(0, 40, size=(4 * n, 3)), axis=0)[:n]  # distinct cells
    w = rand_attn(12, 1, rng)
    base = spatial_attention(x, coords, w, patch_size=4, kind="z", order=6)
    perm = rng.permutation(n)
    shuffled = spatial_attention(x[perm], coords[perm], w, patch_size=4, kind="z", order=6)
    np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)


def test_spatial_attention_empty_input():
    out = spatial_attention(
        np.zeros((0, 12), dtype=np.float32), np.zeros((0, 3), dtype=np.int64),
        passthrough_attn(12), patch_size=4, kind="z",
    )
    assert out.shape == (0, 12)
    assert out.dtype == np.float32


def test_spatial_attention_validates_inputs():
    x = np.zeros((3, 12), dtype=np.float32)
    with pytest.raises(ConfigError):
        spatial_attention(x, np.zeros((3, 2), dtype=np.int64), passthrough_attn(12), 4, "z")
    with pytest.raises(ConfigError):
        spatial_attention(x, np.zeros((3, 3), dtype=np.int64), passthrough_attn(12), 0, "z")


# ---------------------------------------------------------------------------
# the batched kernel: length buckets, chunks and whole patches


def test_path_attention_spanning_several_chunks_matches_reference():
    rng = np.random.default_rng(11)
    n = 200
    paths = [tuple(int(i) for i in rng.choice(n, size=5, replace=False)) for _ in range(300)]
    paths.append(tuple(range(n)))  # covers every token
    assert 5 * 300 > 2 * attention._CHUNK_COPIES
    x = rng.standard_normal((n, 24)).astype(np.float32)
    w = rand_attn(24, 2, rng)
    inst = rng.integers(0, 7, size=n)
    got = path_attention(x, make_pidx(*paths), w, inst)
    want = path_attention_reference(x, paths, w, inst)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_path_attention_mixed_lengths_and_shared_tokens_matches_reference():
    # lengths 1..9 in shuffled order, tokens shared between and within paths,
    # an empty path, and one path longer than a whole chunk
    rng = np.random.default_rng(12)
    n = 60
    paths = [tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(1, 10)))) for _ in range(80)]
    paths += [tuple(range(n)), (), tuple(int(i) for i in rng.integers(0, n, size=attention._CHUNK_COPIES + 9))]
    order = rng.permutation(len(paths))
    paths = [paths[i] for i in order]
    x = rng.standard_normal((n, 12)).astype(np.float32)
    w = rand_attn(12, 1, rng)
    inst = rng.integers(0, 9, size=n)
    got = path_attention(x, make_pidx(*paths), w, inst)
    want = path_attention_reference(x, [p for p in paths if p], w, inst)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_single_path_reference_matches_masked_dense_reference():
    rng = np.random.default_rng(15)
    n = 30
    path = tuple(range(n)) + tuple(int(i) for i in rng.integers(0, n, size=25))
    x = rng.standard_normal((n, 16)).astype(np.float32)
    w = rand_attn(16, 2, rng)
    inst = rng.integers(0, 5, size=n)
    np.testing.assert_allclose(
        single_path_attention_reference(x, path, w, inst), path_attention_reference(x, [path], w, inst), atol=1e-6
    )


def test_path_longer_than_a_chunk_attends_in_bounded_query_blocks(monkeypatch):
    # one path of 2,003 tokens: a single (heads, 1, L, L) block would hold
    # 8 M scores; query blocks of 130 rows hold at most 512**2 per head
    rng = np.random.default_rng(14)
    n = 700
    path = tuple(range(n)) + tuple(int(i) for i in rng.integers(0, n, size=1303))
    length = len(path)
    x = rng.standard_normal((n, 16)).astype(np.float32)
    w = rand_attn(16, 2, rng)
    inst = rng.integers(0, 9, size=n)
    blocks = []
    group_attention = attention._group_attention

    def spy(q, k, v):
        blocks.append(q.shape[0] * q.shape[1] * q.shape[2] * k.shape[2])
        return group_attention(q, k, v)

    monkeypatch.setattr(attention, "_group_attention", spy)
    got = path_attention(x, make_pidx(path), w, inst)
    assert max(blocks) <= w.heads * max(attention._CHUNK_COPIES**2, length)
    assert sum(blocks) == w.heads * length * length  # every (query, key) pair scored once
    np.testing.assert_allclose(got, single_path_attention_reference(x, path, w, inst), atol=1e-5)


@pytest.mark.parametrize("channels, heads", [(48, 4), (96, 4)])
def test_attention_at_desk_widths_matches_reference(channels, heads):
    rng = np.random.default_rng(13)
    n = 40
    paths = [tuple(range(i, min(i + 7, n))) for i in range(0, n, 5)]
    x = rng.standard_normal((n, channels)).astype(np.float32)
    # desk-scale weights: unit-variance projections keep the softmax unsaturated
    w = rand_attn(channels, heads, rng)
    w = dataclasses.replace(w, **{f: getattr(w, f) / math.sqrt(channels) for f in ("q_w", "k_w", "v_w", "out_w")})
    inst = rng.integers(0, 5, size=n)
    got = path_attention(x, make_pidx(*paths), w, inst)
    want = path_attention_reference(x, paths, w, inst)
    np.testing.assert_allclose(got, want, atol=1e-6)
    coords = rng.integers(0, 30, size=(n, 3))
    got = spatial_attention(x, coords, w, 8, "hilbert", order=6)
    want = spatial_attention_reference(x, coords_of(coords), w, 8, "hilbert", order=6)
    np.testing.assert_allclose(got, want, atol=1e-6)


@pytest.mark.parametrize("n, patch_size", [(45, 8), (600, 8), (7, 16)])
def test_spatial_attention_short_last_patch_matches_reference(n, patch_size):
    # 45 and 600 leave a short last patch (600 also spans two chunks);
    # 7 < 16 makes the only patch the short one
    rng = np.random.default_rng(14)
    x = rng.standard_normal((n, 12)).astype(np.float32)
    coords = rng.integers(-5, 40, size=(n, 3))
    w = rand_attn(12, 2, rng)
    got = spatial_attention(x, coords, w, patch_size, "z", order=7)
    want = spatial_attention_reference(x, coords_of(coords), w, patch_size, "z", order=7)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_batched_attention_is_bit_deterministic():
    rng = np.random.default_rng(15)
    n = 150
    paths = [tuple(int(i) for i in rng.integers(0, n, size=int(rng.integers(2, 12)))) for _ in range(200)]
    paths.append(tuple(range(n)))
    pidx = make_pidx(*paths)
    x = rng.standard_normal((n, 48)).astype(np.float32)
    w = rand_attn(48, 4, rng)
    inst = rng.integers(0, 9, size=n)
    coords = rng.integers(0, 50, size=(n, 3))
    first = path_attention(x, pidx, w, inst), spatial_attention(x, coords, w, 8, "hilbert")
    again = path_attention(x, pidx, w, inst), spatial_attention(x, coords, w, 8, "hilbert")
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# shared RoPE tables and serializations


@pytest.mark.parametrize("hd", [12, 24])
def test_path_step_table_slices_rotate_like_rope_rotate(hd):
    # path attention builds one table for steps 0..longest-1 and turns a
    # bucket of length L by its first L rows
    rng = np.random.default_rng(hd)
    longest = 70
    steps = np.zeros((longest, 2))
    steps[:, 0] = np.arange(longest)
    table = attention._rope_factors(steps, hd, 10000.0)
    for length in range(1, longest + 1):
        x = rng.standard_normal((2, 4, 3, length, hd))  # (Q/K, heads, paths, L, hd)
        want = rope_rotate(x, steps[:length].astype(np.int64), 2)
        np.testing.assert_array_equal(attention._turn(x, table[:length]), want)


@pytest.mark.parametrize("hd", [12, 24])
@pytest.mark.parametrize("axes", [2, 3])
def test_projection_turns_q_and_k_by_one_table_like_rope_rotate(hd, axes):
    rng = np.random.default_rng(axes * hd)
    heads, n = 4, 37
    c = heads * hd
    w = rand_attn(c, heads, rng)
    x = rng.standard_normal((n, c)).astype(np.float32)
    pos = rng.integers(0, 300, size=(n, axes))
    qk, v = attention._project(x, w, pos, 10000.0)
    x64 = x.astype(np.float64)
    projections = ((w.q_w, w.q_b), (w.k_w, w.k_b), (w.v_w, w.v_b))
    for i, (got, (proj_w, proj_b)) in enumerate(zip((qk[0], qk[1], v), projections)):
        y = (x64 @ proj_w + proj_b).reshape(n, heads, hd).transpose(1, 0, 2)
        np.testing.assert_array_equal(got, rope_rotate(y, pos, axes) if i < 2 else y)


def test_spatial_attention_reads_a_given_serialization(monkeypatch):
    rng = np.random.default_rng(4)
    n = 30
    x = rng.standard_normal((n, 12)).astype(np.float32)
    coords = rng.integers(0, 40, size=(n, 3))
    w = rand_attn(12, 1, rng)
    want = spatial_attention(x, coords, w, 4, "hilbert")
    (perm,) = attention.serializations(coords, ["hilbert", "hilbert"]).values()
    monkeypatch.setattr(attention, "sort_tokens", None)  # a given perm sorts nothing
    assert spatial_attention(x, coords, w, 4, "hilbert", perm=perm).tobytes() == want.tobytes()
    with pytest.raises(ConfigError, match=r"perm shape \(29,\), expected \(30,\)"):
        spatial_attention(x, coords, w, 4, "hilbert", perm=perm[:-1])


def test_serializations_sort_once_per_distinct_kind(monkeypatch):
    calls = []
    real = attention.sort_tokens
    monkeypatch.setattr(attention, "sort_tokens", lambda c, kind, order: calls.append(kind) or real(c, kind, order))
    coords = np.random.default_rng(0).integers(0, 99, size=(20, 3))
    perms = attention.serializations(coords, ("z", "hilbert", "z", "hilbert"))
    assert calls == ["z", "hilbert"]
    for kind in ("z", "hilbert"):
        np.testing.assert_array_equal(perms[kind], real(coords, kind, 16).perm)

"""Token assembly, embedding, the full forward pass, and the association head."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapassoc.curves import CURVE_KINDS, GridCoord, grid_encode, grid_encode_batch
from mapassoc.errors import ConfigError, LabelError
from mapassoc.geometry import DirVec, Point2
from mapassoc.mat.attention import AttnWeights, gelu, layer_norm, path_attention, spatial_attention
from mapassoc.mat.config import FULL_VARIANTS, ModelConfig, StageSpec, desk_config, full_config
from mapassoc.mat.forward import (
    KIND_BOUNDARY,
    KIND_CENTERLINE,
    KIND_ROAD,
    association_probs,
    build_tokens,
    embed_vectors,
    mat_associate,
    mat_forward,
    resolve_curve_kinds,
)
from mapassoc.mat import attention, forward as forward_module, weights as weights_module
from mapassoc.mat.weights import PreparedWeights, init_weights, prepare_weights
from mapassoc.scenegen import AugConfig, GenConfig, PerturbConfig, augment_scene, generate_scene, perturb_scene

from oracles import path_attention_reference, spatial_attention_reference, token_paths_reference

PHI1 = 0.8413447460685429  # standard normal cdf at 1
PHI2 = 0.9772498680518208


def small_config(**kw):
    base = dict(stages=(StageSpec(1, 12, 1),), patch_size=4, curve="z")
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# token assembly


def test_build_tokens_order_and_paths(tiny):
    tokens = build_tokens(tiny)
    assert len(tokens) == 8  # 2 road segments + 6 centerlines
    np.testing.assert_array_equal(tokens.kind, [0, 0, 1, 1, 1, 1, 1, 1])
    np.testing.assert_array_equal(tokens.parent, [0, 1, 0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(tokens.inst_pos, np.zeros(8))
    assert tokens.pidx.paths == ((0, 1), (2, 3, 4), (5, 6, 7))
    assert tokens.pidx.total_tokens == 8
    np.testing.assert_array_equal(tokens.token_ids(KIND_CENTERLINE), [0, 1, 2, 3, 4, 5])
    np.testing.assert_array_equal(tokens.token_ids(KIND_ROAD), [0, 1])


def test_build_tokens_covers_every_token(grid42):
    tokens = build_tokens(grid42)
    covered = {i for p in tokens.pidx.paths for i in p}
    assert covered == set(range(len(tokens)))
    n_boundary_segs = sum(len(b.points) - 1 for b in grid42.hd.boundaries)
    assert int((tokens.kind == KIND_BOUNDARY).sum()) == n_boundary_segs
    assert int((tokens.kind == KIND_CENTERLINE).sum()) == len(grid42.hd.centerlines)
    # multi-segment elements count their tokens in order
    for b in grid42.hd.boundaries:
        pos = tokens.inst_pos[(tokens.kind == KIND_BOUNDARY) & (tokens.parent == b.id)]
        np.testing.assert_array_equal(pos, np.arange(len(b.points) - 1))


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    st.sampled_from([(0.1, 16), (0.5, 7), (2.0, 1)]),
)
@settings(max_examples=40, deadline=None)
def test_token_features_are_the_vectors_in_token_order(layout, seed, perturb_seed, augment_seed, grid):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    if perturb_seed is not None:
        scene = perturb_scene(scene, PerturbConfig(
            gps_shift=2.0, dropout_rate=0.1, jitter_sigma=0.3, oversegment_rate=0.2, seed=perturb_seed,
        ))
    if augment_seed is not None:
        scene = augment_scene(scene, AugConfig(rotate_range_deg=(-180.0, 180.0), rotate_p=1.0, seed=augment_seed))
    vectors = [v for r in scene.sd.roads for v in r.vectors]
    vectors += [c.vector for c in scene.hd.centerlines]
    vectors += [v for b in scene.hd.boundaries for v in b.vectors]
    features = build_tokens(scene).features
    want = np.array([v.as_tuple() for v in vectors], dtype=np.float64)
    assert features.dtype == np.float64 and features.shape == want.shape == (len(vectors), 5)
    assert features.tobytes() == want.tobytes()
    g, R = grid
    cells = [GridCoord(*row) for row in grid_encode_batch(features, g, R).tolist()]
    assert cells == [grid_encode(v, g, R) for v in vectors]


@given(
    st.sampled_from(["grid", "radial", "random-planar"]),
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
)
@settings(max_examples=40, deadline=None)
def test_token_path_index_matches_the_per_token_reference(layout, seed, perturb_seed):
    scene = generate_scene(GenConfig(layout=layout, seed=seed))
    if perturb_seed is not None:
        scene = perturb_scene(scene, PerturbConfig(
            gps_shift=2.0, dropout_rate=0.2, jitter_sigma=0.3, oversegment_rate=0.2, seed=perturb_seed,
        ))
    pidx = build_tokens(scene).pidx
    want = token_paths_reference(scene)
    assert pidx.paths == want
    assert pidx.nodes.dtype == np.int64 and pidx.nodes.tolist() == [t for p in want for t in p]
    assert pidx.offsets.tolist() == [0, *itertools.accumulate(map(len, want))]


# ---------------------------------------------------------------------------
# embedding


def test_embed_zero_weights_gives_zeros(tiny):
    tokens = build_tokens(tiny)
    w = {
        "embed.fc1.weight": np.zeros((5, 6), dtype=np.float32),
        "embed.fc1.bias": np.zeros(6, dtype=np.float32),
        "embed.fc2.weight": np.zeros((6, 4), dtype=np.float32),
        "embed.fc2.bias": np.zeros(4, dtype=np.float32),
    }
    out = embed_vectors(tokens.features, w)
    assert out.shape == (8, 4)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, 0.0)


def test_embed_hand_computed_two_channels():
    # unit vector along x: as_tuple() == (0, 0, 1, 0, 0); fc1 reads p2x into
    # channel 0 and twice p2x into channel 1
    v = DirVec.from_points(Point2(0.0, 0.0), Point2(1.0, 0.0))
    w1 = np.zeros((5, 2))
    w1[2, 0] = 1.0
    w1[2, 1] = 2.0
    w = {
        "embed.fc1.weight": w1,
        "embed.fc1.bias": np.zeros(2),
        "embed.fc2.weight": np.eye(2),
        "embed.fc2.bias": np.array([0.5, -0.5]),
    }
    out = embed_vectors([v.as_tuple()], w)
    want = [1.0 * PHI1 + 0.5, 2.0 * PHI2 - 0.5]
    np.testing.assert_allclose(out[0], want, rtol=1e-6)


def test_embed_validates_weights(tiny):
    tokens = build_tokens(tiny)
    with pytest.raises(ConfigError, match="missing embedding tensor"):
        embed_vectors(tokens.features, {})
    bad = {
        "embed.fc1.weight": np.zeros((4, 6)),
        "embed.fc1.bias": np.zeros(6),
        "embed.fc2.weight": np.zeros((6, 6)),
        "embed.fc2.bias": np.zeros(6),
    }
    with pytest.raises(ConfigError, match="embed.fc1.weight"):
        embed_vectors(tokens.features, bad)
    with pytest.raises(ConfigError):
        embed_vectors([], {})


# ---------------------------------------------------------------------------
# config presets


def test_full_config_variants():
    assert set(FULL_VARIANTS) == {"T", "S", "M", "L"}
    cfg = full_config("T")
    assert [s.blocks for s in cfg.stages] == [2, 2, 2, 2, 2]
    assert [s.channels for s in cfg.stages] == [96, 192, 384, 768, 1536]
    assert cfg.out_channels == 1536
    assert cfg.patch_size == 1024 and cfg.curve == "random"
    assert full_config("L").n_blocks == 28
    assert full_config("M", patch_size=4).patch_size == 4
    with pytest.raises(ConfigError, match="variant"):
        full_config("XXL")


# ---------------------------------------------------------------------------
# curve schedule


def test_resolve_curve_kinds_fixed_and_random():
    cfg = desk_config()
    assert resolve_curve_kinds(cfg) == ("hilbert", "hilbert")
    rnd = desk_config(curve="random", stages=(StageSpec(8, 12, 1),))
    picks = resolve_curve_kinds(rnd, curve_seed=3)
    assert len(picks) == 8
    assert all(k in CURVE_KINDS for k in picks)
    assert picks == resolve_curve_kinds(rnd, curve_seed=3)
    assert len({resolve_curve_kinds(rnd, curve_seed=s) for s in range(10)}) > 1


# ---------------------------------------------------------------------------
# forward pass


def build_noisy_weights(cfg, seed):
    """Seeded init with non-trivial biases and norm scales."""
    w = init_weights(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in w:
        if name.endswith(".bias"):
            w[name] = rng.standard_normal(w[name].shape).astype(np.float32) * 0.1
        elif w[name].ndim == 1:
            w[name] = (1.0 + 0.1 * rng.standard_normal(w[name].shape)).astype(np.float32)
    return w


def test_forward_single_block_matches_composed_reference(tiny):
    cfg = small_config()
    w = build_noisy_weights(cfg, 11)
    res = mat_forward(tiny, cfg, w)

    tokens = build_tokens(tiny)
    x = embed_vectors(tokens.features, w)
    coords = grid_encode_batch(tokens.features, cfg.grid_g, cfg.grid_R)
    gcs = [GridCoord(int(a), int(b), int(c)) for a, b, c in coords]
    base = "stage0.block0"
    sa = AttnWeights.from_dict(w, f"{base}.sa", 1)
    h = layer_norm(x, w[f"{base}.sa.norm.weight"], w[f"{base}.sa.norm.bias"])
    x = x + spatial_attention_reference(h, gcs, sa, cfg.patch_size, "z")
    pa = AttnWeights.from_dict(w, f"{base}.pa", 1)
    h = layer_norm(x, w[f"{base}.pa.norm.weight"], w[f"{base}.pa.norm.bias"])
    x = x + path_attention_reference(h, tokens.pidx.paths, pa, tokens.inst_pos)
    h = layer_norm(x, w[f"{base}.ffn.norm.weight"], w[f"{base}.ffn.norm.bias"]).astype(np.float64)
    h = gelu(h @ w[f"{base}.ffn.fc1.weight"].astype(np.float64) + w[f"{base}.ffn.fc1.bias"])
    h = h @ w[f"{base}.ffn.fc2.weight"].astype(np.float64) + w[f"{base}.ffn.fc2.bias"]
    x = x + h.astype(np.float32)

    got = np.concatenate([res.road_feats, res.centerline_feats, res.boundary_feats])
    np.testing.assert_allclose(got, x, atol=1e-6)


def test_forward_path_first_order_differs(tiny):
    w_order = small_config(attention_order=("path", "spatial"))
    w = build_noisy_weights(w_order, 11)
    a = mat_forward(tiny, small_config(), w)
    b = mat_forward(tiny, w_order, w)
    assert not np.allclose(a.centerline_feats, b.centerline_feats)


def test_forward_deterministic_and_float32(grid42):
    cfg = desk_config()
    w = init_weights(cfg, seed=0)
    a = mat_forward(grid42, cfg, w)
    b = mat_forward(grid42, cfg, w)
    for fa, fb in (
        (a.road_feats, b.road_feats),
        (a.centerline_feats, b.centerline_feats),
        (a.boundary_feats, b.boundary_feats),
    ):
        assert fa.dtype == np.float32
        np.testing.assert_array_equal(fa, fb)
    assert a.curve_kinds == ("hilbert", "hilbert")


def test_forward_shapes_match_config_and_scene(grid42):
    cfg = desk_config()
    res = mat_forward(grid42, cfg, init_weights(cfg, seed=0))
    assert res.road_feats.shape[1] == cfg.out_channels == 96
    n_road_segs = sum(len(r.points) - 1 for r in grid42.sd.roads)
    assert res.road_feats.shape[0] == n_road_segs
    assert res.centerline_feats.shape[0] == len(grid42.hd.centerlines)
    n_bound_segs = sum(len(b.points) - 1 for b in grid42.hd.boundaries)
    assert res.boundary_feats.shape[0] == n_bound_segs


def test_forward_rejects_weights_for_other_config(tiny):
    cfg = small_config()
    other = desk_config()
    with pytest.raises(ConfigError):
        mat_forward(tiny, cfg, init_weights(other, seed=0))


# ---------------------------------------------------------------------------
# prepared weights and per-scene setup


def test_prepared_weights_are_read_only_float64_copies():
    cfg = desk_config()
    raw = init_weights(cfg, seed=3)
    prepared = prepare_weights(raw, cfg)
    assert prepared.cfg == cfg and list(prepared) == list(raw)
    for name, t in prepared.items():
        assert t.dtype == np.float64 and not t.flags.writeable
        np.testing.assert_array_equal(t, raw[name])
    with pytest.raises(ValueError, match="read-only"):
        prepared["embed.fc1.weight"][0, 0] = 1.0
    raw["embed.fc1.bias"][:] = 7.0  # the copy does not follow the source
    assert not prepared["embed.fc1.bias"].any()


def test_prepared_weights_give_the_plain_weights_bits(grid42):
    cfg = desk_config()
    raw = init_weights(cfg, seed=1)
    plain, _ = mat_associate(grid42, cfg, raw)
    prepared, res = mat_associate(grid42, cfg, prepare_weights(raw, cfg))
    assert prepared.probs.tobytes() == plain.probs.tobytes()
    assert res.road_feats.dtype == np.float32


@pytest.mark.parametrize("channels, heads", [(24, 2), (96, 4)])
def test_float32_weights_give_the_bits_of_their_float64_copies(grid42, channels, heads):
    # the ops cast no weight themselves: numpy casts a float32 tensor to
    # float64 exactly before each float64 kernel, as PreparedWeights does once
    cfg = small_config(stages=(StageSpec(1, channels, heads),))
    rng = np.random.default_rng(channels)
    narrow = {name: rng.standard_normal(shape).astype(np.float32) for name, shape in weights_module.weight_spec(cfg)}
    wide = {name: t.astype(np.float64) for name, t in narrow.items()}
    tokens = build_tokens(grid42)
    coords = grid_encode_batch(tokens.features, cfg.grid_g, cfg.grid_R)
    x = embed_vectors(tokens.features, wide)
    base = "stage0.block0"
    ops = {
        "embed_vectors": lambda w: embed_vectors(tokens.features, w),
        "layer_norm": lambda w: layer_norm(x, w[f"{base}.sa.norm.weight"], w[f"{base}.sa.norm.bias"]),
        "path_attention": lambda w: path_attention(
            x, tokens.pidx, AttnWeights.from_dict(w, f"{base}.pa", heads), tokens.inst_pos
        ),
        "spatial_attention": lambda w: spatial_attention(
            x, coords, AttnWeights.from_dict(w, f"{base}.sa", heads), cfg.patch_size, "hilbert"
        ),
        "_ffn": lambda w: forward_module._ffn(x, w, f"{base}.ffn"),
    }
    for name, op in ops.items():
        got, want = op(narrow), op(wide)
        assert got.dtype == want.dtype == np.float32, name
        assert got.tobytes() == want.tobytes(), name


def test_prepared_weights_are_not_checked_again_for_their_config(tiny, monkeypatch):
    cfg = small_config()
    prepared = prepare_weights(init_weights(cfg, seed=0), cfg)
    assert prepare_weights(prepared, cfg) is prepared
    monkeypatch.setattr(weights_module, "validate_weights", None)
    mat_forward(tiny, cfg, prepared)


def test_prepared_weights_for_another_config_are_checked_again(tiny):
    prepared = prepare_weights(init_weights(desk_config(), seed=0), desk_config())
    with pytest.raises(ConfigError, match="weights do not match the model config"):
        mat_forward(tiny, small_config(), prepared)
    # a config that differs only outside the weights gets them relabelled
    other = desk_config(patch_size=3)
    relabelled = prepare_weights(prepared, other)
    assert isinstance(relabelled, PreparedWeights) and relabelled.cfg == other
    want = mat_forward(tiny, other, init_weights(desk_config(), seed=0))
    assert mat_forward(tiny, other, prepared).road_feats.tobytes() == want.road_feats.tobytes()


def test_forward_serializes_once_per_curve_kind(grid42, monkeypatch):
    kinds, rotations = [], []
    sort, rotate = attention.sort_tokens, attention.rope_rotate
    monkeypatch.setattr(attention, "sort_tokens", lambda c, kind, order: kinds.append(kind) or sort(c, kind, order))
    monkeypatch.setattr(attention, "rope_rotate", lambda *a: rotations.append(a[2]) or rotate(*a))
    cfg = desk_config()
    mat_forward(grid42, cfg, init_weights(cfg, seed=0))
    assert kinds == ["hilbert"]  # both blocks use hilbert
    # Q and K of every projection turn in one call: 2 blocks x (spatial, path)
    assert sorted(rotations) == [2, 2, 3, 3]


# ---------------------------------------------------------------------------
# association head


def test_association_single_road_is_certain():
    amat = association_probs(np.ones((3, 4)), np.ones((2, 4)), [7, 7])
    assert amat.road_ids == (7,)
    np.testing.assert_array_equal(amat.probs, np.ones((3, 1), dtype=np.float32))


def test_association_identical_roads_split_evenly():
    rng = np.random.default_rng(0)
    cl = rng.standard_normal((4, 8))
    rd = np.tile(rng.standard_normal((1, 8)), (3, 1))
    amat = association_probs(cl, rd, [0, 1, 2])
    np.testing.assert_allclose(amat.probs, 1.0 / 3.0, atol=1e-7)


def test_association_frozen_softmax_row():
    # d=1 features produce logits [2, 6] exactly
    amat = association_probs(np.array([[1.0]]), np.array([[2.0], [6.0]]), [0, 1])
    np.testing.assert_allclose(amat.probs, [[0.01798621, 0.98201379]], atol=1e-7)


def test_association_rows_sum_to_one():
    rng = np.random.default_rng(1)
    amat = association_probs(
        rng.standard_normal((10, 16)), rng.standard_normal((9, 16)), [0, 0, 1, 1, 2, 2, 3, 3, 3]
    )
    assert amat.probs.shape == (10, 4)
    np.testing.assert_allclose(amat.probs.astype(np.float64).sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("pooling", ["avg", "max"])
def test_association_invariant_to_road_token_order(pooling):
    rng = np.random.default_rng(2)
    cl = rng.standard_normal((5, 8))
    rd = rng.standard_normal((7, 8))
    rmap = np.array([0, 0, 1, 1, 1, 2, 2])
    base = association_probs(cl, rd, rmap, pooling=pooling)
    perm = rng.permutation(7)
    shuffled = association_probs(cl, rd[perm], rmap[perm], pooling=pooling)
    np.testing.assert_allclose(shuffled.probs, base.probs, atol=1e-7)
    assert shuffled.road_ids == base.road_ids == (0, 1, 2)


def test_association_pooling_modes_differ():
    cl = np.array([[1.0, 0.0]])
    rd = np.array([[0.0, 4.0], [4.0, 0.0], [1.0, 1.0]])
    rmap = [0, 0, 1]
    avg = association_probs(cl, rd, rmap, pooling="avg")
    mx = association_probs(cl, rd, rmap, pooling="max")
    d = math.sqrt(2.0)
    want_avg = np.exp([2.0 / d, 1.0 / d])
    want_avg /= want_avg.sum()
    want_max = np.exp([4.0 / d, 1.0 / d])
    want_max /= want_max.sum()
    np.testing.assert_allclose(avg.probs[0], want_avg, atol=1e-7)
    np.testing.assert_allclose(mx.probs[0], want_max, atol=1e-7)


def test_association_large_logits_stay_finite():
    amat = association_probs(np.array([[1000.0]]), np.array([[999.0], [1001.0]]), [0, 1])
    assert np.isfinite(amat.probs).all()
    assert amat.probs[0, 1] > amat.probs[0, 0]
    np.testing.assert_allclose(amat.probs.sum(axis=1), 1.0, atol=1e-6)


def test_association_validates_inputs():
    cl, rd = np.ones((2, 4)), np.ones((3, 4))
    with pytest.raises(ConfigError, match="widths differ"):
        association_probs(cl, np.ones((3, 5)), [0, 1, 2])
    with pytest.raises(ConfigError, match="road_token_map"):
        association_probs(cl, rd, [0, 1])
    with pytest.raises(ConfigError, match="pooling"):
        association_probs(cl, rd, [0, 1, 2], pooling="sum")
    with pytest.raises(LabelError, match="no candidate roads"):
        association_probs(cl, rd, [0, 1, 2], road_ids=())
    with pytest.raises(LabelError, match="road 9 has no tokens"):
        association_probs(cl, rd, [0, 1, 2], road_ids=[0, 9])


def test_mat_associate_covers_scene(tiny):
    cfg = small_config()
    amat, res = mat_associate(tiny, cfg, build_noisy_weights(cfg, 5))
    assert amat.centerline_ids == tiny.hd.node_ids
    assert amat.road_ids == tiny.sd.node_ids
    np.testing.assert_allclose(amat.probs.astype(np.float64).sum(axis=1), 1.0, atol=1e-6)
    assoc = amat.argmax_association()
    assert assoc.covers(tiny.hd)
    assert res.curve_kinds == ("z",)

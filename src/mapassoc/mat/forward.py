"""Deterministic forward pass over a scene.

Token assembly
--------------
Every map element is flattened into direction-vector tokens in a fixed order:
roads ascending by id (one token per polyline segment), then centerlines
ascending by id (one token each), then boundaries ascending by id (one token
per segment). A token is its vector's 5 numbers, `DirVec.as_tuple()`; the
tokens form one float64 (N, 5) array, built once per pass, that both the
embedding and the grid encoding read, so each heading is computed once. Path
attention groups tokens by root-to-leaf paths of the road graph, root-to-leaf
paths of the lane graph, and per-boundary chains, so every token sits on at
least one path.

The pass is pure: same scene, config, weights, and curve seed give bit-equal
outputs. All returned tensors are float32.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from ..assocmatrix import AssocMatrix
from ..curves import CURVE_KINDS, grid_encode_batch
from ..errors import ConfigError, LabelError
from ..geometry import PathIndex, Scene
from ..geometry import enumerate_paths  # noqa: F401  kept as a module attribute; bench/tracer.py patches it
from .attention import AttnWeights, gelu, layer_norm, path_attention, serializations, spatial_attention
from .config import POOLING_KINDS, ModelConfig
from .weights import EMBED_IN, prepare_weights

__all__ = [
    "KIND_ROAD",
    "KIND_CENTERLINE",
    "KIND_BOUNDARY",
    "TokenSet",
    "ForwardResult",
    "build_tokens",
    "embed_vectors",
    "resolve_curve_kinds",
    "mat_forward",
    "association_probs",
    "mat_associate",
]

KIND_ROAD = 0
KIND_CENTERLINE = 1
KIND_BOUNDARY = 2


@dataclass(frozen=True)
class TokenSet:
    """Flattened scene tokens plus the grouping data attention needs.

    features  (N, 5) float64 token rows, `DirVec.as_tuple()` of each vector
    kind      per-token element class (KIND_* constants)
    parent    per-token parent element id
    inst_pos  per-token ordinal position inside its parent element
    pidx      token-level path index (token indices, not element ids)
    """

    features: np.ndarray
    kind: np.ndarray
    parent: np.ndarray
    inst_pos: np.ndarray
    pidx: PathIndex

    def __len__(self) -> int:
        return len(self.features)

    def token_ids(self, kind: int) -> np.ndarray:
        """Parent ids of all tokens of one element class, in token order."""
        return self.parent[self.kind == kind]


@dataclass(frozen=True)
class ForwardResult:
    """Final per-token features split by element class, plus bookkeeping."""

    road_feats: np.ndarray
    centerline_feats: np.ndarray
    boundary_feats: np.ndarray
    tokens: TokenSet
    curve_kinds: tuple


def build_tokens(scene: Scene) -> TokenSet:
    """Flatten a scene into tokens and the path index covering them.

    The index is built from the graphs' flat path indexes: road r's tokens
    are one contiguous span, centerline row c is token `n_road_tokens + c`,
    and each boundary's tokens form one chain.
    """
    rows = []
    kind = []
    parent = []
    inst_pos = []
    spans = []  # each road's first token, then the first centerline token
    chains = []  # each boundary's first token, then the token count
    # the graphs hold their elements sorted by id
    for road in scene.sd.roads:
        spans.append(len(rows))
        for i, v in enumerate(road.vectors):
            rows.append(v.as_tuple())
            kind.append(KIND_ROAD)
            parent.append(road.id)
            inst_pos.append(i)
    n_road = len(rows)
    spans.append(n_road)
    for cl in scene.hd.centerlines:
        rows.append(cl.vector.as_tuple())
        kind.append(KIND_CENTERLINE)
        parent.append(cl.id)
        inst_pos.append(0)
    n_lane = len(rows)
    for b in scene.hd.boundaries:
        chains.append(len(rows))
        for i, v in enumerate(b.vectors):
            rows.append(v.as_tuple())
            kind.append(KIND_BOUNDARY)
            parent.append(b.id)
            inst_pos.append(i)
    chains.append(len(rows))

    # each road on a road path stands for its span of tokens, in order
    road_paths, lane_paths = scene.sd.path_rows, scene.hd.path_rows
    spans = np.array(spans, dtype=np.int64)
    count = np.diff(spans)[road_paths.nodes]
    ends = np.cumsum(count)
    road_tokens = np.arange(count.sum()) + np.repeat(spans[road_paths.nodes] - (ends - count), count)
    nodes = np.concatenate((road_tokens, n_road + lane_paths.nodes, np.arange(n_lane, len(rows))))
    offsets = np.concatenate((
        np.concatenate(([0], ends))[road_paths.offsets],
        len(road_tokens) + lane_paths.offsets[1:],
        len(road_tokens) + len(lane_paths.nodes) - n_lane + np.array(chains[1:], dtype=np.int64),
    ))
    return TokenSet(
        features=np.array(rows, dtype=np.float64).reshape(-1, 5),
        kind=np.asarray(kind, dtype=np.int8),
        parent=np.asarray(parent, dtype=np.int64),
        inst_pos=np.asarray(inst_pos, dtype=np.int64),
        pidx=PathIndex.from_flat(nodes, offsets),
    )


def embed_vectors(features: np.ndarray, weights: Mapping) -> np.ndarray:
    """Two-layer MLP lifting each row of the (N, 5) token features to the stage-0 width."""
    if len(features) == 0:
        raise ConfigError("no vectors to embed")
    try:
        w1, b1 = weights["embed.fc1.weight"], weights["embed.fc1.bias"]
        w2, b2 = weights["embed.fc2.weight"], weights["embed.fc2.bias"]
    except KeyError as err:
        raise ConfigError(f"missing embedding tensor {err.args[0]}") from None
    w1, w2 = np.asarray(w1), np.asarray(w2)
    if w1.ndim != 2 or w1.shape[0] != EMBED_IN:
        raise ConfigError(f"embed.fc1.weight shape {w1.shape}, expected ({EMBED_IN}, C)")
    if w2.ndim != 2 or w2.shape[0] != w1.shape[1]:
        raise ConfigError(f"embed.fc2.weight shape {w2.shape} does not chain {w1.shape}")
    h = gelu(np.asarray(features, dtype=np.float64) @ w1 + b1)
    out = h @ w2 + b2
    return out.astype(np.float32)


def resolve_curve_kinds(cfg: ModelConfig, curve_seed: int = 0) -> tuple:
    """Per-block serialization curves; "random" draws from a seeded stream."""
    if cfg.curve != "random":
        return (cfg.curve,) * cfg.n_blocks
    rng = np.random.default_rng(curve_seed)
    picks = rng.integers(0, len(CURVE_KINDS), size=cfg.n_blocks)
    return tuple(CURVE_KINDS[int(i)] for i in picks)


def _ffn(x: np.ndarray, weights: Mapping, base: str) -> np.ndarray:
    h = layer_norm(x, weights[f"{base}.norm.weight"], weights[f"{base}.norm.bias"])
    # in-place bias adds and gelu keep the (N, 4C) hidden layer to two buffers
    h64 = h.astype(np.float64) @ weights[f"{base}.fc1.weight"]
    h64 += weights[f"{base}.fc1.bias"]
    h64 = gelu(h64)
    out = h64 @ weights[f"{base}.fc2.weight"]
    out += weights[f"{base}.fc2.bias"]
    return out.astype(np.float32)


def mat_forward(
    scene: Scene,
    cfg: ModelConfig,
    weights: Mapping,
    curve_seed: int = 0,
) -> ForwardResult:
    """Run every stage over a scene; returns per-class float32 features.

    Each block applies its two attentions in cfg.attention_order, then the
    FFN, every sub-layer as a pre-norm residual. Stages are bridged by a
    linear channel projection; the token count never changes.

    `weights` may be a plain mapping, checked and cast here, or
    `PreparedWeights` from `prepare_weights(weights, cfg)`, which a run over
    many scenes builds once. The tokens are serialized once per distinct
    curve kind, and every spatial block of that kind reads the permutation.
    """
    weights = prepare_weights(weights, cfg)
    tokens = build_tokens(scene)
    if len(tokens) == 0:
        raise ConfigError("scene has no map elements to tokenize")
    x = embed_vectors(tokens.features, weights)
    coords = grid_encode_batch(tokens.features, cfg.grid_g, cfg.grid_R)
    kinds = resolve_curve_kinds(cfg, curve_seed)
    perms = serializations(coords, kinds)
    bi = 0
    for s, stage in enumerate(cfg.stages):
        if s > 0:
            w, b = weights[f"stage{s}.proj.weight"], weights[f"stage{s}.proj.bias"]
            x = (x.astype(np.float64) @ w + b).astype(np.float32)
        for blk in range(stage.blocks):
            base = f"stage{s}.block{blk}"
            for attn in cfg.attention_order:
                prefix = f"{base}.sa" if attn == "spatial" else f"{base}.pa"
                h = layer_norm(x, weights[f"{prefix}.norm.weight"], weights[f"{prefix}.norm.bias"])
                aw = AttnWeights.from_dict(weights, prefix, stage.heads)
                if attn == "spatial":
                    h = spatial_attention(
                        h, coords, aw, cfg.patch_size, kinds[bi], rope_base=cfg.rope_base, perm=perms[kinds[bi]]
                    )
                else:
                    h = path_attention(h, tokens.pidx, aw, tokens.inst_pos, rope_base=cfg.rope_base)
                x = x + h
            x = x + _ffn(x, weights, f"{base}.ffn")
            bi += 1
    return ForwardResult(
        road_feats=x[tokens.kind == KIND_ROAD],
        centerline_feats=x[tokens.kind == KIND_CENTERLINE],
        boundary_feats=x[tokens.kind == KIND_BOUNDARY],
        tokens=tokens,
        curve_kinds=kinds,
    )


def association_probs(
    centerline_feats: np.ndarray,
    road_feats: np.ndarray,
    road_token_map,
    pooling: str = "avg",
    road_ids=None,
    centerline_ids=None,
) -> AssocMatrix:
    """Scaled-dot-product head: softmax over roads per centerline row.

    road_token_map gives the owning road id of each road-token row; tokens of
    one road pool into a single representative feature (mean or max). Roads
    listed in `road_ids` but owning zero tokens are an error.
    """
    cl = np.asarray(centerline_feats, dtype=np.float64)
    rd = np.asarray(road_feats, dtype=np.float64)
    rmap = np.asarray(road_token_map, dtype=np.int64)
    if cl.ndim != 2 or rd.ndim != 2 or cl.shape[1] != rd.shape[1]:
        raise ConfigError(
            f"feature widths differ: centerlines {cl.shape}, roads {rd.shape}"
        )
    if rmap.shape != (rd.shape[0],):
        raise ConfigError(f"road_token_map length {rmap.shape} != {rd.shape[0]} tokens")
    if pooling not in POOLING_KINDS:
        raise ConfigError(f"pooling must be one of {POOLING_KINDS}, got {pooling!r}")
    if road_ids is None:
        road_ids = sorted(set(int(r) for r in rmap))
    road_ids = [int(r) for r in road_ids]
    if not road_ids:
        raise LabelError("no candidate roads to associate against")
    pooled = np.empty((len(road_ids), cl.shape[1]), dtype=np.float64)
    for j, rid in enumerate(road_ids):
        rows = rd[rmap == rid]
        if rows.shape[0] == 0:
            raise LabelError(f"road {rid} has no tokens to pool")
        pooled[j] = rows.mean(axis=0) if pooling == "avg" else rows.max(axis=0)
    logits = cl @ pooled.T / np.sqrt(cl.shape[1])
    if centerline_ids is None:
        centerline_ids = range(cl.shape[0])
    return AssocMatrix.from_logits(logits, centerline_ids, road_ids)


def mat_associate(
    scene: Scene,
    cfg: ModelConfig,
    weights: Mapping,
    curve_seed: int = 0,
) -> tuple:
    """Forward a scene and build its association matrix over all roads.

    Returns (AssocMatrix, ForwardResult). Boundary tokens take part in
    attention but never in the association head. `weights` is taken as by
    `mat_forward`.
    """
    res = mat_forward(scene, cfg, weights, curve_seed)
    amat = association_probs(
        res.centerline_feats,
        res.road_feats,
        res.tokens.token_ids(KIND_ROAD),
        pooling=cfg.pooling,
        road_ids=scene.sd.node_ids,
        centerline_ids=scene.hd.node_ids,
    )
    return amat, res

"""Deterministic forward pass over a scene.

Token assembly
--------------
Every map element is flattened into direction-vector tokens in a fixed order:
roads ascending by id (one token per polyline segment), then centerlines
ascending by id (one token each), then boundaries ascending by id (one token
per segment). Path attention groups tokens by root-to-leaf paths of the road
graph, root-to-leaf paths of the lane graph, and per-boundary chains, so every
token sits on at least one path.

The pass is pure: same scene, config, weights, and curve seed give bit-equal
outputs. All returned tensors are float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assocmatrix import AssocMatrix
from ..curves import CURVE_KINDS, grid_encode_batch
from ..errors import ConfigError, LabelError
from ..geometry import PathIndex, Scene, enumerate_paths
from .attention import AttnWeights, gelu, layer_norm, path_attention, spatial_attention
from .config import ModelConfig
from .weights import EMBED_IN, validate_weights

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

    kind      per-token element class (KIND_* constants)
    parent    per-token parent element id
    inst_pos  per-token ordinal position inside its parent element
    pidx      token-level path index (token indices, not element ids)
    """

    vectors: tuple
    kind: np.ndarray
    parent: np.ndarray
    inst_pos: np.ndarray
    pidx: PathIndex

    def __len__(self) -> int:
        return len(self.vectors)

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
    """Flatten a scene into tokens and the path index covering them."""
    vectors = []
    kind = []
    parent = []
    inst_pos = []
    road_span = {}
    cl_slot = {}
    # the graphs hold their elements sorted by id
    for road in scene.sd.roads:
        start = len(vectors)
        for i, v in enumerate(road.vectors):
            vectors.append(v)
            kind.append(KIND_ROAD)
            parent.append(road.id)
            inst_pos.append(i)
        road_span[road.id] = (start, len(vectors))
    for cl in scene.hd.centerlines:
        cl_slot[cl.id] = len(vectors)
        vectors.append(cl.vector)
        kind.append(KIND_CENTERLINE)
        parent.append(cl.id)
        inst_pos.append(0)
    boundary_chains = []
    for b in scene.hd.boundaries:
        start = len(vectors)
        for i, v in enumerate(b.vectors):
            vectors.append(v)
            kind.append(KIND_BOUNDARY)
            parent.append(b.id)
            inst_pos.append(i)
        boundary_chains.append(tuple(range(start, len(vectors))))

    paths = []
    for rp in enumerate_paths(scene.sd).paths:
        toks = []
        for rid in rp:
            lo, hi = road_span[rid]
            toks.extend(range(lo, hi))
        paths.append(tuple(toks))
    for lp in enumerate_paths(scene.hd).paths:
        paths.append(tuple(cl_slot[cid] for cid in lp))
    paths.extend(boundary_chains)
    pidx = PathIndex(
        paths=tuple(paths), dup_map=tuple(t for p in paths for t in p)
    )
    return TokenSet(
        vectors=tuple(vectors),
        kind=np.asarray(kind, dtype=np.int8),
        parent=np.asarray(parent, dtype=np.int64),
        inst_pos=np.asarray(inst_pos, dtype=np.int64),
        pidx=pidx,
    )


def embed_vectors(vectors, weights: dict) -> np.ndarray:
    """Two-layer MLP lifting each 5-number vector to the stage-0 width."""
    if len(vectors) == 0:
        raise ConfigError("no vectors to embed")
    try:
        w1, b1 = weights["embed.fc1.weight"], weights["embed.fc1.bias"]
        w2, b2 = weights["embed.fc2.weight"], weights["embed.fc2.bias"]
    except KeyError as err:
        raise ConfigError(f"missing embedding tensor {err.args[0]}") from None
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.ndim != 2 or w1.shape[0] != EMBED_IN:
        raise ConfigError(f"embed.fc1.weight shape {w1.shape}, expected ({EMBED_IN}, C)")
    if w2.ndim != 2 or w2.shape[0] != w1.shape[1]:
        raise ConfigError(f"embed.fc2.weight shape {w2.shape} does not chain {w1.shape}")
    x = np.asarray([v.as_tuple() for v in vectors], dtype=np.float64)
    h = gelu(x @ w1 + np.asarray(b1, dtype=np.float64))
    out = h @ w2 + np.asarray(b2, dtype=np.float64)
    return out.astype(np.float32)


def resolve_curve_kinds(cfg: ModelConfig, curve_seed: int = 0) -> tuple:
    """Per-block serialization curves; "random" draws from a seeded stream."""
    if cfg.curve != "random":
        return (cfg.curve,) * cfg.n_blocks
    rng = np.random.default_rng(curve_seed)
    picks = rng.integers(0, len(CURVE_KINDS), size=cfg.n_blocks)
    return tuple(CURVE_KINDS[int(i)] for i in picks)


def _ffn(x: np.ndarray, weights: dict, base: str) -> np.ndarray:
    h = layer_norm(x, weights[f"{base}.norm.weight"], weights[f"{base}.norm.bias"])
    # in-place bias adds and gelu keep the (N, 4C) hidden layer to two buffers
    h64 = h.astype(np.float64) @ np.asarray(weights[f"{base}.fc1.weight"], dtype=np.float64)
    h64 += np.asarray(weights[f"{base}.fc1.bias"], dtype=np.float64)
    h64 = gelu(h64)
    out = h64 @ np.asarray(weights[f"{base}.fc2.weight"], dtype=np.float64)
    out += np.asarray(weights[f"{base}.fc2.bias"], dtype=np.float64)
    return out.astype(np.float32)


def mat_forward(
    scene: Scene,
    cfg: ModelConfig,
    weights: dict,
    curve_seed: int = 0,
) -> ForwardResult:
    """Run every stage over a scene; returns per-class float32 features.

    Each block applies its two attentions in cfg.attention_order, then the
    FFN, every sub-layer as a pre-norm residual. Stages are bridged by a
    linear channel projection; the token count never changes.
    """
    validate_weights(weights, cfg)
    tokens = build_tokens(scene)
    if len(tokens) == 0:
        raise ConfigError("scene has no map elements to tokenize")
    x = embed_vectors(tokens.vectors, weights)
    coords = grid_encode_batch(tokens.vectors, cfg.grid_g, cfg.grid_R)
    kinds = resolve_curve_kinds(cfg, curve_seed)
    bi = 0
    for s, stage in enumerate(cfg.stages):
        if s > 0:
            x64 = x.astype(np.float64)
            w = np.asarray(weights[f"stage{s}.proj.weight"], dtype=np.float64)
            b = np.asarray(weights[f"stage{s}.proj.bias"], dtype=np.float64)
            x = (x64 @ w + b).astype(np.float32)
        for blk in range(stage.blocks):
            base = f"stage{s}.block{blk}"
            for attn in cfg.attention_order:
                if attn == "spatial":
                    h = layer_norm(
                        x,
                        weights[f"{base}.sa.norm.weight"],
                        weights[f"{base}.sa.norm.bias"],
                    )
                    aw = AttnWeights.from_dict(weights, f"{base}.sa", stage.heads)
                    x = x + spatial_attention(
                        h, coords, aw, cfg.patch_size, kinds[bi], rope_base=cfg.rope_base
                    )
                else:
                    h = layer_norm(
                        x,
                        weights[f"{base}.pa.norm.weight"],
                        weights[f"{base}.pa.norm.bias"],
                    )
                    aw = AttnWeights.from_dict(weights, f"{base}.pa", stage.heads)
                    x = x + path_attention(
                        h, tokens.pidx, aw, tokens.inst_pos, rope_base=cfg.rope_base
                    )
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
    if pooling not in ("avg", "max"):
        raise ConfigError(f"pooling must be 'avg' or 'max', got {pooling!r}")
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
    d = cl.shape[1]
    logits = cl @ pooled.T / np.sqrt(d)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    if centerline_ids is None:
        centerline_ids = range(cl.shape[0])
    return AssocMatrix(
        probs=probs.astype(np.float32),
        centerline_ids=tuple(int(c) for c in centerline_ids),
        road_ids=tuple(road_ids),
    )


def mat_associate(
    scene: Scene,
    cfg: ModelConfig,
    weights: dict,
    curve_seed: int = 0,
) -> tuple:
    """Forward a scene and build its association matrix over all roads.

    Returns (AssocMatrix, ForwardResult). Boundary tokens take part in
    attention but never in the association head.
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

"""Attention mechanisms: multi-axis RoPE, path attention, spatial attention.

Both attention ops take float32 token matrices and return float32; all
internal arithmetic runs in float64 so results are reproducible bit-for-bit
and match a dense reference computation to well under 1e-5.

Path attention duplicates each token into every root-to-leaf path it lies on,
attends within each path, and scatter-means the copies back:

    v_j = mean over path copies i of out_i   where copy i originates from j

Spatial attention serializes tokens along a space-filling curve, splits the
serialized sequence into consecutive patches and attends within each patch.

Both ops run one batched kernel instead of a loop over groups:

- Project once. Q/K/V are projected once per unique token (`_project`).
  The weights arrive as float64 when the forward pass reads
  `PreparedWeights`, cast once per run. RoPE axes that belong to the token
  itself, the instance axis and the three grid axes, are rotated there too,
  Q and K by one table of factors, so a token on 30 paths is projected and
  rotated once.
- Bucket by length. Paths of equal length stack into a (B, L) index array,
  so no group is padded or masked. Spatial patches are equal-length by
  construction; the short last patch is a batch of one.
- Chunk. A bucket is cut into blocks of at most _CHUNK_COPIES token copies.
  Per block the copies of Q/K/V are gathered, the path axis is rotated by
  each copy's step (the token axes turn by angle 0 there, an exact
  identity), and `_group_attention` runs one softmax over the
  (heads, B, L, L) scores. A path longer than _CHUNK_COPIES is a chunk of
  its own, and its queries attend in blocks of at most _CHUNK_COPIES**2 // L
  rows (at least 1), so no score block outgrows _CHUNK_COPIES**2 entries per
  head unless a single row of L keys does. One table of path-step factors
  per call serves every bucket: a bucket of length L reads its first L rows.
- Serialize once. `serializations` sorts the tokens once per curve kind; a
  forward pass hands every spatial block its kind's permutation.
- Scatter-mean. Path copies are summed per token with one `np.add.at` per
  block and divided by the token's copy count. The output projection then
  runs once per token, on the merged rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..curves import DEFAULT_ORDER, sort_tokens
from ..errors import ConfigError, TopologyError
from ..geometry import PathIndex

__all__ = [
    "AttnWeights",
    "gelu",
    "layer_norm",
    "rope_rotate",
    "path_attention",
    "spatial_attention",
    "serializations",
]

_SQRT2 = np.sqrt(2.0)

# Token copies per batched kernel step: bounds the score block to
# _CHUNK_COPIES**2 float64 entries per head (2 MB) whatever the scene size, and
# the gathered Q/K/V to _CHUNK_COPIES copies, or to the tokens of one path
# longer than that.
_CHUNK_COPIES = 512


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian-error linear unit, exact erf form."""
    from scipy.special import erf  # here, so that only a model run pays scipy's import

    x = np.asarray(x)
    # 0.5 * x * (1 + erf(x / sqrt 2)) in place, so a wide FFN hidden layer
    # holds one temporary; a 0-d input gives a scalar, which has no buffer
    out = x / _SQRT2
    out = erf(out, out=out) if out.ndim else erf(out)
    out += 1.0
    out *= x
    out *= 0.5
    return out


def layer_norm(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x64 = np.asarray(x, dtype=np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    out = (x64 - mean) / np.sqrt(var + eps)
    out = out * weight + bias
    return out.astype(np.asarray(x).dtype)


def rope_rotate(x: np.ndarray, positions, axes: int, base: float = 10000.0) -> np.ndarray:
    """Rotate channel pairs of `x` by per-axis position-dependent angles.

    x          (..., N, d) with d divisible by 2*axes
    positions  (N, axes) integers (a 1-D array is accepted when axes == 1)

    The head dimension is split into `axes` equal chunks; within chunk a,
    adjacent channel pairs (2i, 2i+1) rotate by positions[:, a] * base^(-2i/da)
    where da is the chunk width. Output dtype follows the input.
    """
    x = np.asarray(x)
    d = x.shape[-1]
    n = x.shape[-2]
    if axes < 1:
        raise ConfigError(f"need at least one rotation axis, got {axes}")
    if d % (2 * axes) != 0:
        raise ConfigError(f"head dim {d} not divisible by {2 * axes} for {axes} axes")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim == 1:
        pos = pos[:, None]
    if pos.shape != (n, axes):
        raise ConfigError(f"positions shape {pos.shape}, expected ({n}, {axes})")
    out = _turn(np.asarray(x, dtype=np.float64), _rope_factors(pos, d, base))
    return out.astype(x.dtype, copy=False)


def _rope_factors(pos: np.ndarray, d: int, base: float) -> np.ndarray:
    """The (N, d/2) unit complex factors that turn each channel pair.

    pos is (N, axes) float64. Each factor depends only on its own row of pos,
    so a slice of a larger table is the table of that slice's positions.
    """
    n, axes = pos.shape
    da = d // axes
    half = da // 2
    freqs = float(base) ** (-2.0 * np.arange(half, dtype=np.float64) / da)
    ang = (pos[:, :, None] * freqs).reshape(n, axes * half)  # (N, d/2), axis-major
    rot = np.empty(ang.shape, dtype=np.complex128)
    rot.real, rot.imag = np.cos(ang), np.sin(ang)
    return rot


def _turn(x64: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Float64 x (..., N, d) with every channel pair turned by its factor in rot."""
    # pair (2i, 2i+1) as the complex number x_2i + j x_2i+1 turns by one
    # complex multiply: (x_2i cos - x_2i+1 sin) + j (x_2i sin + x_2i+1 cos)
    if x64.strides[-1] != x64.itemsize:
        x64 = np.ascontiguousarray(x64)
    return (x64.view(np.complex128) * rot).view(np.float64)


@dataclass(frozen=True)
class AttnWeights:
    """Projection weights of one attention op (row-vector convention)."""

    q_w: np.ndarray
    q_b: np.ndarray
    k_w: np.ndarray
    k_b: np.ndarray
    v_w: np.ndarray
    v_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    heads: int

    def __post_init__(self):
        c = np.asarray(self.q_w).shape[0]
        for name in ("q_w", "k_w", "v_w", "out_w"):
            shape = np.asarray(getattr(self, name)).shape
            if shape != (c, c):
                raise ConfigError(f"{name} shape {shape}, expected ({c}, {c})")
        for name in ("q_b", "k_b", "v_b", "out_b"):
            shape = np.asarray(getattr(self, name)).shape
            if shape != (c,):
                raise ConfigError(f"{name} shape {shape}, expected ({c},)")
        if self.heads < 1 or c % self.heads != 0:
            raise ConfigError(f"channels {c} not divisible by {self.heads} heads")

    @classmethod
    def from_dict(cls, weights: dict, prefix: str, heads: int) -> "AttnWeights":
        """Pull q/k/v/out tensors named `{prefix}.{q,k,v,out}.{weight,bias}`."""
        try:
            return cls(
                q_w=weights[f"{prefix}.q.weight"],
                q_b=weights[f"{prefix}.q.bias"],
                k_w=weights[f"{prefix}.k.weight"],
                k_b=weights[f"{prefix}.k.bias"],
                v_w=weights[f"{prefix}.v.weight"],
                v_b=weights[f"{prefix}.v.bias"],
                out_w=weights[f"{prefix}.out.weight"],
                out_b=weights[f"{prefix}.out.bias"],
                heads=heads,
            )
        except KeyError as err:
            raise ConfigError(f"missing attention tensor {err.args[0]}") from None

    @property
    def channels(self) -> int:
        return np.asarray(self.q_w).shape[0]


def _project(x: np.ndarray, w: AttnWeights, pos: np.ndarray, base: float) -> tuple:
    """(QK, V) of tokens x: QK is (2, heads, n, hd) float64 rotated by pos, V (heads, n, hd).

    pos holds the RoPE positions that belong to the token itself, one column
    per axis, so each token is projected and rotated once however many
    groups it sits in. Q and K are rotated in one call, by one table.
    """
    n, c = x.shape
    if c != w.channels:
        raise ConfigError(f"token width {c} does not match weights ({w.channels})")
    x64 = np.asarray(x, dtype=np.float64)
    heads, hd = w.heads, c // w.heads
    qk = np.empty((2, n, c), dtype=np.float64)
    for i, (proj_w, proj_b) in enumerate(((w.q_w, w.q_b), (w.k_w, w.k_b))):
        np.matmul(x64, proj_w, out=qk[i])
        qk[i] += proj_b
    # V gets its own buffer: a view into QK's would keep unrotated Q and K alive
    v = x64 @ w.v_w
    v += w.v_b
    qk = qk.reshape(2, n, heads, hd).transpose(0, 2, 1, 3)
    return rope_rotate(qk, pos, pos.shape[1], base), v.reshape(n, heads, hd).transpose(1, 0, 2)


def _group_attention(q, k, v) -> np.ndarray:
    """Softmax attention within each group, all groups in one batch.

    k, v are (heads, B, L, hd): B groups of L tokens, RoPE already applied;
    q is (heads, B, Lq, hd), the queries of Lq of those tokens. Returns the
    (B * Lq, heads * hd) merged-head outputs, group-major, before the output
    projection.
    """
    heads, b, length, hd = q.shape
    attn = q @ k.swapaxes(-1, -2)  # (heads, B, Lq, L)
    attn /= np.sqrt(hd)
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out = attn @ v
    return out.transpose(1, 2, 0, 3).reshape(b * length, heads * hd)


def _out_project(y: np.ndarray, w: AttnWeights, dtype) -> np.ndarray:
    out = y @ w.out_w
    out += w.out_b
    return out.astype(dtype, copy=False)


def path_attention(
    tokens: np.ndarray,
    pidx: PathIndex,
    weights: AttnWeights,
    positions,
    rope_base: float = 10000.0,
) -> np.ndarray:
    """Per-path self-attention with scatter-mean merge of duplicated tokens.

    pidx holds token indices into `tokens`, read from its flat arrays; every
    token must appear on at least one path. `positions` gives each token's
    ordinal position inside its parent element (the instance-level RoPE
    axis); the path-level axis is the token's index along each path copy.
    """
    x = np.asarray(tokens)
    n = x.shape[0]
    flat, lengths = pidx.nodes, np.diff(pidx.offsets)
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        raise TopologyError(f"path token index out of range for {n} tokens")
    counts = np.bincount(flat, minlength=n)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise TopologyError(f"tokens not covered by any path: {missing.tolist()}")
    inst = np.asarray(positions, dtype=np.int64)
    if inst.shape != (n,):
        raise ConfigError(f"positions shape {inst.shape}, expected ({n},)")
    if n == 0:
        return x.copy()
    token_pos = np.stack([np.zeros(n, dtype=np.int64), inst], axis=1)
    qk, v = _project(x, weights, token_pos, rope_base)
    c = weights.channels
    acc = np.zeros((n, c), dtype=np.float64)
    channels = np.arange(c)
    starts = pidx.offsets[:-1]
    # the path axis rotates every copy by its step; the instance axis was
    # rotated per token in _project, so it turns by 0 here (an identity).
    # One table covers every step; a bucket of length L reads its first L rows.
    steps = np.zeros((int(lengths.max()), 2), dtype=np.float64)
    steps[:, 0] = np.arange(steps.shape[0])
    step_rot = _rope_factors(steps, c // weights.heads, rope_base)
    for length in np.unique(lengths[lengths > 0]):
        rows = flat[starts[lengths == length, None] + np.arange(length)]
        rot = step_rot[:length]
        per_chunk = max(1, _CHUNK_COPIES // int(length))
        # a path longer than a chunk attends `span` query rows at a time
        # against all its keys: at most max(_CHUNK_COPIES**2, L) scores per head
        span = int(length) if length <= _CHUNK_COPIES else max(1, _CHUNK_COPIES**2 // int(length))
        for i in range(0, rows.shape[0], per_chunk):
            chunk = rows[i : i + per_chunk]
            qkg = _turn(qk[:, :, chunk], rot)
            vg = v[:, chunk]
            for j in range(0, length, span):
                queries = chunk[:, j : j + span]
                # one flat index per (copy, channel) keeps np.add.at on its 1-D fast path
                cells = (queries.reshape(-1, 1) * c + channels).ravel()
                out = _group_attention(qkg[0][:, :, j : j + span], qkg[1], vg)
                np.add.at(acc.reshape(-1), cells, out.ravel())
    del qk, v  # free them before the output projection
    acc /= counts[:, None]
    return _out_project(acc, weights, x.dtype)


def spatial_attention(
    tokens: np.ndarray,
    coords,
    weights: AttnWeights,
    patch_size: int,
    kind: str,
    order: int = DEFAULT_ORDER,
    rope_base: float = 10000.0,
    *,
    perm=None,
) -> np.ndarray:
    """Patch attention along a space-filling curve serialization.

    Tokens are sorted by curve index of their (x, y, r) grid cells, split into
    consecutive patches of `patch_size` (the last one shorter), attended per
    patch with 3-axis RoPE over the raw grid coordinates, and returned in the
    original token order. `perm`, when given, is that sort,
    `sort_tokens(coords, kind, order).perm`, computed once by the caller
    (see `serializations`).
    """
    x = np.asarray(tokens)
    n = x.shape[0]
    coords = np.asarray(coords, dtype=np.int64)
    if coords.shape != (n, 3):
        raise ConfigError(f"coords shape {coords.shape}, expected ({n}, 3)")
    if patch_size < 1:
        raise ConfigError(f"patch_size must be >= 1, got {patch_size}")
    if n == 0:
        return x.copy()
    if perm is None:
        perm = sort_tokens(coords, kind, order).perm
    elif np.shape(perm) != (n,):
        raise ConfigError(f"perm shape {np.shape(perm)}, expected ({n},)")
    out = np.empty_like(x)
    # whole patches per step; each token sits in exactly one patch, so
    # projecting step by step still projects every token once
    step = max(1, _CHUNK_COPIES // patch_size) * patch_size
    heads, hd = weights.heads, weights.channels // weights.heads
    for start in range(0, n, step):
        tok = perm[start : start + step]
        m = len(tok)
        qk, v = _project(x[tok], weights, coords[tok], rope_base)
        full = m - m % patch_size
        # whole patches as one batch, the short last patch as a batch of one
        for lo, hi, size in ((0, full, patch_size), (full, m, m - full)):
            if hi > lo:
                groups = (a[:, lo:hi].reshape(heads, -1, size, hd) for a in (qk[0], qk[1], v))
                out[tok[lo:hi]] = _out_project(_group_attention(*groups), weights, x.dtype)
    return out


def serializations(coords, kinds, order: int = DEFAULT_ORDER) -> dict:
    """{kind: serialization permutation} of coords, one `sort_tokens` per distinct kind.

    A forward pass computes these once per scene and hands each spatial
    block the permutation of its kind.
    """
    return {kind: sort_tokens(coords, kind, order).perm for kind in dict.fromkeys(kinds)}

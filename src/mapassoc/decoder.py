"""Topology-constrained bidirectional beam search over association rows.

Decoding runs per lane path. The seed hypothesis is the single most confident
(token, road) cell of the path's probability rows; hypotheses then grow one
token per step, leftward or rightward, only through road pairs connected in
the road graph (self-transitions always count as connected, since many
consecutive centerlines legitimately map to one road). All hypotheses reach
full span at the same step; the best-scoring one wins.

Scores are sums of log-probabilities. When no connected extension exists at
some step, the decoder falls back to the unconstrained argmax for that token
and flags the position, so the result is always total.

Tie-breaks, in order: higher score, lexicographically smaller label sequence,
smaller left span index.

`beam_decode` does the work that does not depend on the path once per call:
the logs, each row's argmax and max, and the sorted predecessor and successor
tables of the road graph. `decode_association` therefore calls it once per
scene, passing every lane path as row indices through `paths=`; each path
then runs the search on plain tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .assocmatrix import AssocMatrix
from .errors import ConfigError, LabelError
from .fields import at_least, check_fields
from .geometry import Association, Scene
from .geometry import enumerate_paths  # noqa: F401  kept as a module attribute; bench/tracer.py patches it

__all__ = [
    "DecoderConfig",
    "DecodeResult",
    "beam_decode",
    "decode_association",
]


@dataclass(frozen=True)
class DecoderConfig:
    """Beam width; the beam always grows to the full length of the path."""

    k: int = field(default=5, metadata=at_least(1))

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class DecodeResult:
    """Total labels for one lane path, position-aligned with the path."""

    labels: tuple
    score: float
    fallback_positions: tuple = ()

    @property
    def fallback(self) -> bool:
        """Whether any position took the unconstrained argmax."""
        return bool(self.fallback_positions)


def _best_cell(vals: list, cols: list) -> tuple:
    """Globally best (token, column) from each row's max and first argmax.

    Ties take the lowest token, then (through argmax) the lowest column.
    """
    t = vals.index(max(vals))
    return t, cols[t]


def _road_tables(road_ids: list, sd_edges) -> tuple:
    """Predecessor and successor tables: road id -> ((id, column), ...).

    Each entry is sorted by id and includes the road itself; edges that touch
    an id outside `road_ids` are ignored, and a repeated id takes its last
    column.
    """
    known = set(road_ids)
    succ = {r: {r} for r in road_ids}
    pred = {r: {r} for r in road_ids}
    for a, b in sd_edges:
        a, b = int(a), int(b)
        if a in known and b in known:
            succ[a].add(b)
            pred[b].add(a)
    col = {r: j for j, r in enumerate(road_ids)}
    return tuple(
        {r: tuple((w, col[w]) for w in sorted(ws)) for r, ws in adj.items()} for adj in (pred, succ)
    )


def beam_decode(
    rows: np.ndarray,
    road_ids,
    sd_edges,
    cfg: DecoderConfig = DecoderConfig(),
    *,
    paths=None,
) -> Union[DecodeResult, list]:
    """Decode (T, K) probability rows into road labels.

    Without `paths`, the rows are one lane path in order and the result is
    one DecodeResult. With `paths`, a sequence of row-index sequences into
    `rows`, every path is decoded and the results come back as a list in
    the same order; the setup is shared, the results are those of decoding
    each path's rows on their own.

    `sd_edges` is the directed road connectivity; an extension to the left
    prepends a predecessor of the current first label, to the right appends a
    successor of the current last label. Raises ConfigError on a malformed
    shape or a cell that is not a finite probability >= 0.
    """
    rows = np.asarray(rows, dtype=np.float64)
    single = paths is None
    if single:
        paths = (range(rows.shape[0]),) if rows.ndim == 2 else ()
    if rows.ndim != 2 or (len(paths) and min(rows.shape) < 1):
        raise ConfigError(f"expected a (T, K) matrix with T, K >= 1, got {rows.shape}")
    road_ids = [int(r) for r in road_ids]
    if len(road_ids) != rows.shape[1]:
        raise ConfigError(f"{len(road_ids)} road ids for {rows.shape[1]} columns")
    bad = ~(np.isfinite(rows) & (rows >= 0.0))
    if bad.any():
        i, j = (int(v) for v in np.argwhere(bad)[0])
        raise ConfigError(f"row {i} column {j} holds {float(rows[i, j])}, not a finite probability >= 0")
    if not len(paths):
        return []
    with np.errstate(divide="ignore"):
        logs = np.log(rows).tolist()
    best_col = rows.argmax(axis=1).tolist()
    best_val = rows.max(axis=1).tolist()
    pred, succ = _road_tables(road_ids, sd_edges)
    results = [
        _search(path, logs, best_col, best_val, road_ids, pred, succ, cfg.k) for path in paths
    ]
    return results[0] if single else results


def _search(path, logs, best_col, best_val, road_ids, pred, succ, k) -> DecodeResult:
    """The beam search over one path's rows; see the module docstring."""
    if not len(path):
        raise LabelError("empty lane path")
    if min(path) < 0 or max(path) >= len(logs):
        raise ConfigError(f"path row indices must lie in [0, {len(logs)}), got {list(path)}")
    lrows = [logs[i] for i in path]
    cols = [best_col[i] for i in path]
    vals = [best_val[i] for i in path]
    t_steps = len(path)
    last = t_steps - 1
    t0, j0 = _best_cell(vals, cols)
    # A hypothesis is (-score, labels, left, rank, right, fallback positions):
    # the native tuple sort orders by score, labels and left, and the unique
    # insertion rank keeps tied candidates in insertion order.
    beam = [(-lrows[t0][j0], (road_ids[j0],), t0, 0, t0, ())]
    neg_inf = -math.inf
    for _ in range(t_steps - 1):
        cands = []
        add = cands.append
        n = 0
        for neg, labels, left, _, right, fb in beam:
            score = -neg
            if left > 0:
                t = left - 1
                lrow = lrows[t]
                for w, c in pred[labels[0]]:
                    s = score + lrow[c]
                    if s != neg_inf:
                        add((-s, (w,) + labels, t, n, right, fb))
                        n += 1
            if right < last:
                t = right + 1
                lrow = lrows[t]
                for w, c in succ[labels[-1]]:
                    s = score + lrow[c]
                    if s != neg_inf:
                        add((-s, labels + (w,), left, n, t, fb))
                        n += 1
        if not cands:
            # dead end: take the unconstrained argmax for the next token
            for neg, labels, left, _, right, fb in beam:
                t = right + 1 if right < last else left - 1
                j = cols[t]
                s = -neg + lrows[t][j]
                if right < last:
                    add((-s, labels + (road_ids[j],), left, len(cands), t, fb + (t,)))
                else:
                    add((-s, (road_ids[j],) + labels, t, len(cands), right, fb + (t,)))
        cands.sort()
        beam = cands[:k]
    neg, labels, _, _, _, fb = beam[0]
    return DecodeResult(labels=labels, score=float(-neg), fallback_positions=tuple(sorted(fb)))


def decode_association(
    scene: Scene,
    amat: AssocMatrix,
    cfg: DecoderConfig = DecoderConfig(),
) -> Association:
    """Beam-decode every lane path of a scene into one total Association.

    One `beam_decode` call decodes every path of the graph's flat path index
    (`scene.hd.path_rows`), as row indices into `amat.probs`. A centerline
    takes its label from the highest-scoring path through it; ties go to the
    earlier path in enumeration order. Paths that needed an argmax fallback
    are listed in the association's meta.
    """
    rows = scene.hd.path_rows
    # each path token's matrix row, through its centerline's row in the graph
    flat = np.asarray(amat.row_indices(scene.hd.node_ids), dtype=np.int64)[rows.nodes].tolist()
    ends = rows.offsets.tolist()
    paths = list(map(flat.__getitem__, map(slice, ends, ends[1:])))
    results = beam_decode(amat.probs, amat.road_ids, scene.sd.edges, cfg, paths=paths)
    # a centerline's label comes from its token on the highest-scoring path:
    # lexsort orders the tokens by centerline row, then by falling path score,
    # and it is stable, so of tied paths the earliest comes first
    score = np.repeat([res.score for res in results], np.diff(ends))
    order = np.lexsort((-score, rows.nodes))
    # each centerline row's first token in that order: every centerline lies on a path
    won = order[np.searchsorted(rows.nodes[order], np.arange(len(scene.hd.node_ids)))].tolist()
    tokens = [rid for res in results for rid in res.labels]
    labels = dict(zip(scene.hd.node_ids, map(int, map(tokens.__getitem__, won))))
    meta = {"method": "beam", "k": cfg.k}
    fallback_paths = [pi for pi, res in enumerate(results) if res.fallback]
    if fallback_paths:
        meta["fallback_paths"] = fallback_paths
    return Association(labels=labels, meta=meta)

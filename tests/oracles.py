"""Independent reference implementations the tests freeze values from.

Everything here favors clarity over speed: explicit loops, dense masks,
exhaustive enumeration, naive recursion. Production code must match these
references, never the other way around. Nothing in this module imports
from the production attention, decoding or metric internals; the
package imports are leaf data types, the curve-index primitive (whose own
tests pin it against hand values), for the per-path and the exhaustive HMM
references the HMM's emission and transition builders, path enumeration
and `viterbi` (pinned against `brute_viterbi`), for the per-pair metric reference the
public pair scorers `label_sequence`, `overlap_ratio` and `chamfer_distance`
(pinned against `lcs_overlap` and `chamfer_brute`), for the per-path beam
reference the decoder's config and result types, for the element-by-
element scene reader the checking geometry constructors, and for the
per-point perturbation and augmentation the geometry constructors and the
configs' fields.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from mapassoc.assocmatrix import AssocMatrix
from mapassoc.baselines import _log_emissions, _log_transition_matrix, viterbi
from mapassoc.curves import GridCoord, curve_index
from mapassoc.decoder import DecodeResult, DecoderConfig
from mapassoc.errors import (
    ConfigError,
    CoverageError,
    InvalidGeometryError,
    LabelError,
    MapAssocError,
    NoFeasiblePathError,
    TopologyError,
    ValidationError,
)
from mapassoc.geometry import (
    Association,
    Boundary,
    Centerline,
    DirVec,
    HdGraph,
    Point2,
    Road,
    Scene,
    SdGraph,
    enumerate_paths,
)
from mapassoc.metrics import chamfer_distance, label_sequence, overlap_ratio


# ---------------------------------------------------------------------------
# graphs


def paths_reference(graph) -> tuple:
    """Every root-to-leaf path of a DAG as a tuple of node ids, by recursion
    from each node with no predecessor, sorted lexicographically."""
    ids = list(graph.by_id)
    succ = {i: sorted(b for a, b in graph.edges if a == i) for i in ids}
    has_pred = {b for _, b in graph.edges}

    def walk(path):
        nxt = succ[path[-1]]
        return [path] if not nxt else [p for w in nxt for p in walk(path + (w,))]

    return tuple(sorted(p for i in ids if i not in has_pred for p in walk((i,))))


def token_paths_reference(scene: Scene) -> tuple:
    """The transformer's token paths, token by token: each road path with
    every road's segment tokens in order, each lane path's centerline
    tokens, then every boundary's segment tokens, in the token order roads,
    centerlines, boundaries, each ascending by id."""
    spans, token = {}, 0
    for road in scene.sd.roads:
        spans[road.id] = list(range(token, token + len(road.points) - 1))
        token += len(road.points) - 1
    slot = {}
    for cl in scene.hd.centerlines:
        slot[cl.id] = token
        token += 1
    chains = []
    for b in scene.hd.boundaries:
        chains.append(tuple(range(token, token + len(b.points) - 1)))
        token += len(b.points) - 1
    roads = [tuple(t for rid in p for t in spans[rid]) for p in paths_reference(scene.sd)]
    lanes = [tuple(slot[cid] for cid in p) for p in paths_reference(scene.hd)]
    return tuple(roads + lanes + chains)


def longest_path_depths(n: int, tail: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Longest-path depth of nodes 0..n-1 over the edges tail[i] -> head[i].

    Jacobi relaxation of depth[v] = 1 + max over preds (0 at roots); on a DAG
    it settles after (longest path + 1) sweeps, each one reduceat over the
    edges grouped by head.
    """
    depth = np.zeros(n, dtype=np.int64)
    if not len(head):
        return depth
    order = np.argsort(head, kind="stable")
    t, h = tail[order], head[order]
    first = np.flatnonzero(np.concatenate(([True], h[1:] != h[:-1])))
    heads = h[first]
    while True:
        d = np.maximum.reduceat(depth[t], first)
        d += 1
        if (d == depth[heads]).all():
            return depth
        depth[heads] = d


# ---------------------------------------------------------------------------
# rotary embedding and attention


def rope_reference(x, positions, axes: int, base: float = 10000.0) -> np.ndarray:
    """Explicit 2x2 rotation matrices, one channel pair at a time."""
    x = np.asarray(x, dtype=np.float64)
    pos = np.asarray(positions, dtype=np.float64)
    n, d = x.shape
    d_axis = d // axes
    out = x.copy()
    for t in range(n):
        for a in range(axes):
            for i in range(d_axis // 2):
                theta = pos[t, a] * base ** (-2.0 * i / d_axis)
                c, s = math.cos(theta), math.sin(theta)
                j = a * d_axis + 2 * i
                x0, x1 = x[t, j], x[t, j + 1]
                out[t, j] = x0 * c - x1 * s
                out[t, j + 1] = x0 * s + x1 * c
    return out


def dense_attention(x, w, mask, positions, axes: int, base: float = 10000.0) -> np.ndarray:
    """Multi-head attention over all tokens with an explicit boolean mask.

    `w` is the production AttnWeights bundle (plain arrays; only its fields
    are read). mask[i, j] True means token i may attend to token j.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c = x.shape
    heads = w.heads
    hd = c // heads
    q = x @ np.asarray(w.q_w, dtype=np.float64) + np.asarray(w.q_b, dtype=np.float64)
    k = x @ np.asarray(w.k_w, dtype=np.float64) + np.asarray(w.k_b, dtype=np.float64)
    v = x @ np.asarray(w.v_w, dtype=np.float64) + np.asarray(w.v_b, dtype=np.float64)
    merged = np.zeros((n, c), dtype=np.float64)
    for h in range(heads):
        sl = slice(h * hd, (h + 1) * hd)
        qh = rope_reference(q[:, sl], positions, axes, base)
        kh = rope_reference(k[:, sl], positions, axes, base)
        vh = v[:, sl]
        for i in range(n):
            scores = []
            cols = [j for j in range(n) if mask[i, j]]
            for j in cols:
                scores.append(float(qh[i] @ kh[j]) / math.sqrt(hd))
            m = max(scores)
            weights = [math.exp(s - m) for s in scores]
            z = sum(weights)
            acc = np.zeros(hd, dtype=np.float64)
            for wj, j in zip(weights, cols):
                acc += (wj / z) * vh[j]
            merged[i, sl] = acc
    return merged @ np.asarray(w.out_w, dtype=np.float64) + np.asarray(w.out_b, dtype=np.float64)


def path_attention_reference(tokens, paths, w, inst_pos, base: float = 10000.0) -> np.ndarray:
    """Expand tokens along paths, run block-masked dense attention, scatter-mean."""
    tokens = np.asarray(tokens)
    expanded = []
    positions = []
    origin = []
    for path in paths:
        for step, tok in enumerate(path):
            expanded.append(tokens[tok].astype(np.float64))
            positions.append((step, int(inst_pos[tok])))
            origin.append(int(tok))
    x = np.stack(expanded)
    m = len(expanded)
    mask = np.zeros((m, m), dtype=bool)
    start = 0
    for path in paths:
        end = start + len(path)
        mask[start:end, start:end] = True
        start = end
    y = dense_attention(x, w, mask, np.asarray(positions), axes=2, base=base)
    acc = np.zeros((tokens.shape[0], tokens.shape[1]), dtype=np.float64)
    cnt = np.zeros(tokens.shape[0], dtype=np.float64)
    for row, tok in enumerate(origin):
        acc[tok] += y[row]
        cnt[tok] += 1.0
    return (acc / cnt[:, None]).astype(tokens.dtype)


def single_path_attention_reference(tokens, path, w, inst_pos, base: float = 10000.0) -> np.ndarray:
    """`path_attention_reference` for one path that covers every token.

    The same expansion, RoPE reference and scatter-mean, but each head scores
    the path as one dense (L, L) matrix with a numpy softmax per row, so a
    path of thousands of tokens stays cheap.
    """
    tokens = np.asarray(tokens)
    x = tokens[list(path)].astype(np.float64)
    positions = np.array([(step, int(inst_pos[tok])) for step, tok in enumerate(path)])
    n, c = x.shape
    hd = c // w.heads
    q = x @ np.asarray(w.q_w, dtype=np.float64) + np.asarray(w.q_b, dtype=np.float64)
    k = x @ np.asarray(w.k_w, dtype=np.float64) + np.asarray(w.k_b, dtype=np.float64)
    v = x @ np.asarray(w.v_w, dtype=np.float64) + np.asarray(w.v_b, dtype=np.float64)
    merged = np.zeros((n, c), dtype=np.float64)
    for h in range(w.heads):
        sl = slice(h * hd, (h + 1) * hd)
        scores = rope_reference(q[:, sl], positions, 2, base) @ rope_reference(k[:, sl], positions, 2, base).T
        scores /= math.sqrt(hd)
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        merged[:, sl] = (scores / scores.sum(axis=1, keepdims=True)) @ v[:, sl]
    y = merged @ np.asarray(w.out_w, dtype=np.float64) + np.asarray(w.out_b, dtype=np.float64)
    acc = np.zeros((tokens.shape[0], c), dtype=np.float64)
    cnt = np.zeros(tokens.shape[0], dtype=np.float64)
    for row, tok in enumerate(path):
        acc[tok] += y[row]
        cnt[tok] += 1.0
    return (acc / cnt[:, None]).astype(tokens.dtype)


def spatial_attention_reference(
    tokens, coords, w, patch_size: int, kind: str, order: int = 16, base: float = 10000.0
) -> np.ndarray:
    """Serialize by curve index (stable, min-offset), patch, dense-mask attend."""
    tokens = np.asarray(tokens)
    n = tokens.shape[0]
    xs = [c.x for c in coords]
    ys = [c.y for c in coords]
    rs = [c.r for c in coords]
    ox, oy, orr = min(xs), min(ys), min(rs)
    keys = [
        curve_index(GridCoord(c.x - ox, c.y - oy, c.r - orr), kind, order) for c in coords
    ]
    perm = sorted(range(n), key=lambda i: (keys[i], i))
    mask = np.zeros((n, n), dtype=bool)
    for start in range(0, n, patch_size):
        patch = perm[start:start + patch_size]
        for i in patch:
            for j in patch:
                mask[i, j] = True
    positions = np.asarray([(c.x, c.y, c.r) for c in coords], dtype=np.int64)
    return dense_attention(tokens.astype(np.float64), w, mask, positions, axes=3, base=base).astype(
        tokens.dtype
    )


# ---------------------------------------------------------------------------
# decoding


def brute_viterbi(log_emissions, log_transitions, log_prior):
    """Exhaustive max over all S^T state sequences; ties pick the smallest."""
    em = np.asarray(log_emissions, dtype=np.float64)
    tr = np.asarray(log_transitions, dtype=np.float64)
    prior = np.asarray(log_prior, dtype=np.float64)
    t_steps, n_states = em.shape
    best_seq = None
    best_score = -math.inf
    for seq in itertools.product(range(n_states), repeat=t_steps):
        score = prior[seq[0]] + em[0, seq[0]]
        for t in range(1, t_steps):
            score += tr[seq[t - 1], seq[t]] + em[t, seq[t]]
        if score > best_score or (score == best_score and list(seq) < best_seq):
            best_score = score
            best_seq = list(seq)
    return best_seq, float(best_score)


def _polyline_dist_reference(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    # points (N, 2), poly (M, 2) with distinct consecutive rows -> (N,) distances
    a = poly[:-1]
    seg = poly[1:] - a
    seg2 = (seg * seg).sum(axis=1)
    d = points[:, None, :] - a[None, :, :]
    t = np.clip((d * seg[None, :, :]).sum(axis=2) / seg2[None, :], 0.0, 1.0)
    foot = a[None, :, :] + t[:, :, None] * seg[None, :, :]
    diff = points[:, None, :] - foot
    return np.sqrt((diff * diff).sum(axis=2)).min(axis=1)


def scene_distances_reference(scene: Scene) -> tuple[np.ndarray, tuple, tuple]:
    """(n_centerlines, n_roads) midpoint distances, plus sorted id orders.

    Measures every midpoint against one road at a time; a distance is the
    minimum over the road's segments of the distance to the clamped foot of
    the perpendicular.
    """
    cls, roads = scene.hd.centerlines, scene.sd.roads  # both sorted by id
    if not roads:
        raise LabelError("scene has no roads to associate against")
    mids = np.array([[c.vector.midpoint.x, c.vector.midpoint.y] for c in cls], dtype=np.float64)
    mids = mids.reshape(len(cls), 2)
    dist = np.empty((len(cls), len(roads)), dtype=np.float64)
    for j, road in enumerate(roads):
        poly = np.array(road.points, dtype=np.float64)
        if len(cls):
            dist[:, j] = _polyline_dist_reference(mids, poly)
    cl_ids = tuple(c.id for c in cls)
    road_ids = tuple(r.id for r in roads)
    return dist, cl_ids, road_ids


def hmm_per_path_reference(scene):
    """The HMM baseline decoded one enumerated lane path at a time.

    Viterbi runs on every root-to-leaf path; a centerline takes its label from
    the highest-scoring path through it (ties keep the earlier path), and a
    path with no feasible state sequence gives nearest-road labels at score
    -inf. Returns (labels, sorted ids of centerlines whose every path was
    infeasible).
    """
    dist, cl_ids, road_ids = scene_distances_reference(scene)
    row_of = {c: i for i, c in enumerate(cl_ids)}
    log_em = _log_emissions(dist)
    log_tr = _log_transition_matrix(scene)
    log_prior = np.full(len(road_ids), -math.log(len(road_ids)))
    labels, best_score = {}, {}
    for path in enumerate_paths(scene.hd).paths:
        rows = [row_of[c] for c in path]
        try:
            states, score = viterbi(log_em[rows], log_tr, log_prior)
        except NoFeasiblePathError:
            states, score = [int(np.argmin(dist[r])) for r in rows], -math.inf
        for cl, s in zip(path, states):
            if cl not in labels or score > best_score[cl]:
                labels[cl] = int(road_ids[s])
                best_score[cl] = score
    return labels, sorted(c for c, v in best_score.items() if v == -math.inf)


def hmm_exhaustive_reference(scene):
    """The HMM's max-marginals by trying every road sequence of every lane path.

    A sequence's score along a root-to-leaf path is the uniform log prior plus
    its emissions and transitions; M[v, s] is the best score of any (path,
    sequence) through centerline v in road state s, with rows in centerline
    id order and columns in road id order. A centerline takes the lowest road
    id among the best of its row or, when the whole row is -inf, its nearest
    road. Returns (labels, sorted ids of the centerlines that fell back, M).
    """
    dist, cl_ids, road_ids = scene_distances_reference(scene)
    row_of = {c: i for i, c in enumerate(cl_ids)}
    log_em = _log_emissions(dist)
    log_tr = _log_transition_matrix(scene)
    m = np.full(dist.shape, -np.inf)
    for path in enumerate_paths(scene.hd).paths:
        rows = [row_of[c] for c in path]
        seqs = np.array(list(itertools.product(range(len(road_ids)), repeat=len(path))))
        scores = -math.log(len(road_ids)) + log_em[rows[0], seqs[:, 0]]
        for t in range(1, len(path)):
            scores = scores + (log_tr[seqs[:, t - 1], seqs[:, t]] + log_em[rows[t], seqs[:, t]])
        for t, r in enumerate(rows):
            for s in range(len(road_ids)):
                m[r, s] = max(m[r, s], scores[seqs[:, t] == s].max())
    labels, fallback = {}, []
    for c, r in row_of.items():
        if m[r].max() == -np.inf:
            labels[c] = int(road_ids[int(np.argmin(dist[r]))])
            fallback.append(c)
        else:
            labels[c] = int(road_ids[int(np.argmax(m[r]))])
    return labels, fallback, m


def brute_beam(rows, road_ids, edges):
    """Best connected label sequence through the confidence-seeded token.

    Mirrors the decoder's contract: the globally most confident (token,
    label) pair is fixed first (ties: lowest token index, then lowest road
    id), then all |R|^T sequences are scanned, keeping those that pass
    through the seed and whose consecutive labels are equal or SD-adjacent.
    Ties on score pick the lexicographically smallest label sequence.
    """
    rows = np.asarray(rows, dtype=np.float64)
    t_steps, n_roads = rows.shape
    allowed = {(a, b) for a, b in edges}

    best_p = -1.0
    seed = None
    for t in range(t_steps):
        for j in range(n_roads):
            if rows[t, j] > best_p:
                best_p = rows[t, j]
                seed = (t, j)
    seed_t, seed_j = seed

    def connected(a, b):
        return a == b or (a, b) in allowed

    best_seq = None
    best_score = -math.inf
    for cols in itertools.product(range(n_roads), repeat=t_steps):
        if cols[seed_t] != seed_j:
            continue
        if any(not connected(road_ids[cols[t]], road_ids[cols[t + 1]]) for t in range(t_steps - 1)):
            continue
        if any(rows[t, cols[t]] <= 0.0 for t in range(t_steps)):
            continue
        score = sum(math.log(rows[t, cols[t]]) for t in range(t_steps))
        labels = tuple(road_ids[c] for c in cols)
        if score > best_score or (score == best_score and labels < best_seq):
            best_score = score
            best_seq = labels
    return best_seq, best_score


def init_on_rows_reference(rows: np.ndarray) -> tuple:
    """Globally best (token, column); ties take the lowest token then column."""
    row_best = rows.max(axis=1)
    t = int(np.argmax(row_best))
    j = int(np.argmax(rows[t]))
    return t, j


@dataclass(frozen=True)
class Hypothesis:
    """A partial decode: labels for the token interval span=[left, right]."""

    labels: tuple
    score: float
    span: tuple


def beam_decode_reference(
    rows: np.ndarray,
    road_ids,
    sd_edges,
    cfg: DecoderConfig = DecoderConfig(),
) -> DecodeResult:
    """The beam decoder as it ran one path per call, before its per-scene setup.

    Decode one lane path's (T, K) probability rows into road labels.

    `sd_edges` is the directed road connectivity; an extension to the left
    prepends a predecessor of the current first label, to the right appends a
    successor of the current last label.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < 1:
        raise ConfigError(f"expected a (T, K) matrix with T, K >= 1, got {rows.shape}")
    road_ids = [int(r) for r in road_ids]
    if len(road_ids) != rows.shape[1]:
        raise ConfigError(f"{len(road_ids)} road ids for {rows.shape[1]} columns")
    t_steps = rows.shape[0]
    with np.errstate(divide="ignore"):
        logs = np.log(rows)
    known = set(road_ids)
    succ = {r: {r} for r in road_ids}
    pred = {r: {r} for r in road_ids}
    for a, b in sd_edges:
        a, b = int(a), int(b)
        if a in known and b in known:
            succ[a].add(b)
            pred[b].add(a)
    col = {r: j for j, r in enumerate(road_ids)}

    t0, j0 = init_on_rows_reference(rows)
    # beam entries: (Hypothesis, fallback position tuple)
    seed = Hypothesis(labels=(road_ids[j0],), score=float(logs[t0, j0]), span=(t0, t0))
    beam = [(seed, ())]
    while (beam[0][0].span[1] - beam[0][0].span[0] + 1) < t_steps:
        cands = []
        for h, fb in beam:
            left, right = h.span
            if left > 0:
                t = left - 1
                for w in sorted(pred[h.labels[0]]):
                    s = h.score + logs[t, col[w]]
                    if s != -math.inf:
                        cands.append((Hypothesis((w,) + h.labels, s, (t, right)), fb))
            if right < t_steps - 1:
                t = right + 1
                for w in sorted(succ[h.labels[-1]]):
                    s = h.score + logs[t, col[w]]
                    if s != -math.inf:
                        cands.append((Hypothesis(h.labels + (w,), s, (left, t)), fb))
        if not cands:
            # dead end: take the unconstrained argmax for the next token
            for h, fb in beam:
                left, right = h.span
                if right < t_steps - 1:
                    t = right + 1
                    j = int(np.argmax(rows[t]))
                    cands.append(
                        (
                            Hypothesis(
                                h.labels + (road_ids[j],),
                                h.score + float(logs[t, j]),
                                (left, t),
                            ),
                            fb + (t,),
                        )
                    )
                else:
                    t = left - 1
                    j = int(np.argmax(rows[t]))
                    cands.append(
                        (
                            Hypothesis(
                                (road_ids[j],) + h.labels,
                                h.score + float(logs[t, j]),
                                (t, right),
                            ),
                            fb + (t,),
                        )
                    )
        cands.sort(key=lambda e: (-e[0].score, e[0].labels, e[0].span[0]))
        beam = cands[: cfg.k]
    best, fb = beam[0]
    return DecodeResult(
        labels=best.labels,
        score=float(best.score),
        fallback_positions=tuple(sorted(fb)),
    )


def decode_association_reference(
    scene: Scene,
    amat: AssocMatrix,
    cfg: DecoderConfig = DecoderConfig(),
) -> Association:
    """`decode_association` calling `beam_decode_reference` once per lane path.

    Beam-decode every lane path of a scene into one total Association.

    A centerline on several paths takes its label from the highest-scoring
    path; ties go to the earlier path in enumeration order. Paths that needed
    an argmax fallback are listed in the association's meta.
    """
    labels = {}
    best_score = {}
    fallback_paths = []
    for pi, path in enumerate(enumerate_paths(scene.hd).paths):
        rows = amat.rows_for(path)
        res = beam_decode_reference(rows, amat.road_ids, scene.sd.edges, cfg)
        if res.fallback:
            fallback_paths.append(pi)
        for cl, rid in zip(path, res.labels):
            if cl not in labels or res.score > best_score[cl]:
                labels[cl] = int(rid)
                best_score[cl] = res.score
    meta = {"method": "beam", "k": cfg.k}
    if fallback_paths:
        meta["fallback_paths"] = fallback_paths
    return Association(labels=labels, meta=meta)


def decode_merge_reference(paths, results) -> dict:
    """Each centerline's label from its decoded lane paths, merged in a loop
    over the tuple view: the label from the highest-scoring path through the
    centerline; on a tie the earlier path keeps it."""
    labels = {}
    best_score = {}
    for path, res in zip(paths, results):
        for cl, rid in zip(path, res.labels):
            if cl not in labels or res.score > best_score[cl]:
                labels[cl] = int(rid)
                best_score[cl] = res.score
    return labels


# ---------------------------------------------------------------------------
# metrics


def left_sum(values) -> float:
    """The float sum of `values` left to right from 0.0, as the metric defines
    a path's length on every Python version (builtin `sum()` compensates
    since 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


def lcs_overlap(pred_labels, pred_lens, gt_labels, gt_lens) -> float:
    """Exhaustive best common subsequence by (count, min-length sum)."""
    n, m = len(pred_labels), len(gt_labels)
    best = (0, 0.0)
    for k in range(min(n, m), 0, -1):
        found = False
        for pi in itertools.combinations(range(n), k):
            for gi in itertools.combinations(range(m), k):
                if all(pred_labels[a] == gt_labels[b] for a, b in zip(pi, gi)):
                    s = sum(min(pred_lens[a], gt_lens[b]) for a, b in zip(pi, gi))
                    if (k, s) > best:
                        best = (k, s)
                        found = True
        if found:
            break
    total = sum(gt_lens)
    return min(best[1] / total, 1.0)


def overlap_dp_reference(pred, gt) -> float:
    """`overlap_ratio` as it was before its equal-sequence shortcut: the LCS DP for every pair."""
    pl, pv = list(pred[0]), list(pred[1])
    gl, gv = list(gt[0]), list(gt[1])
    total = left_sum(gv)
    if total <= 0.0:
        raise InvalidGeometryError("ground-truth path has zero length")
    np_, ng = len(pl), len(gl)
    # dp[i][j]: best (aligned count, aligned min-length sum) for pred[:i], gt[:j]
    dp = [[(0, 0.0)] * (ng + 1) for _ in range(np_ + 1)]
    for i in range(1, np_ + 1):
        for j in range(1, ng + 1):
            best = max(dp[i - 1][j], dp[i][j - 1])
            if pl[i - 1] == gl[j - 1]:
                c, s = dp[i - 1][j - 1]
                cand = (c + 1, s + min(pv[i - 1], gv[j - 1]))
                best = max(best, cand)
            dp[i][j] = best
    return min(dp[np_][ng][1] / total, 1.0)


def chamfer_brute(points_a, points_b) -> float:
    def one_way(src, dst):
        acc = 0.0
        for p in src:
            acc += min(math.dist(p, q) for q in dst)
        return acc / len(src)

    return 0.5 * (one_way(points_a, points_b) + one_way(points_b, points_a))


def scene_counts_reference(metric, assoc, scene, cfg, pred_hd=None) -> np.ndarray:
    """Per-scene TP/FP/FN counts with every candidate pair scored.

    The metric walk without caches or early exit: all endpoint pairs are
    measured with `math.hypot` and matched greedily, nearest first; each
    ground-truth path ORs the verdicts of every predicted path between its
    matched endpoints, recomputing both label sequences (association) or
    both point lists (reachability) for every pair. `metric` is
    "association" or "reachability"; `pred_hd` defaults to the scene graph.
    """
    pred_hd = scene.hd if pred_hd is None else pred_hd
    ths = np.asarray(cfg.thresholds)

    def ends(hd, path):
        first, last = hd.by_id[path[0]].vector, hd.by_id[path[-1]].vector
        return (first.p1.x, first.p1.y), (last.p2.x, last.p2.y)

    def points(hd, path):
        pts = []
        for cid in path:
            v = hd.by_id[cid].vector
            pts.extend([(v.p1.x, v.p1.y), (v.p2.x, v.p2.y)])
        return pts

    def score(pred_path, gt_path):
        if metric == "association":
            p_seq = label_sequence(pred_path, assoc, pred_hd)
            g_seq = label_sequence(gt_path, scene.gt, scene.hd)
            return overlap_ratio(p_seq, g_seq) >= ths
        d = chamfer_distance(points(pred_hd, pred_path), points(scene.hd, gt_path))
        return np.full(len(ths), d <= cfg.chamfer_tau)

    gt_paths = enumerate_paths(scene.hd).paths
    pred_paths = enumerate_paths(pred_hd).paths
    gt_points = sorted({p for path in gt_paths for p in ends(scene.hd, path)})
    pred_points = sorted({p for path in pred_paths for p in ends(pred_hd, path)})
    pairs = []
    for gp in gt_points:
        for pp in pred_points:
            d = math.hypot(gp[0] - pp[0], gp[1] - pp[1])
            if d <= cfg.point_match_tau:
                pairs.append((d, gp, pp))
    pairs.sort()
    match, used_p = {}, set()
    for _, gp, pp in pairs:
        if gp not in match and pp not in used_p:
            match[gp] = pp
            used_p.add(pp)
    by_ends = {}
    for path in pred_paths:
        by_ends.setdefault(ends(pred_hd, path), []).append(path)

    counts = np.zeros((len(ths), len(cfg.length_buckets), 3), dtype=np.int64)
    for gt_path in gt_paths:
        s, e = ends(scene.hd, gt_path)
        b = cfg.bucket_of(left_sum(scene.hd.by_id[c].vector.length for c in gt_path))
        candidates = []
        if s in match and e in match:
            candidates = by_ends.get((match[s], match[e]), [])
        if not candidates:
            counts[:, b, 2] += 1
            continue
        verdicts = np.zeros(len(ths), dtype=bool)
        for pp in candidates:
            verdicts |= score(pp, gt_path)
        counts[verdicts, b, 0] += 1
        counts[~verdicts, b, 1] += 1
    return counts


# ---------------------------------------------------------------------------
# curve codes


def morton_ref(x: int, y: int, r: int, bits: int = 16) -> int:
    """Bit interleave by string assembly, x in the least significant slot."""
    out = 0
    for i in range(bits):
        out |= ((x >> i) & 1) << (3 * i)
        out |= ((y >> i) & 1) << (3 * i + 1)
        out |= ((r >> i) & 1) << (3 * i + 2)
    return out


# The curve kernels as they ran at a fixed order 16 before `curves._hilbert`
# dropped to the lowest exact order, kept verbatim (renamed) so the keys of
# every later kernel can be compared with them. All three take a (3, N)
# axes matrix, row 0 the least significant Morton axis.


def morton_keys_reference(axes: np.ndarray, order: int) -> np.ndarray:
    # axes: (3, N) non-negative int64; row 0 least significant
    out = np.zeros(axes.shape[1], dtype=np.uint64)
    a = axes.astype(np.uint64)
    for bit in range(order):
        for axis in range(3):
            out |= ((a[axis] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit + axis)
    return out


def hilbert_transpose_reference(axes: np.ndarray, order: int) -> np.ndarray:
    # Skilling's axes-to-transpose, vectorized over columns.
    x = axes.astype(np.uint64).copy()
    n = x.shape[0]
    q = np.uint64(1 << (order - 1))
    one = np.uint64(1)
    while q > one:
        p = np.uint64(q - one)
        for i in range(n):
            hi = (x[i] & q) != 0
            # invert low bits of x[0] where bit q of x[i] is set
            x[0] = np.where(hi, x[0] ^ p, x[0])
            # otherwise exchange low bits of x[0] and x[i]
            t = np.where(hi, np.uint64(0), (x[0] ^ x[i]) & p)
            x[0] ^= t
            x[i] ^= t
        q >>= one
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = np.zeros_like(x[0])
    q = np.uint64(1 << (order - 1))
    while q > one:
        mask = (x[n - 1] & q) != 0
        t = np.where(mask, t ^ np.uint64(q - one), t)
        q >>= one
    for i in range(n):
        x[i] ^= t
    return x


def hilbert_keys_reference(axes: np.ndarray, order: int) -> np.ndarray:
    x = hilbert_transpose_reference(axes, order)
    # interleave transposed bits, axis 0 most significant within each group
    out = np.zeros(axes.shape[1], dtype=np.uint64)
    n = x.shape[0]
    for bit in range(order - 1, -1, -1):
        for axis in range(n):
            out = (out << np.uint64(1)) | ((x[axis] >> np.uint64(bit)) & np.uint64(1))
    return out


def curve_keys_reference(coords: np.ndarray, kind: str, order: int) -> np.ndarray:
    """Keys of (N, 3) non-negative cells by the kernels above; `-trans` feeds (r, y, x)."""
    axes = np.asarray(coords, dtype=np.int64).T
    if kind.endswith("-trans"):
        axes = axes[::-1]
    if kind.startswith("z"):
        return morton_keys_reference(axes, order)
    return hilbert_keys_reference(axes, order)


def grid_encode_reference(v, g: float, R: int) -> GridCoord:
    """One vector's grid cell in scalar Python float arithmetic."""
    x = math.floor((v.p1.x + v.p2.x) / (2.0 * g))
    y = math.floor((v.p1.y + v.p2.y) / (2.0 * g))
    theta_norm = v.theta % (2.0 * math.pi)
    r = min(int(theta_norm // (2.0 * math.pi / R)), R - 1)
    return GridCoord(x, y, r)


# ---------------------------------------------------------------------------
# scene reader


def _field_reference(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValidationError(f"{where}: missing required field {key!r}")
    return doc[key]


def _elements_reference(value, key: str, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: {key} must be a list")
    return value


def _point_reference(value, where: str) -> Point2:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise ValidationError(f"{where}: expected [x, y], got {value!r}")
    return Point2(float(value[0]), float(value[1]))


def _ident_reference(obj, where: str) -> int:
    v = obj.get("id") if isinstance(obj, dict) else None
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{where}: missing or non-integer id")
    return v


def _edges_reference(value, where: str) -> tuple:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected a list of [a, b] pairs")
    out = []
    for i, e in enumerate(value):
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise ValidationError(f"{where}[{i}]: expected an [a, b] id pair, got {e!r}")
        out.append((e[0], e[1]))
    return tuple(out)


def _labels_reference(doc: dict, where: str) -> dict:
    labels = {}
    for k, v in doc.items():
        try:
            cl = int(k)
        except ValueError:
            raise ValidationError(f"{where}: non-integer centerline key {k!r}") from None
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{where}: centerline {k}: road id must be an integer")
        labels[cl] = v
    return labels


def _crop_reference(meta: dict) -> dict:
    """The crop half-extents of meta, {"sd": (ex, ey), ...}; ValidationError naming a bad field."""
    if "crop" not in meta:
        return {}
    crop = meta["crop"]
    if not isinstance(crop, dict):
        raise ValidationError(f"meta.crop: expected an object, got {crop!r}")
    out = {}
    for key in ("sd", "hd"):
        if key not in crop:
            continue
        half = crop[key]
        ok = isinstance(half, (list, tuple)) and len(half) == 2
        for v in half if ok else ():
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            ok = ok and number and 0 <= v <= sys.float_info.max  # finite, and no int too big for a float
        if not ok:
            raise ValidationError(f"meta.crop.{key}: expected [x, y] extents, got {half!r}")
        out[key] = (float(half[0]), float(half[1]))
    return out


def _check_crop_reference(points, half, what: str):
    ex, ey = half
    eps = 1e-6
    for p in points:
        if abs(p[0]) > ex + eps or abs(p[1]) > ey + eps:
            raise ValidationError(f"{what} point {tuple(p)} outside crop extents ({ex}, {ey})")


def validate_scene_reference(scene: Scene) -> Scene:
    """Whole-scene checks one point at a time: finiteness, lane cycle, gt, crop."""
    for road in scene.sd.roads:
        for p in road.points:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValidationError(f"road {road.id} has non-finite point {tuple(p)}")
    for c in scene.hd.centerlines:
        for p in (c.vector.p1, c.vector.p2):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValidationError(f"centerline {c.id} has non-finite point {tuple(p)}")
    for b in scene.hd.boundaries:
        for p in b.points:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValidationError(f"boundary {b.id} has non-finite point {tuple(p)}")
    cyc = scene.hd._peel[1]
    if cyc is not None:
        raise TopologyError(f"lane graph has a cycle through centerline {cyc}")
    if scene.gt is not None:
        road_ids = {r.id for r in scene.sd.roads}
        cl_ids = {c.id for c in scene.hd.centerlines}
        for c in scene.hd.centerlines:
            if c.id not in scene.gt.labels:
                raise CoverageError(f"gt does not cover centerline {c.id}")
        for cl_id, road_id in scene.gt.labels.items():
            if cl_id not in cl_ids:
                raise ValidationError(f"gt references missing centerline {cl_id}")
            if road_id not in road_ids:
                raise ValidationError(f"gt maps centerline {cl_id} to missing road {road_id}")
    crop = _crop_reference(scene.meta)
    if "sd" in crop:
        for road in scene.sd.roads:
            _check_crop_reference(road.points, crop["sd"], f"road {road.id}")
    if "hd" in crop:
        for c in scene.hd.centerlines:
            _check_crop_reference((c.vector.p1, c.vector.p2), crop["hd"], f"centerline {c.id}")
        for b in scene.hd.boundaries:
            _check_crop_reference(b.points, crop["hd"], f"boundary {b.id}")
    return scene


def _named_reference(where: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except MapAssocError as exc:
        raise type(exc)(f"{where}: {exc}") from None


def scene_from_doc_reference(doc: dict, where: str = "scene") -> Scene:
    """The scene reader one element at a time, through the checking constructors.

    Every element, point and edge is checked in document order, so the first
    fault raises with a message naming it. Three faults differ from a plain
    element walk: a malformed `meta.crop` raises a ValidationError naming the
    field, a zero-length centerline names the line and its id, and a roads,
    centerlines or truthy boundaries value that is not a list raises a
    ValidationError naming the field. A fault from a graph or element
    constructor is prefixed with `where` and the graph, one from the whole-scene
    checks with `where`.
    """
    version = _field_reference(doc, "version", where)
    if version != "1":
        raise ValidationError(f"{where}: unsupported scene file version {version!r}")
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValidationError(f"{where}: meta must be an object")
    try:
        json.dumps(meta, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: meta cannot be written as canonical JSON: {exc}") from None
    try:
        _crop_reference(meta)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None

    sd_doc = _field_reference(doc, "sd", where)
    if not isinstance(sd_doc, dict):
        raise ValidationError(f"{where}: sd must be an object")
    roads = []
    road_docs = _elements_reference(_field_reference(sd_doc, "roads", f"{where}.sd"), "roads", f"{where}.sd")
    for i, r in enumerate(road_docs):
        rid = _ident_reference(r, f"{where}.sd.roads[{i}]")
        pts = _field_reference(r, "points", f"{where}.sd.roads[{i}] (road {rid})")
        if not isinstance(pts, list):
            raise ValidationError(f"{where}.sd: road {rid}: points must be a list")
        owner = f"{where}.sd: road {rid}"
        points = tuple(_point_reference(p, f"{owner} point {j}") for j, p in enumerate(pts))
        roads.append(_named_reference(f"{where}.sd", Road, id=rid, points=points))
    sd_edges = _edges_reference(_field_reference(sd_doc, "edges", f"{where}.sd"), f"{where}.sd.edges")
    sd = _named_reference(f"{where}.sd", SdGraph, roads=tuple(roads), edges=sd_edges)

    hd_doc = _field_reference(doc, "hd", where)
    if not isinstance(hd_doc, dict):
        raise ValidationError(f"{where}: hd must be an object")
    cls = []
    cl_docs = _elements_reference(_field_reference(hd_doc, "centerlines", f"{where}.hd"), "centerlines", f"{where}.hd")
    for i, c in enumerate(cl_docs):
        cid = _ident_reference(c, f"{where}.hd.centerlines[{i}]")
        owner = f"{where}.hd: centerline {cid}"
        p1 = _point_reference(_field_reference(c, "p1", owner), f"{owner} p1")
        p2 = _point_reference(_field_reference(c, "p2", owner), f"{owner} p2")
        try:
            vector = DirVec(p1, p2)
        except InvalidGeometryError as exc:
            raise InvalidGeometryError(f"{owner}: {exc}") from None
        cls.append(Centerline(id=cid, vector=vector))
    bounds = []
    for i, b in enumerate(_elements_reference(hd_doc.get("boundaries") or [], "boundaries", f"{where}.hd")):
        bid = _ident_reference(b, f"{where}.hd.boundaries[{i}]")
        owner = f"{where}.hd: boundary {bid}"
        pts = _field_reference(b, "points", owner)
        if not isinstance(pts, list):
            raise ValidationError(f"{owner}: points must be a list")
        points = tuple(_point_reference(p, f"{owner} point {j}") for j, p in enumerate(pts))
        bounds.append(_named_reference(f"{where}.hd", Boundary, id=bid, points=points))
    hd_edges = _edges_reference(_field_reference(hd_doc, "edges", f"{where}.hd"), f"{where}.hd.edges")
    hd = _named_reference(f"{where}.hd", HdGraph, centerlines=tuple(cls), edges=hd_edges, boundaries=tuple(bounds))

    gt_doc = doc.get("gt")
    gt = None
    if gt_doc is not None:
        if not isinstance(gt_doc, dict):
            raise ValidationError(f"{where}: gt must be an object or null")
        gt = Association(labels=_labels_reference(gt_doc, f"{where}.gt"))

    return _named_reference(where, validate_scene_reference, Scene(sd=sd, hd=hd, gt=gt, meta=meta))


# ---------------------------------------------------------------------------
# per-point perturbation and augmentation


def _observed_crop_reference(hd: HdGraph, base) -> list:
    ex, ey = float(base[0]), float(base[1])
    for c in hd.centerlines:
        for p in (c.vector.p1, c.vector.p2):
            ex, ey = max(ex, abs(p.x)), max(ey, abs(p.y))
    for b in hd.boundaries:
        for p in b.points:
            ex, ey = max(ex, abs(p.x)), max(ey, abs(p.y))
    return [math.ceil(ex * 1000) / 1000, math.ceil(ey * 1000) / 1000]


def perturb_reference(scene: Scene, cfg) -> Scene:
    """`scenegen.perturb_scene` one point and one centerline at a time.

    Same streams and draws as the production op (one spawned child per
    step); the endpoint jitter draws 4 normals per centerline and each split
    rescans the edge list.
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
        crop["hd"] = _observed_crop_reference(hd, crop["hd"])
        meta["crop"] = crop
    gt = Association(labels=labels) if labels is not None else None
    return Scene(sd=scene.sd, hd=hd, gt=gt, meta=meta)


def augment_reference(scene: Scene, cfg) -> Scene:
    """`scenegen.augment_scene` one point at a time: each point is transformed,
    then jittered with its own `normal(size=2)` draw and `np.clip`."""
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
                math.floor((c.vector.theta % (2.0 * math.pi)) / gtheta),
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
        crop["hd"] = _observed_crop_reference(hd, crop["hd"])
    meta["crop"] = crop
    gt = Association(labels=labels) if labels is not None else None
    return Scene(sd=sd, hd=hd, gt=gt, meta=meta)

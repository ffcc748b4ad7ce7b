"""Independent reference implementations the tests freeze values from.

Everything here favors clarity over speed: explicit loops, dense masks,
exhaustive enumeration, naive recursion. Production code must match these
references, never the other way around. Nothing in this module imports
from the production attention, decoding, loss, or metric internals; the
package imports are leaf data types, the curve-index primitive (whose own
tests pin it against hand values), for the per-path HMM reference the
HMM's emission and transition builders, path enumeration and `viterbi`
(pinned against `brute_viterbi`), and for the per-pair metric reference the
public pair scorers `label_sequence`, `overlap_ratio` and `chamfer_distance`
(pinned against `lcs_overlap` and `chamfer_brute`).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mapassoc.baselines import _log_emissions, _log_transition_matrix, _scene_distances, viterbi
from mapassoc.curves import GridCoord, curve_index
from mapassoc.errors import NoFeasiblePathError
from mapassoc.geometry import enumerate_paths
from mapassoc.metrics import chamfer_distance, label_sequence, overlap_ratio


# ---------------------------------------------------------------------------
# graphs


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


def hmm_per_path_reference(scene, params):
    """The HMM baseline decoded one enumerated lane path at a time.

    Viterbi runs on every root-to-leaf path; a centerline takes its label from
    the highest-scoring path through it (ties keep the earlier path), and a
    path with no feasible state sequence gives nearest-road labels at score
    -inf. Returns (labels, sorted ids of centerlines whose every path was
    infeasible).
    """
    dist, cl_ids, road_ids = _scene_distances(scene)
    row_of = {c: i for i, c in enumerate(cl_ids)}
    log_em = _log_emissions(dist, params.emission_sigma)
    log_tr = _log_transition_matrix(scene, params, road_ids)
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


# ---------------------------------------------------------------------------
# CTC


def ctc_enumeration(logprobs, labels) -> float:
    """Log-likelihood by brute force over all T-length alignment sequences.

    The last column is the blank. An alignment collapses by merging adjacent
    repeats and then deleting blanks; alignments collapsing to `labels` have
    their path probabilities summed.
    """
    lp = np.asarray(logprobs, dtype=np.float64)
    t_steps, width = lp.shape
    blank = width - 1
    target = list(labels)
    total = 0.0
    for seq in itertools.product(range(width), repeat=t_steps):
        collapsed = []
        prev = None
        for s in seq:
            if s != prev:
                collapsed.append(s)
            prev = s
        collapsed = [s for s in collapsed if s != blank]
        if collapsed != target:
            continue
        total += math.exp(sum(lp[t, s] for t, s in enumerate(seq)))
    return math.log(total) if total > 0.0 else -math.inf


# ---------------------------------------------------------------------------
# metrics


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
        b = cfg.bucket_of(sum(scene.hd.by_id[c].vector.length for c in gt_path))
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

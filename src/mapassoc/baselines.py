"""Classical association baselines: nearest-road and an HMM decoder.

The nearest-road baseline labels each centerline with the road closest to its
midpoint. The HMM treats roads as hidden states along each lane path:
Gaussian emissions on midpoint-to-road distance, transitions favoring staying
on a road or moving to a connected one. It decodes by max-product over the
lane DAG, so the number of lane paths never enters its cost. Both read one
distance matrix per scene, `Scene.road_distances`, computed on first use and
cached on the scene. The Gaussian emissions, row-normalized, are also the
nearest-road baseline's soft matrix for the topology-constrained decoder;
the HMM's max-product pass gives no probability matrix.

The HMM's parameters are constants: an emission sigma of 4.07 m, the scale
reconstructed from typical lane-to-road offsets, and per road a transition
weight of 0.7 to itself and 0.3 shared among the roads it connects to,
normalized per row. A road never moves to one it does not connect to.
"""

from __future__ import annotations

import math

import numpy as np

from .assocmatrix import AssocMatrix
from .errors import NoFeasiblePathError
from .geometry import Association, Scene
from .geometry import enumerate_paths  # noqa: F401  kept as a module attribute; bench/tracer.py patches it

__all__ = [
    "EMISSION_SIGMA",
    "TRANSITION_SELF",
    "TRANSITION_ADJACENT",
    "knn_associate",
    "viterbi",
    "hmm_associate",
    "distance_assoc_matrix",
]

EMISSION_SIGMA = 4.07
TRANSITION_SELF = 0.7
TRANSITION_ADJACENT = 0.3


def knn_associate(scene: Scene) -> Association:
    """Label every centerline with the road nearest its midpoint.

    Ties resolve to the lowest road id.
    """
    road_ids = scene.sd.node_ids
    best = np.argmin(scene.road_distances, axis=1)  # first min, columns ascend by road id
    labels = {c: int(road_ids[b]) for c, b in zip(scene.hd.node_ids, best)}
    return Association(labels=labels, meta={"method": "knn"})


# ---------------------------------------------------------------------------
# HMM


def viterbi(log_emissions, log_transitions, log_prior) -> tuple[list, float]:
    """Most probable state sequence under sum of prior, emission, transition
    log-probabilities. Among ties, returns the lexicographically smallest
    sequence. Raises NoFeasiblePathError when every sequence scores -inf.
    """
    em = np.asarray(log_emissions, dtype=np.float64)
    tr = np.asarray(log_transitions, dtype=np.float64)
    pri = np.asarray(log_prior, dtype=np.float64)
    if em.ndim != 2 or em.shape[0] < 1:
        raise ValueError(f"emissions must be (T, S) with T >= 1, got {em.shape}")
    t_steps, n_states = em.shape
    if tr.shape != (n_states, n_states) or pri.shape != (n_states,):
        raise ValueError("transition or prior shape does not match state count")

    # beta[t][s]: best score of the suffix starting at t in state s.
    # Greedy forward reconstruction over beta picks the lexicographically
    # smallest optimal sequence (np.argmax returns the first maximum).
    beta = np.empty_like(em)
    beta[-1] = em[-1]
    for t in range(t_steps - 2, -1, -1):
        beta[t] = em[t] + np.max(tr + beta[t + 1][None, :], axis=1)
    totals = pri + beta[0]
    best = float(np.max(totals))
    if best == -math.inf or math.isnan(best):
        raise NoFeasiblePathError("all state sequences have zero probability")
    states = [int(np.argmax(totals))]
    for t in range(1, t_steps):
        cand = tr[states[-1]] + beta[t]
        states.append(int(np.argmax(cand)))
    return states, best


def _log_transition_matrix(scene: Scene) -> np.ndarray:
    road_ids = scene.sd.node_ids
    col = {r: j for j, r in enumerate(road_ids)}
    w = np.zeros((len(road_ids), len(road_ids)), dtype=np.float64)
    for i, rid in enumerate(road_ids):
        adjacent = scene.sd.successors[rid]
        w[i, i] = TRANSITION_SELF
        for other in adjacent:
            w[i, col[other]] += TRANSITION_ADJACENT / len(adjacent)
        w[i] /= w[i].sum()
    with np.errstate(divide="ignore"):
        return np.log(w)


def _log_emissions(dist: np.ndarray) -> np.ndarray:
    return -0.5 * (dist / EMISSION_SIGMA) ** 2 - math.log(EMISSION_SIGMA * math.sqrt(2.0 * math.pi))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of every run of equal values in `keys`."""
    if not len(keys):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _levels(keys: np.ndarray, ends: np.ndarray, bounds: list) -> list:
    """Edges grouped by key node, cut into the depth levels of the node order.

    Nodes are numbered level by level, `bounds[d]:bounds[d + 1]` being level
    d, and within a level the nodes that occur as keys come first. One
    (lo, hi, ends, starts) entry per level that has keys: its keys are nodes
    lo..hi-1, and the edges of node lo + i end at ends[starts[i]:starts[i + 1]]
    (the last group runs to the end of `ends`).
    """
    order = np.argsort(keys, kind="stable")
    keys, ends = keys[order], ends[order]
    first = _run_starts(keys)
    cut = np.searchsorted(keys, bounds).tolist()
    group_cut = np.searchsorted(first, cut).tolist()
    return [
        (lo, lo + g1 - g0, ends[e0:e1], first[g0:g1] - e0)
        for lo, e0, e1, g0, g1 in zip(bounds, cut, cut[1:], group_cut, group_cut[1:])
        if e1 > e0
    ]


def _max_plus(log_tr: np.ndarray):
    """x -> out[:, s] = max_t x[:, t] + log_tr[t, s], over finite entries only.

    Leaving out the -inf entries is exact: every column keeps its finite
    diagonal (TRANSITION_SELF > 0), which is never below a dropped entry.
    """
    cols, rows = np.nonzero(np.isfinite(log_tr.T))  # sorted by column
    vals = log_tr[rows, cols]
    starts = np.searchsorted(cols, np.arange(log_tr.shape[1]))
    return lambda x: np.maximum.reduceat(x[:, rows] + vals, starts, axis=1)


def _max_marginals(em: np.ndarray, log_tr: np.ndarray, log_prior: float, edges: np.ndarray,
                   depth: np.ndarray) -> np.ndarray:
    """M = F + G of `hmm_associate` for a DAG given as (E, 2) row pairs and row depths."""
    n = len(em)
    # Renumber nodes by depth, nodes with successors first within a level, so
    # every level of both passes reads and writes one contiguous block.
    has_succ = np.zeros(n, dtype=bool)
    has_succ[edges[:, 0]] = True
    perm = np.lexsort((~has_succ, depth))
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    tail, head = rank[edges[:, 0]], rank[edges[:, 1]]
    bounds = np.searchsorted(depth[perm], np.arange(int(depth.max(initial=0)) + 2)).tolist()
    em = em[perm]

    forward = _max_plus(log_tr)
    f = em.copy()
    f[: bounds[1]] += log_prior  # the roots
    for lo, hi, preds, starts in _levels(head, tail, bounds):
        f[lo:hi] += forward(np.maximum.reduceat(f[preds], starts, axis=0))
    backward = _max_plus(log_tr.T)
    g = np.zeros_like(em)
    eg = em.copy()  # em + g, what a node passes back to its predecessors
    for lo, hi, succs, starts in reversed(_levels(tail, head, bounds)):
        g[lo:hi] = backward(np.maximum.reduceat(eg[succs], starts, axis=0))
        eg[lo:hi] += g[lo:hi]

    m = np.empty_like(em)
    m[perm] = f + g
    return m


def hmm_associate(scene: Scene) -> Association:
    """Max-marginal road labels over every lane path, without enumerating paths.

    Roads are hidden states along each root-to-leaf path of the lane DAG. One
    forward and one backward max-product pass give, for every centerline v
    and road s, the best log-score M(v, s) of any lane path through v that is
    in state s at v:

        F(v, s) = em(v, s) + max over preds u, roads t of F(u, t) + tr(t, s)
                  (prior + em at roots)
        G(v, s) = max over succs w, roads t of tr(s, t) + em(w, t) + G(w, t)
                  (0 at leaves)
        M(v, s) = F(v, s) + G(v, s)

    Each pass walks the longest-path depth levels of the DAG with one batch
    of numpy ops per level and costs at most O(E * S + V * S^2), however
    many lane paths there are. v is labelled argmax_s M(v, s); among roads with equal
    max-marginal the lowest road id wins. That equals labelling v from the
    best Viterbi path through it, except on exact score ties between
    different paths. A centerline whose max-marginals are all -inf (no path
    through it has a feasible state sequence) falls back to its nearest-road
    label and is listed in meta["fallback_centerlines"] (sorted ids).
    Raises TopologyError on a lane-graph cycle.
    """
    depth = np.array(scene.hd.depths, dtype=np.int64)  # raises on a cycle
    dist, cl_ids, road_ids = scene.road_distances, scene.hd.node_ids, scene.sd.node_ids
    edges = np.searchsorted(cl_ids, np.array(scene.hd.edges, dtype=np.int64).reshape(-1, 2))
    log_tr = _log_transition_matrix(scene)
    # an emission or a path score that overflows to -inf is a zero probability
    with np.errstate(over="ignore"):
        em = _log_emissions(dist)
        m = _max_marginals(em, log_tr, -math.log(len(road_ids)), edges, depth)

    best = np.argmax(m, axis=1)  # first max, columns ascend by road id
    infeasible = m[np.arange(len(cl_ids)), best] == -math.inf
    best[infeasible] = np.argmin(dist[infeasible], axis=1)
    labels = {c: int(road_ids[b]) for c, b in zip(cl_ids, best)}
    meta = {"method": "hmm"}
    if infeasible.any():
        meta["fallback_centerlines"] = [cl_ids[i] for i in np.flatnonzero(infeasible)]
    return Association(labels=labels, meta=meta)


def distance_assoc_matrix(scene: Scene) -> AssocMatrix:
    """Soft association from Gaussian distance emissions, row-normalized.

    Gives the nearest-road baseline a probability matrix the beam decoder
    can post-process.
    """
    return AssocMatrix.from_logits(_log_emissions(scene.road_distances), scene.hd.node_ids, scene.sd.node_ids)

"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under `pytest -s`) and asserts.
Criteria marked with a time budget are wall-clock limited; everything else is
exact or toleranced as stated in the printed label.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np
import pytest

from mapassoc.assocmatrix import AssocMatrix
from mapassoc.baselines import distance_assoc_matrix, hmm_associate, knn_associate, viterbi
from mapassoc.cli import main
from mapassoc.curves import CURVE_KINDS, GridCoord, curve_index, sort_tokens
from mapassoc.decoder import DecoderConfig, beam_decode, decode_association
from mapassoc.geometry import Association, Centerline, DirVec, HdGraph, PathIndex, Point2, Road, Scene, SdGraph
from mapassoc.io import dumps_scene, scene_from_doc
from mapassoc.mat import desk_config, init_weights, mat_associate
from mapassoc.mat.attention import path_attention, rope_rotate, spatial_attention
from mapassoc.metrics import DEFAULT_THRESHOLDS, Prediction, association_pr
from mapassoc.scenegen import GenConfig, PerturbConfig, generate_scene, perturb_scene

from conftest import rand_attn
from oracles import (
    brute_beam,
    brute_viterbi,
    hmm_exhaustive_reference,
    path_attention_reference,
    spatial_attention_reference,
)

# criteria keep their numbers; number 7, the CTC loss against alignment
# enumeration, left with the training losses, which are not part of the toolkit
N_CRITERIA = 13


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    print(f"[{num:2d}/{N_CRITERIA}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok, f"criterion {num}: {label} ({detail})"


# ---------------------------------------------------------------------------
# 1. curve serialization is a bijection


def test_01_serialization_bijective_10k_per_kind():
    rng = np.random.default_rng(1)
    n = 10_000
    t0 = time.monotonic()
    ok = True
    for kind in CURVE_KINDS:
        coords = [
            GridCoord(int(x), int(y), int(r))
            for x, y, r in zip(
                rng.integers(-30_000, 30_000, n),
                rng.integers(-30_000, 30_000, n),
                rng.integers(0, 16, n),
            )
        ]
        order = sort_tokens(coords, kind)
        perm, inv = list(order.perm), list(order.inv)
        ok = ok and sorted(perm) == list(range(n))
        ok = ok and [perm[inv[j]] for j in range(n)] == list(range(n))
        ok = ok and [inv[perm[j]] for j in range(n)] == list(range(n))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    verdict(1, f"perm/inv identity on {n} vectors per curve kind ({elapsed:.2f}s < 5s)", ok)


# ---------------------------------------------------------------------------
# 2. Hilbert neighbours are lattice neighbours


def test_02_hilbert_adjacency_orders_1_to_4():
    ok = True
    for kind in ("hilbert", "hilbert-trans"):
        for order in (1, 2, 3, 4):
            n = 1 << order
            cells = {}
            for x in range(n):
                for y in range(n):
                    for r in range(n):
                        cells[curve_index(GridCoord(x, y, r), kind, order=order)] = (x, y, r)
            ok = ok and sorted(cells) == list(range(n**3))
            for i in range(n**3 - 1):
                a, b = cells[i], cells[i + 1]
                ok = ok and sum(abs(u - v) for u, v in zip(a, b)) == 1
    verdict(2, "consecutive Hilbert indices are Manhattan-1 cells, orders 1-4 exhaustive", ok)


# ---------------------------------------------------------------------------
# 3. attention kernels match the masked dense oracle


def random_paths(rng, n: int) -> tuple:
    order = [int(i) for i in rng.permutation(n)]
    paths = []
    while order:
        take = int(rng.integers(1, min(len(order), 7) + 1))
        paths.append(tuple(order[:take]))
        order = order[take:]
    if n >= 3 and rng.random() < 0.3:
        # revisit some tokens on an extra path to exercise the scatter-mean merge
        paths.append(tuple(int(i) for i in rng.choice(n, size=3, replace=False)))
    return tuple(paths)


def test_03_attention_matches_dense_oracle_100_seeds_each():
    tol = 1e-5
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(1, 65))
        c, heads = 24, int(rng.integers(1, 3))
        x = rng.standard_normal((n, c)).astype(np.float32)
        w = rand_attn(c, heads, rng)
        paths = random_paths(rng, n)
        pidx = PathIndex(paths=paths)
        inst = rng.integers(0, 9, size=n)
        got = path_attention(x, pidx, w, inst)
        want = path_attention_reference(x, list(paths), w, inst)
        worst = max(worst, float(np.abs(got - want).max()))
    for seed in range(100):
        rng = np.random.default_rng(3500 + seed)
        n = int(rng.integers(1, 65))
        c, heads = 24, int(rng.integers(1, 3))
        x = rng.standard_normal((n, c)).astype(np.float32)
        w = rand_attn(c, heads, rng)
        coords = rng.integers(-20, 20, size=(n, 3))
        patch = int(rng.choice((1, 2, 3, 4, 8, 64)))
        kind = str(rng.choice(CURVE_KINDS))
        got = spatial_attention(x, coords, w, patch, kind, order=8)
        want = spatial_attention_reference(
            x, [GridCoord(*map(int, c3)) for c3 in coords], w, patch, kind, order=8
        )
        worst = max(worst, float(np.abs(got - want).max()))
    verdict(3, f"path/spatial attention vs dense oracle, <=64 tokens, 100 seeds each (max dev {worst:.1e} <= {tol})", worst <= tol)


# ---------------------------------------------------------------------------
# 4. rotary embedding depends only on relative positions


def test_04_rope_relative_shift_invariance_100_seeds():
    tol = 1e-6
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(4000 + seed)
        axes = seed % 3 + 1
        d = 12 * int(rng.integers(1, 4))
        n = int(rng.integers(2, 10))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        pos = rng.integers(0, 60, size=(n, axes))
        shift = rng.integers(-25, 25, size=(1, axes))
        base = rope_rotate(q, pos, axes) @ rope_rotate(k, pos, axes).T
        moved = rope_rotate(q, pos + shift, axes) @ rope_rotate(k, pos + shift, axes).T
        worst = max(worst, float(np.abs(base - moved).max()))
    verdict(4, f"RoPE score shift invariance, axes 1-3, 100 seeds (max dev {worst:.1e} <= {tol})", worst <= tol)


# ---------------------------------------------------------------------------
# 5. Viterbi equals exhaustive search


def test_05_viterbi_equals_brute_force_100_instances():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        t = int(rng.integers(1, 7))
        s = int(rng.integers(1, 6))
        em = np.log(rng.uniform(0.05, 1.0, size=(t, s)))
        tr = np.log(rng.uniform(0.05, 1.0, size=(s, s)))
        prior = np.log(rng.uniform(0.05, 1.0, size=s))
        got_seq, got_score = viterbi(em, tr, prior)
        want_seq, want_score = brute_viterbi(em, tr, prior)
        ok = ok and list(got_seq) == list(want_seq)
        ok = ok and got_score == pytest.approx(want_score, rel=1e-9)
    verdict(5, "Viterbi = brute force on 100 instances (T<=6, S<=5), exact sequences", ok)


# ---------------------------------------------------------------------------
# 13. the HMM the system runs equals exhaustive search


def small_hmm_scene(rng) -> Scene:
    """1-4 roads with random connections, and a lane DAG over 6 depth levels,
    so no lane path has more than 6 centerlines; ids are not contiguous. One
    scene in five moves a centerline 1e155 m away, where its emission is -inf."""
    road_ids = sorted(int(i) for i in rng.choice(20, size=int(rng.integers(1, 5)), replace=False))
    roads = []
    for rid in road_ids:
        a = rng.uniform(-20.0, 20.0, size=2)
        roads.append(Road(id=rid, points=(Point2(*a.tolist()), Point2(*(a + rng.uniform(5.0, 15.0, size=2)).tolist()))))
    sd_edges = tuple((a, b) for a in road_ids for b in road_ids if a != b and rng.random() < 0.4)
    cl_ids = sorted(int(i) for i in rng.choice(30, size=int(rng.integers(1, 13)), replace=False))
    level = dict(zip(cl_ids, rng.integers(0, 6, size=len(cl_ids)).tolist()))
    hd_edges = tuple((a, b) for a in cl_ids for b in cl_ids if level[a] < level[b] and rng.random() < 0.5)
    far = set(rng.choice(cl_ids, size=1).tolist()) if rng.random() < 0.2 else set()
    cls = []
    for c in cl_ids:
        p1 = np.array([1e155, 0.0]) if c in far else rng.uniform(-25.0, 25.0, size=2)
        cls.append(Centerline(id=c, vector=DirVec.from_points(p1.tolist(), (p1 + rng.uniform(1.0, 4.0, size=2)).tolist())))
    return Scene(sd=SdGraph(roads=tuple(roads), edges=sd_edges), hd=HdGraph(centerlines=tuple(cls), edges=hd_edges))


def test_13_hmm_equals_exhaustive_search_100_scenes():
    ok, ties, fallbacks, blocked = True, 0, 0, 0
    for seed in range(100):
        scene = small_hmm_scene(np.random.default_rng(13000 + seed))
        with np.errstate(over="ignore"):
            assoc = hmm_associate(scene)
            want, want_fallback, m = hmm_exhaustive_reference(scene)
        ok = ok and assoc.meta.get("fallback_centerlines", []) == want_fallback
        col = {r: j for j, r in enumerate(scene.sd.node_ids)}
        for row, c in enumerate(scene.hd.node_ids):
            got = assoc.labels[c]
            if got != want[c]:
                # roads whose finite max-marginals tie within 1e-9: either label is right
                best = m[row].max()
                ties += 1
                ok = ok and best > -np.inf and m[row, col[got]] >= best - 1e-9 * max(1.0, abs(best))
        fallbacks += bool(want_fallback)
        blocked += len(scene.sd.edges) < len(scene.sd.roads) * (len(scene.sd.roads) - 1)
    ok = ok and fallbacks > 0 and blocked > 0
    verdict(
        13, "HMM = exhaustive search over every road sequence of every lane path on 100 scenes "
        f"(<=4 roads, paths <=6; {fallbacks} with fallbacks, {blocked} with infeasible transitions, {ties} ties)", ok,
    )


# ---------------------------------------------------------------------------
# 6. saturated beam equals the constrained optimum


def random_decode_instance(rng):
    t = int(rng.integers(1, 6))
    k = int(rng.integers(2, 7))
    rows = rng.uniform(0.05, 1.0, size=(t, k))
    rows /= rows.sum(axis=1, keepdims=True)
    edges = set()
    for _ in range(int(rng.integers(0, k * 2))):
        a, b = rng.integers(0, k, size=2)
        if a != b:
            edges.add((int(a), int(b)))
    return rows, list(range(k)), tuple(sorted(edges))


def test_06_saturated_beam_equals_brute_force_100_instances():
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        rows, road_ids, edges = random_decode_instance(rng)
        res = beam_decode(rows, road_ids, edges, DecoderConfig(k=100_000))
        want_labels, want_score = brute_beam(rows, road_ids, edges)
        ok = ok and list(res.labels) == list(want_labels)
        ok = ok and res.score == pytest.approx(want_score, rel=1e-9)
        ok = ok and not res.fallback
        allowed = set(edges)
        for a, b in zip(res.labels, res.labels[1:]):
            ok = ok and (a == b or (a, b) in allowed)
    verdict(6, "saturated beam = constrained optimum on 100 instances (T<=5, K<=6), connectivity everywhere", ok)


# ---------------------------------------------------------------------------
# 8. metric conformance: self-eval, hand-walked counts, monotone TP


def test_08_metric_conformance(tiny, grid42):
    ok = True
    # self-evaluation is exactly perfect at every threshold and bucket
    for scene in (tiny, grid42, generate_scene(GenConfig(layout="radial", seed=5))):
        rep = association_pr([scene.gt], [scene])
        ok = ok and rep.counts.shape == (10, 15, 3)
        ok = ok and len(DEFAULT_THRESHOLDS) == 10
        ok = ok and bool(np.all(rep.precision == 1.0) and np.all(rep.recall == 1.0))
        ok = ok and int(rep.counts[:, :, 1].sum()) == 0 and int(rep.counts[:, :, 2].sum()) == 0

    def count_triples(rep):
        tp = rep.counts[:, :, 0].sum(axis=1)
        fp = rep.counts[:, :, 1].sum(axis=1)
        fn = rep.counts[:, :, 2].sum(axis=1)
        return [(int(a), int(b), int(c)) for a, b, c in zip(tp, fp, fn)]

    # fixture 1: perfect two-path prediction
    rep = association_pr([tiny.gt], [tiny])
    ok = ok and count_triples(rep) == [(2, 0, 0)] * 10
    # fixture 2: one path overlaps 6/9, TP through 0.65 then FP
    part = Association(labels={0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1})
    rep = association_pr([part], [tiny])
    want = [(2, 0, 0) if th <= 6.0 / 9.0 else (1, 1, 0) for th in rep.thresholds]
    ok = ok and count_triples(rep) == want
    # fixture 3: empty prediction graph, every path unmatched
    empty = Prediction(assoc=Association(labels={}), hd=HdGraph(centerlines=(), edges=()))
    rep = association_pr([empty], [tiny])
    ok = ok and count_triples(rep) == [(0, 0, 2)] * 10

    # TP counts never increase with threshold
    scenes, preds = [], []
    for seed in range(6):
        s = generate_scene(GenConfig(seed=seed))
        noisy = perturb_scene(s, PerturbConfig(gps_shift=2.0, dropout_rate=0.1, seed=seed))
        scenes.append(noisy)
        preds.append(knn_associate(noisy))
    rep = association_pr(preds, scenes)
    tp = rep.counts[:, :, 0].sum(axis=1)
    ok = ok and bool(np.all(np.diff(tp) <= 0))
    verdict(8, "self-eval exactly 1.0; hand-walked TP/FP/FN fixtures exact; TP monotone", ok)


# ---------------------------------------------------------------------------
# 9. clean scenes are recovered perfectly by every method


def test_09_zero_perturbation_recovery_50_scenes():
    layouts = ("grid", "radial", "random-planar")
    ok = True
    scenes, preds = [], []
    for i in range(50):
        scene = generate_scene(GenConfig(layout=layouts[i % 3], seed=100 + i))
        beam = decode_association(scene, distance_assoc_matrix(scene), DecoderConfig())
        for assoc in (knn_associate(scene), hmm_associate(scene), beam):
            ok = ok and assoc.labels == scene.gt.labels
        scenes.append(scene)
        preds.append(beam)
    rep = association_pr(preds, scenes)
    ok = ok and rep.af1 == 1.0
    verdict(9, "KNN, HMM, beam all equal gt on 50 clean scenes; A-F1 50:95 = 1.0", ok)


# ---------------------------------------------------------------------------
# 10. ordering under noise: HMM at or above KNN


def test_10_hmm_at_least_knn_under_noise_200_scenes():
    t0 = time.monotonic()
    scenes = []
    for i in range(200):
        s = generate_scene(GenConfig(seed=1000 + i))
        scenes.append(perturb_scene(s, PerturbConfig(gps_shift=2.0, dropout_rate=0.1, seed=2000 + i)))
    ap_knn = association_pr([knn_associate(s) for s in scenes], scenes).ap
    ap_hmm = association_pr([hmm_associate(s) for s in scenes], scenes).ap
    elapsed = time.monotonic() - t0
    ok = ap_hmm >= ap_knn and elapsed < 60.0
    verdict(
        10,
        f"200 noisy scenes (shift 2 m, 10% dropout): HMM A-P {ap_hmm:.4f} >= KNN {ap_knn:.4f} ({elapsed:.1f}s < 60s)",
        ok,
    )


# ---------------------------------------------------------------------------
# 11. association rows are stochastic; forward pass is bit-deterministic


def test_11_forward_rows_and_bit_determinism(tmp_path, monkeypatch):
    cfg = desk_config()
    worst = 0.0
    repeat_ok = True
    for i in range(100):
        scene = generate_scene(GenConfig(lanes_per_road=(1, 1), hd_extent=(12.0, 24.0), seed=300 + i))
        weights = init_weights(cfg, seed=i)
        amat, curves = mat_associate(scene, cfg, weights, curve_seed=i)
        sums = amat.probs.astype(np.float64).sum(axis=1)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
        if i < 3:
            again, curves2 = mat_associate(scene, cfg, weights, curve_seed=i)
            repeat_ok = repeat_ok and np.array_equal(amat.probs, again.probs)
            repeat_ok = repeat_ok and curves.curve_kinds == curves2.curve_kinds
    ok = worst <= 1e-6 and repeat_ok

    # thread count must not change a single output byte
    blobs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("MAPASSOC_THREADS", threads)
        scenes = tmp_path / f"scenes{threads}.ndjson"
        pred = tmp_path / f"pred{threads}.ndjson"
        assert main(["gen", "--count", "4", "--seed", "9", "--out", str(scenes)]) == 0
        assert main(["associate", "--method", "mat", "--store-probs",
                     "--scenes", str(scenes), "--out", str(pred)]) == 0
        blobs[threads] = (scenes.read_bytes(), pred.read_bytes())
    monkeypatch.delenv("MAPASSOC_THREADS")
    ok = ok and blobs["1"] == blobs["8"]
    verdict(11, f"100 forwards: row sums within 1e-6 (max dev {worst:.1e}); bit-identical reruns and thread counts", ok)


# ---------------------------------------------------------------------------
# 12. canonical serialization round trip and documented exit codes


GOLDEN_SHA256 = "71446c7473c87500e8b7ce725c4cfbc8633323e0a1c918dee2a412a760c3ac03"


def test_12_io_round_trip_and_exit_codes(tmp_path):
    scene = generate_scene(GenConfig(seed=42))
    blob = dumps_scene(scene)
    ok = hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN_SHA256
    ok = ok and dumps_scene(scene_from_doc(json.loads(blob))) == blob

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"gen": {"nope": 3}}))
    ok = ok and main(["gen", "--config", str(bad_cfg), "--out", str(tmp_path / "s.ndjson")]) == 2

    broken = tmp_path / "broken.ndjson"
    broken.write_text("{broken\n")
    ok = ok and main(["associate", "--method", "knn", "--scenes", str(broken),
                      "--out", str(tmp_path / "p.ndjson")]) == 2

    cramped = tmp_path / "cramped.json"
    cramped.write_text(json.dumps({"gen": {
        "layout": "random-planar", "sd_extent": [10.0, 10.0],
        "random_roads": 40, "road_clearance": 8.0,
    }}))
    ok = ok and main(["gen", "--config", str(cramped), "--count", "1",
                      "--out", str(tmp_path / "s.ndjson")]) == 3

    ok = ok and main(["associate", "--method", "knn",
                      "--scenes", str(tmp_path / "absent.ndjson"),
                      "--out", str(tmp_path / "p.ndjson")]) == 1
    verdict(12, "seed-42 canonical round trip byte-exact; exit codes 2/3/1 as documented", ok)

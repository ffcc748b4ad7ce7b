"""Path-level association metrics.

Both metrics walk the same skeleton. Lane-path endpoints are extracted from
the predicted and ground-truth HD graphs and greedily matched within
`point_match_tau`. Every ground-truth path then contributes exactly one count
per threshold: TP when a predicted path between its matched endpoints scores
at or above the threshold, FP when one exists but scores below, FN when an
endpoint is unmatched or no predicted path connects the matched pair.
Unmatched predicted paths are not counted. A pair (pred path, gt path)
scores one float: association its length-aware label overlap ratio,
reachability 1.0 within a meter tolerance of symmetric Chamfer distance and
0.0 beyond it, so its counts repeat across the threshold axis. A gt path
keeps the best score of its candidates, scored until it reaches the top
threshold, and one numpy pass per scene counts every threshold at once.

Reachability judges a predicted lane graph, not labels. `mapassoc eval`
passes no predicted graph, so it scores on the scene's own: there every
endpoint is its own match, so no matching runs, and every ground-truth path
is its own candidate at Chamfer distance exactly 0, so it scores 1.0
and no path is walked. Reachability is 1.0 for any labels, and neither
`point_match_tau` nor `chamfer_tau` changes a count; they act only for a
library caller that passes `Prediction(hd=...)`.

Paths are read only through each graph's flat path index
(`HdGraph.path_rows`) and numbered by their row there. Association collapses
each side's labels into runs in one numpy pass per side (`_runs`): a run
starts at each path start and label change, and `np.add.at` sums run
lengths in index order, so each has the bits of `label_sequence`'s
left-to-right sum. On the scene's own graph a gt path whose own path has
equal runs settles at their diagonal ratio, the only full-length alignment
of equal sequences, when that reaches the top threshold. The rest are
walked: per scene, each path's sequence is sliced from the runs once, each
distinct pair of sequences is scored once, and equal sequences skip the
alignment DP. On the benchmark's hmm labels 17 of the scene ladder's 1,553
gt paths are walked, 18 of the fleet's 714 and 91 of 533 under heavy noise;
with `Prediction(hd=...)` every gt path is. Lengths come from each graph's
`HdGraph.lengths` table, computed once per graph.

Counts are bucketed by ground-truth path length. Per threshold, precision and
recall are averaged over buckets that saw at least one ground-truth path, and
the 50:95 aggregates are means over thresholds, with F1 the harmonic mean of
the aggregated precision and recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, CoverageError, InvalidGeometryError, ValidationError
from .fields import MAY_BE_INFINITE, above, check_fields, fits, within
from .geometry import Association, HdGraph, Scene
from .geometry import enumerate_paths  # noqa: F401  kept as a module attribute; bench/tracer.py patches it

__all__ = [
    "MetricConfig",
    "MetricReport",
    "Prediction",
    "label_sequence",
    "overlap_ratio",
    "chamfer_distance",
    "association_pr",
    "reachability_pr",
    "report_table",
]

DEFAULT_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_BUCKETS = tuple(
    (float(5 * i), float(5 * (i + 1)) if i < 14 else math.inf) for i in range(15)
)
# float64 cells per block of the endpoint distance prefilter (2 MB)
_PREFILTER_CELLS = 1 << 18


@dataclass(frozen=True)
class MetricConfig:
    """Thresholds, length buckets, and the two geometric tolerances."""

    thresholds: tuple[float, ...] = field(default=DEFAULT_THRESHOLDS, metadata=within(0, 1, open_low=True))
    length_buckets: tuple[tuple[float, float], ...] = field(default=DEFAULT_BUCKETS, metadata=MAY_BE_INFINITE)
    point_match_tau: float = field(default=1.5, metadata=above(0))
    chamfer_tau: float = field(default=1.0, metadata=above(0))

    def __post_init__(self):
        check_fields(self)
        ths = tuple(map(float, self.thresholds))  # a report writes 1.0, not 1
        object.__setattr__(self, "thresholds", ths)
        buckets = tuple((float(lo), float(hi)) for lo, hi in self.length_buckets)
        object.__setattr__(self, "length_buckets", buckets)
        if not ths:
            raise ConfigError("thresholds: must not be empty")
        if any(a >= b for a, b in zip(ths, ths[1:])):
            raise ConfigError(f"thresholds: must be strictly increasing, got {ths!r}")
        if not buckets or buckets[0][0] != 0.0 or buckets[-1][1] != math.inf:
            raise ConfigError("length_buckets: must start at 0 and end at infinity")
        for (lo, hi), (lo2, _) in zip(buckets, buckets[1:]):
            if hi != lo2 or lo >= hi:
                raise ConfigError("length_buckets: must be contiguous and increasing")

    def buckets_of(self, lengths) -> np.ndarray:
        """The length bucket of each of `lengths`, as an int64 array.

        A length falls in the bucket (lo, hi) with lo <= length < hi; a
        negative, infinite or NaN length raises ConfigError naming the first.
        """
        lengths = np.asarray(lengths, dtype=np.float64)
        bad = ~((lengths >= 0.0) & (lengths < math.inf))
        if bad.any():
            raise ConfigError(f"no bucket for length {float(lengths[bad][0])}")
        return np.searchsorted([lo for lo, _ in self.length_buckets[1:]], lengths, side="right")

    def bucket_of(self, length: float) -> int:
        return int(self.buckets_of([length])[0])


@dataclass(frozen=True)
class Prediction:
    """A predicted association, optionally over its own predicted HD graph.

    With `hd` unset the prediction reuses the scene's HD graph (the
    ground-truth-map evaluation setting); with it set, endpoint matching and
    path lookup run on the predicted graph.
    """

    assoc: Association
    hd: Union[HdGraph, None] = None


@dataclass(frozen=True)
class MetricReport:
    """TP/FP/FN counts per (threshold, bucket) and the derived P/R/F1."""

    thresholds: tuple
    buckets: tuple
    counts: np.ndarray  # (n_thresholds, n_buckets, 3) int64

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", c)
        shape = (len(self.thresholds), len(self.buckets), 3)
        if c.shape != shape:
            raise ConfigError(f"counts shape {c.shape}, expected {shape}")
        if (c < 0).any():
            raise ConfigError("counts must be non-negative")

    def _bucket_rates(self, kind: int) -> np.ndarray:
        """Per-threshold mean over non-empty buckets; kind 1 = FP, 2 = FN."""
        tp = self.counts[:, :, 0].astype(np.float64)
        other = self.counts[:, :, kind].astype(np.float64)
        denom = tp + other
        nonempty = self.counts.sum(axis=2) > 0  # (n_th, n_buckets)
        rates = np.divide(tp, denom, out=np.zeros_like(tp), where=denom > 0)
        out = np.zeros(len(self.thresholds), dtype=np.float64)
        for i in range(len(self.thresholds)):
            cols = nonempty[i]
            if cols.any():
                out[i] = rates[i, cols].mean()
        return out

    @property
    def precision(self) -> np.ndarray:
        return self._bucket_rates(1)

    @property
    def recall(self) -> np.ndarray:
        return self._bucket_rates(2)

    @property
    def f1(self) -> np.ndarray:
        p, r = self.precision, self.recall
        s = p + r
        return np.divide(2.0 * p * r, s, out=np.zeros_like(s), where=s > 0)

    @property
    def ap(self) -> float:
        """Mean precision over all thresholds."""
        return float(self.precision.mean())

    @property
    def ar(self) -> float:
        return float(self.recall.mean())

    @property
    def af1(self) -> float:
        """Harmonic mean of the aggregated precision and recall."""
        p, r = self.ap, self.ar
        return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)

    def at_threshold(self, th: float) -> dict:
        try:
            i = self.thresholds.index(th)
        except ValueError:
            raise ConfigError(f"threshold {th} not in report") from None
        return {
            "precision": float(self.precision[i]),
            "recall": float(self.recall[i]),
            "f1": float(self.f1[i]),
        }

    def to_json(self) -> dict:
        """JSON-safe dict; infinite bucket bound serializes as null."""
        return {
            "thresholds": list(self.thresholds),
            "buckets": [
                [lo, None if math.isinf(hi) else hi] for lo, hi in self.buckets
            ],
            "counts": self.counts.tolist(),
            "precision": [float(v) for v in self.precision],
            "recall": [float(v) for v in self.recall],
            "f1": [float(v) for v in self.f1],
            "ap_50_95": self.ap,
            "ar_50_95": self.ar,
            "af1_50_95": self.af1,
        }

    @classmethod
    def from_json(cls, doc) -> "MetricReport":
        """Inverse of to_json; a malformed document raises ValidationError."""
        if not isinstance(doc, dict):
            raise ValidationError(f"expected an object, got {type(doc).__name__}")
        for key in ("thresholds", "buckets", "counts"):
            if key not in doc:
                raise ValidationError(f"missing field {key!r}")
        ths = doc["thresholds"]
        if not fits(ths, tuple[float, ...]):
            raise ValidationError("field 'thresholds' must be a list of numbers")
        buckets = doc["buckets"]
        if not fits(buckets, tuple[tuple[float, Optional[float]], ...]):
            raise ValidationError("field 'buckets' must be a list of [low, high or null] pairs")
        try:
            counts = np.asarray(doc["counts"])
        except ValueError:
            counts = None  # ragged nesting
        if counts is None or (counts.size and counts.dtype.kind != "i"):
            raise ValidationError("field 'counts' must be a nested list of integers")
        # the thresholds and buckets follow the rules of the config that made them
        try:
            cfg = MetricConfig(
                thresholds=tuple(ths),
                length_buckets=tuple((lo, math.inf if hi is None else hi) for lo, hi in buckets),
            )
        except ConfigError as exc:
            name, _, rest = str(exc).partition(": ")
            key = "buckets" if name == "length_buckets" else name
            raise ValidationError(f"field {key!r}: {rest}") from None
        return cls(thresholds=cfg.thresholds, buckets=cfg.length_buckets, counts=counts)


# ---------------------------------------------------------------------------
# sequence scoring


def label_sequence(path, assoc: Association, hd: HdGraph) -> tuple:
    """Collapse a lane path's labels: merged runs plus covered arc lengths.

    Returns (labels, lengths); consecutive equal road labels merge into one
    entry whose length is the summed vector length of the run.
    """
    label_of, length_of = assoc.labels, hd.lengths
    labels = []
    lengths = []
    try:
        for cid in path:
            rid = label_of[cid]
            length = length_of[cid]
            if labels and labels[-1] == rid:
                lengths[-1] += length
            else:
                labels.append(rid)
                lengths.append(length)
    except KeyError:
        if cid not in label_of:
            raise CoverageError(f"association does not cover centerline {cid}") from None
        raise CoverageError(f"lane graph has no centerline {cid}") from None
    return tuple(labels), tuple(lengths)


def _runs(hd: HdGraph, labels: dict, code: dict) -> tuple:
    """`label_sequence` of every lane path of `hd` in one pass over its flat
    path index: (offsets, codes, lengths), path i's runs being
    `offsets[i]:offsets[i + 1]`. `code` gains an integer for each label it
    lacks, one per set of equal labels, so two sides read through one `code`
    compare as their labels do. A centerline without a label raises
    CoverageError naming the first in path order.
    """
    ids, rows = hd.node_ids, hd.path_rows
    try:
        vals = list(map(labels.__getitem__, ids))
    except KeyError:
        covered = np.fromiter(map(labels.__contains__, ids), dtype=bool, count=len(ids))[rows.nodes]
        raise CoverageError(f"association does not cover centerline {ids[rows.nodes[covered.argmin()]]}") from None
    for label in dict.fromkeys(vals):
        code.setdefault(label, len(code))
    lab = np.fromiter(map(code.__getitem__, vals), dtype=np.int64, count=len(vals))[rows.nodes]
    # a run starts at a path's first token and wherever the label changes; np.add.at
    # sums its lengths in index order, with the bits of label_sequence's sum
    start = np.ones(len(lab), dtype=bool)
    np.not_equal(lab[1:], lab[:-1], out=start[1:])
    start[rows.offsets[:-1]] = True
    before = np.zeros(len(lab) + 1, dtype=np.int64)  # the runs started before each token
    np.cumsum(start, out=before[1:])
    lengths = np.zeros(before[-1])
    np.add.at(lengths, before[1:] - 1, np.fromiter(hd.lengths.values(), dtype=np.float64, count=len(ids))[rows.nodes])
    return before[rows.offsets], lab[start], lengths


def _sum(values) -> float:
    """The float sum of `values` left to right from 0.0: the same bits on every
    Python (builtin `sum()` compensates since 3.12)."""
    return reduce(add, values, 0.0)


def overlap_ratio(pred, gt) -> float:
    """Length-aware overlap between two collapsed label sequences.

    Labels are aligned by longest common subsequence; among maximum-length
    alignments the one with the largest summed min(pred, gt) length wins. The
    ratio divides that sum by the total ground-truth length.
    """
    pl, pv = list(pred[0]), list(pred[1])
    gl, gv = list(gt[0]), list(gt[1])
    total = _sum(gv)
    if total <= 0.0:
        raise InvalidGeometryError("ground-truth path has zero length")
    if pl == gl:
        # Equal sequences align only along the diagonal at full length, and
        # the DP below sums that diagonal left to right from 0.0, as _sum does
        return min(_sum(map(min, pv, gv)) / total, 1.0)
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


def chamfer_distance(points_a, points_b) -> float:
    """Symmetric Chamfer distance: mean of the two directed mean distances."""
    a = np.asarray(points_a, dtype=np.float64)
    b = np.asarray(points_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidGeometryError("chamfer distance needs two non-empty point sets")
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    return float(0.5 * (d.min(axis=1).mean() + d.min(axis=0).mean()))


# ---------------------------------------------------------------------------
# endpoint matching


def _match_points(gt_points, pred_points, tau: float) -> dict:
    """Greedy one-to-one matching of unique endpoints, nearest pairs first."""
    pairs = []
    if gt_points and pred_points:
        g = np.asarray(gt_points, dtype=np.float64)
        p = np.asarray(pred_points, dtype=np.float64)
        # np.hypot and math.hypot may differ in the last ulp, so numpy only
        # shortlists pairs, with slack; math.hypot decides and sorts them
        slack = tau * (1.0 + 1e-9)
        rows = max(1, _PREFILTER_CELLS // len(p))
        for lo in range(0, len(g), rows):
            blk = g[lo:lo + rows]
            near = np.hypot(blk[:, None, 0] - p[None, :, 0], blk[:, None, 1] - p[None, :, 1]) <= slack
            ii, jj = np.nonzero(near)
            for i, j in zip((ii + lo).tolist(), jj.tolist()):
                gp, pp = gt_points[i], pred_points[j]
                d = math.hypot(gp[0] - pp[0], gp[1] - pp[1])
                if d <= tau:
                    pairs.append((d, gp, pp))
    pairs.sort()
    used_g, used_p = set(), set()
    match = {}
    for d, gp, pp in pairs:
        if gp in used_g or pp in used_p:
            continue
        match[gp] = pp
        used_g.add(gp)
        used_p.add(pp)
    return match


def _as_prediction(pred) -> Prediction:
    if isinstance(pred, Prediction):
        return pred
    if isinstance(pred, Association):
        return Prediction(assoc=pred)
    raise ConfigError(f"expected Association or Prediction, got {type(pred).__name__}")


def _scene_counts(pred, scene: Scene, cfg: MetricConfig, prepare) -> np.ndarray:
    """One scene's counts.

    `prepare(assoc, pred_hd, scene)` gives the level of each gt path that
    the metric settles without a walk (NaN for the rest; None for none) and
    its `scorer(pred_path, gt_path) -> level`, each path numbered by its row
    in its graph's `path_rows`. Every other gt path is walked: its
    candidates are scored until one reaches the top threshold, and a path
    with none gets -inf. A level is TP at each threshold it reaches.
    """
    if scene.gt is None:
        raise CoverageError("scene has no ground-truth association")
    pred = _as_prediction(pred)
    pred_hd = pred.hd if pred.hd is not None else scene.hd
    own = pred_hd is scene.hd
    if not pred.assoc.covers(pred_hd):
        missing = sorted(c.id for c in pred_hd.centerlines if c.id not in pred.assoc.labels)
        raise CoverageError(f"prediction does not cover centerlines {missing}")
    rows = scene.hd.path_rows
    n_paths = len(rows.offsets) - 1
    # each path token's centerline length, and each path's length summed left
    # to right: np.add.at applies its indices in order, so it gives _sum's bits
    lengths = np.fromiter(scene.hd.lengths.values(), dtype=np.float64, count=len(scene.hd.lengths))[rows.nodes]
    path_len = np.zeros(n_paths)
    np.add.at(path_len, np.repeat(np.arange(n_paths), np.diff(rows.offsets)), lengths)
    buckets = cfg.buckets_of(path_len)
    top = cfg.thresholds[-1]
    levels, scorer = prepare(pred.assoc, pred_hd, scene)
    if levels is None:
        levels = np.full(n_paths, np.nan)
    walked = np.flatnonzero(np.isnan(levels)).tolist()
    if walked:
        # each path's ends: the p1 of its first centerline and the p2 of its last
        ends = []
        for hd in (scene.hd,) if own else (scene.hd, pred_hd):
            cls, r = hd.centerlines, hd.path_rows
            firsts, lasts = r.nodes[r.offsets[:-1]].tolist(), r.nodes[r.offsets[1:] - 1].tolist()
            ends.append([(tuple(cls[a].vector.p1), tuple(cls[b].vector.p2)) for a, b in zip(firsts, lasts)])
        gt_ends, pred_ends = ends[0], ends[-1]
        match = None
        if not own:
            # on the scene's own graph each endpoint matches itself: the greedy match takes
            # the distance-0 self pairs first, and two distinct endpoints are never at distance 0
            gt_points = sorted({p for pair in gt_ends for p in pair})
            pred_points = sorted({p for pair in pred_ends for p in pair})
            match = _match_points(gt_points, pred_points, cfg.point_match_tau)
        by_ends = {}
        for p, pair in enumerate(pred_ends):
            by_ends.setdefault(pair, []).append(p)
        for g in walked:
            s, e = gt_ends[g]
            best = -math.inf
            for p in by_ends.get((s, e) if match is None else (match.get(s), match.get(e)), ()):
                best = max(best, scorer(p, g))
                if best >= top:
                    break  # TP at every threshold: settled
            levels[g] = best

    # TP at each threshold the level reaches, FP below it, FN with no candidate (-inf)
    n_th, n_b = len(cfg.thresholds), len(cfg.length_buckets)
    kind = np.where(levels[:, None] >= np.asarray(cfg.thresholds), 0, np.where(levels < 0.0, 2, 1)[:, None])
    cells = (np.arange(n_th) * n_b + buckets[:, None]) * 3 + kind
    return np.bincount(cells.ravel(), minlength=n_th * n_b * 3).reshape(n_th, n_b, 3)


def _accumulate(preds, scenes, cfg: MetricConfig, prepare) -> MetricReport:
    if len(preds) != len(scenes):
        raise ConfigError(f"{len(preds)} predictions for {len(scenes)} scenes")
    total = np.zeros((len(cfg.thresholds), len(cfg.length_buckets), 3), dtype=np.int64)
    for pred, scene in zip(preds, scenes):
        total += _scene_counts(pred, scene, cfg, prepare)
    return MetricReport(thresholds=cfg.thresholds, buckets=cfg.length_buckets, counts=total)


def association_pr(preds, scenes, cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """Label-overlap precision-recall over lane paths.

    `preds` holds one Association or Prediction per scene. A ground-truth path
    scores TP at a threshold when some predicted path between its matched
    endpoints reaches that overlap ratio against the path's collapsed
    ground-truth label sequence.
    """
    def prepare(assoc, pred_hd, scene):
        code = {}
        # the predicted side first: a fault in the predicted graph comes before the gt-coverage error
        pred_runs = p_off, p_lab, p_len = _runs(pred_hd, assoc.labels, code)
        gt_runs = g_off, g_lab, g_len = _runs(scene.hd, scene.gt.labels, code)
        levels = None
        if pred_hd is scene.hd:
            # a gt path whose own path has equal label runs settles at overlap_ratio's
            # diagonal when that reaches the top threshold; np.add.at sums in order, with _sum's bits
            n_paths = len(g_off) - 1
            n_pred, n_gt = np.diff(p_off), np.diff(g_off)
            equal = n_pred == n_gt
            path_of = np.repeat(np.arange(n_paths), n_pred)
            # predicted run k of a path with as many gt runs pairs with the path's gt run k
            pi = np.flatnonzero(equal[path_of])
            gi = pi + (g_off - p_off)[path_of[pi]]
            equal[path_of[pi[p_lab[pi] != g_lab[gi]]]] = False
            overlap, total = np.zeros(n_paths), np.zeros(n_paths)
            np.add.at(overlap, path_of[pi], np.minimum(p_len[pi], g_len[gi]))
            np.add.at(total, np.repeat(np.arange(n_paths), n_gt), g_len)
            ratio = np.minimum(overlap / total, 1.0)
            levels = np.where(equal & (ratio >= cfg.thresholds[-1]), ratio, np.nan)
        # per scene, so no cache outlives its scene or is shared between scenes:
        # each side's sequences by path, and the ratio of each distinct pair
        sides = [({}, *(a.tolist() for a in runs)) for runs in (pred_runs, gt_runs)]
        reps, ratios = list(code), {}  # reps[k]: the first label given code k

        def sequence(side, i):
            seqs, off, lab, length = sides[side]
            seq = seqs.get(i)
            if seq is None:
                a, b = off[i], off[i + 1]
                seq = seqs[i] = (tuple(map(reps.__getitem__, lab[a:b])), tuple(length[a:b]))
            return seq

        def scorer(pred_path, gt_path):
            pair = sequence(0, pred_path), sequence(1, gt_path)
            ratio = ratios.get(pair)
            if ratio is None:
                ratio = ratios[pair] = overlap_ratio(*pair)
            return ratio

        return levels, scorer

    return _accumulate(preds, scenes, cfg, prepare)


def reachability_pr(preds, scenes, cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """Chamfer-distance precision-recall over lane paths.

    A ground-truth path scores TP when some predicted path between its matched
    endpoints lies within `chamfer_tau` meters (symmetric Chamfer distance);
    the verdict repeats across the threshold axis so report shapes match
    association_pr.
    """
    def prepare(assoc, pred_hd, scene):
        if pred_hd is scene.hd:
            # on its own graph every gt path is its own candidate, at Chamfer distance 0
            return np.ones(len(scene.hd.path_rows.offsets) - 1), None

        def points(hd, i):  # p1 and p2 of each centerline on path i of `hd`
            r, cls = hd.path_rows, hd.centerlines
            return [p for c in r.nodes[r.offsets[i]:r.offsets[i + 1]].tolist() for p in (cls[c].vector.p1, cls[c].vector.p2)]

        def scorer(pred_path, gt_path):
            d = chamfer_distance(points(pred_hd, pred_path), points(scene.hd, gt_path))
            return 1.0 if d <= cfg.chamfer_tau else 0.0

        return None, scorer

    return _accumulate(preds, scenes, cfg, prepare)


def report_table(reports) -> str:
    """Aligned text table, one row per named report.

    `reports` is a dict from name to report or a sequence of (name, report)
    pairs; pairs keep one row each, in order, even when names repeat.

    Columns follow the standard layout: F1 at 0.5 / 0.75 / 0.95, then the
    aggregated precision, recall, and F1 over all thresholds. Values print as
    percentages; a dash marks a threshold the report does not carry.
    """
    cols = ["A-F1^50", "A-F1^75", "A-F1^95", "A-P^50:95", "A-R^50:95", "A-F1^50:95"]
    rows = []
    for name, rep in reports.items() if isinstance(reports, dict) else reports:
        cells = []
        for th in (0.5, 0.75, 0.95):
            if th in rep.thresholds:
                cells.append(f"{100.0 * rep.at_threshold(th)['f1']:.1f}")
            else:
                cells.append("-")
        cells.append(f"{100.0 * rep.ap:.1f}")
        cells.append(f"{100.0 * rep.ar:.1f}")
        cells.append(f"{100.0 * rep.af1:.1f}")
        rows.append((name, cells))
    name_w = max(len("Method"), *(len(n) for n, _ in rows)) if rows else len("Method")
    widths = [max(len(c), *(len(r[1][i]) for r in rows)) if rows else len(c)
              for i, c in enumerate(cols)]
    lines = [
        "Method".ljust(name_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    ]
    for name, cells in rows:
        lines.append(
            name.ljust(name_w) + "  " + "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        )
    return "\n".join(lines)

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
is its own first candidate at Chamfer distance exactly 0, so it scores 1.0
and no path is walked. Reachability is 1.0 for any labels, and neither
`point_match_tau` nor `chamfer_tau` changes a count; they act only for a
library caller that passes `Prediction(hd=...)`.

On the scene's own graph association starts with numpy passes over the
graph's flat path index (`HdGraph.path_rows`). Both sides' labels and the
centerline lengths are gathered once per centerline; a run starts at each
path start and label change; run lengths, path lengths and the overlap of
equal label sequences (their only full-length alignment is the diagonal)
are summed with `np.add.at`, which applies its indices in order, so every
sum has the bits of the left-to-right `_sum` the walk uses. A gt path whose
own path has an equal label sequence and reaches the top threshold is
settled there. Only the rest are walked: the walk keeps, per scene, the
label sequence of each predicted and ground-truth path and the overlap
ratio of each distinct pair of sequences, and two equal sequences skip the
alignment DP. On the benchmark's hmm labels 17 of the scene ladder's 1,553
gt paths are walked, 18 of the fleet's 714 and 91 of 533 under heavy noise.
With `Prediction(hd=...)` every gt path is walked. Lengths come from each
graph's `HdGraph.lengths` table, computed once per graph.

Counts are bucketed by ground-truth path length. Per threshold, precision and
recall are averaged over buckets that saw at least one ground-truth path, and
the 50:95 aggregates are means over thresholds, with F1 the harmonic mean of
the aggregated precision and recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, CoverageError, InvalidGeometryError, ValidationError
from .fields import MAY_BE_INFINITE, above, check_fields, fits, within
from .geometry import Association, HdGraph, Scene, enumerate_paths

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


def _path_points(hd: HdGraph, path) -> list:
    pts = []
    for cid in path:
        v = hd.by_id[cid].vector
        pts.append((v.p1.x, v.p1.y))
        pts.append((v.p2.x, v.p2.y))
    return pts


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


def _path_ends(hd: HdGraph, paths) -> dict:
    """Each path's (start, end) points, by path."""
    by_id = hd.by_id
    return {path: (tuple(by_id[path[0]].vector.p1), tuple(by_id[path[-1]].vector.p2)) for path in paths}


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


def _scene_counts(pred, scene: Scene, cfg: MetricConfig, scorer, settle) -> np.ndarray:
    """One scene's counts.

    On the scene's own graph `settle(assoc, scene, rows, path_of, lengths,
    top)` gives, from numpy passes over the flat path index, the level of
    each gt path that its own path settles (NaN for the rest), or None when
    it cannot tell. Every other gt path is walked: `scorer(pred_path,
    pred_hd, gt_path) -> level` scores its candidates until one reaches the
    top threshold. A level is TP at each threshold it reaches.
    """
    if scene.gt is None:
        raise CoverageError("scene has no ground-truth association")
    pred = _as_prediction(pred)
    pred_hd = pred.hd if pred.hd is not None else scene.hd
    own = pred_hd is scene.hd
    if not pred.assoc.covers(pred_hd):
        missing = sorted(c.id for c in pred_hd.centerlines if c.id not in pred.assoc.labels)
        raise CoverageError(f"prediction does not cover centerlines {missing}")
    pidx, rows = enumerate_paths(scene.hd), scene.hd.path_rows
    n_paths = len(rows.offsets) - 1
    # each path token's centerline length, and each path's length summed left
    # to right: np.add.at applies its indices in order, so it gives _sum's bits
    lengths = np.fromiter(scene.hd.lengths.values(), dtype=np.float64, count=len(scene.hd.lengths))[rows.nodes]
    path_of = np.repeat(np.arange(n_paths), np.diff(rows.offsets))
    path_len = np.zeros(n_paths)
    np.add.at(path_len, path_of, lengths)
    buckets = cfg.buckets_of(path_len)
    levels = settle(pred.assoc, scene, rows, path_of, lengths, cfg.thresholds[-1]) if own else None
    if levels is None:
        levels = np.full(n_paths, np.nan)
    walked = np.flatnonzero(np.isnan(levels)).tolist()
    if walked:
        _walk(pred_hd, scene, cfg, scorer, pidx.paths, walked, levels)

    # TP at each threshold the level reaches, FP below it, FN with no candidate (-inf)
    n_th, n_b = len(cfg.thresholds), len(cfg.length_buckets)
    kind = np.where(levels[:, None] >= np.asarray(cfg.thresholds), 0, np.where(levels < 0.0, 2, 1)[:, None])
    cells = (np.arange(n_th) * n_b + buckets[:, None]) * 3 + kind
    return np.bincount(cells.ravel(), minlength=n_th * n_b * 3).reshape(n_th, n_b, 3)


def _walk(pred_hd, scene, cfg, scorer, gt_paths, todo, levels) -> None:
    """Set `levels[i]` for each gt path numbered in `todo` to the best score
    of its candidates, scored until one reaches the top threshold; -inf for
    a path with no candidate. On the scene's own graph the gt path itself
    goes first."""
    gt_ends = _path_ends(scene.hd, gt_paths)
    if pred_hd is scene.hd:
        # each endpoint matches itself: the greedy match takes the distance-0
        # self pairs first, and two distinct endpoints are never at distance 0
        pred_ends, match = gt_ends, None
    else:
        pred_ends = _path_ends(pred_hd, enumerate_paths(pred_hd).paths)
        gt_points = sorted({p for ends in gt_ends.values() for p in ends})
        pred_points = sorted({p for ends in pred_ends.values() for p in ends})
        match = _match_points(gt_points, pred_points, cfg.point_match_tau)
    by_ends = {}
    for path, ends in pred_ends.items():
        by_ends.setdefault(ends, []).append(path)
    top = cfg.thresholds[-1]
    for i in todo:
        gt_path = gt_paths[i]
        s, e = gt_ends[gt_path]
        if match is None:
            # the gt path itself, always a candidate, goes first
            candidates = chain((gt_path,), (pp for pp in by_ends[s, e] if pp != gt_path))
        else:
            candidates = by_ends.get((match.get(s), match.get(e)), ())
        best = -math.inf
        for pp in candidates:
            best = max(best, scorer(pp, pred_hd, gt_path))
            if best >= top:
                break  # TP at every threshold: settled
        levels[i] = best


def _own_ratios(assoc, scene, rows, path_of, lengths, top):
    """Each gt path's overlap ratio against itself, where its predicted and
    ground-truth label sequences are equal and the ratio reaches `top`; NaN
    elsewhere. None when the ground truth does not cover the graph.

    The ratio is overlap_ratio's on the diagonal. Run lengths and the sums
    over runs are taken left to right by np.add.at, which applies its
    indices in order, so they have the bits of label_sequence and _sum.
    """
    ids = scene.hd.node_ids
    try:
        labels = list(map(assoc.labels.__getitem__, ids)) + list(map(scene.gt.labels.__getitem__, ids))
    except KeyError:
        return None
    # one integer per distinct label, so labels compare as they do in Python
    code = {label: i for i, label in enumerate(dict.fromkeys(labels))}
    lab = np.fromiter(map(code.__getitem__, labels), dtype=np.int64, count=len(labels)).reshape(2, -1)
    lab = lab[:, rows.nodes]
    # a run starts at a path's first token and wherever the label changes;
    # counted over both rows, the predicted runs come first, then the gt runs
    start = np.ones(lab.shape, dtype=bool)
    np.not_equal(lab[:, 1:], lab[:, :-1], out=start[:, 1:])
    start[:, rows.offsets[:-1]] = True
    n_pred = int(start[0].sum())
    summed = np.zeros(n_pred + int(start[1].sum()))
    np.add.at(summed, np.cumsum(start) - 1, np.tile(lengths, 2))
    run_path, run_lab = np.tile(path_of, 2)[start.ravel()], lab[start]
    pp, gp = run_path[:n_pred], run_path[n_pred:]
    n_paths = len(rows.offsets) - 1
    n_runs = np.bincount(pp, minlength=n_paths), np.bincount(gp, minlength=n_paths)
    equal = n_runs[0] == n_runs[1]
    # predicted run k of a path with as many gt runs pairs with the path's gt run k
    pi = np.flatnonzero(equal[pp])
    gi = pi + n_pred + (np.cumsum(n_runs[1]) - np.cumsum(n_runs[0]))[pp[pi]]
    equal[pp[pi[run_lab[pi] != run_lab[gi]]]] = False
    overlap, total = np.zeros(n_paths), np.zeros(n_paths)
    np.add.at(overlap, pp[pi], np.minimum(summed[pi], summed[gi]))
    np.add.at(total, gp, summed[n_pred:])
    ratio = np.minimum(overlap / total, 1.0)
    return np.where(equal & (ratio >= top), ratio, np.nan)


def _accumulate(preds, scenes, cfg: MetricConfig, scorer_factory, settle) -> MetricReport:
    if len(preds) != len(scenes):
        raise ConfigError(f"{len(preds)} predictions for {len(scenes)} scenes")
    total = np.zeros((len(cfg.thresholds), len(cfg.length_buckets), 3), dtype=np.int64)
    for pred, scene in zip(preds, scenes):
        total += _scene_counts(pred, scene, cfg, scorer_factory(pred, scene), settle)
    return MetricReport(
        thresholds=cfg.thresholds, buckets=cfg.length_buckets, counts=total
    )


def association_pr(preds, scenes, cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """Label-overlap precision-recall over lane paths.

    `preds` holds one Association or Prediction per scene. A ground-truth path
    scores TP at a threshold when some predicted path between its matched
    endpoints reaches that overlap ratio against the path's collapsed
    ground-truth label sequence.
    """
    def factory(pred, scene):
        assoc = _as_prediction(pred).assoc
        # per scene, so no cache outlives its scene or is shared between scenes
        pred_seqs, gt_seqs, ratios = {}, {}, {}

        def scorer(pred_path, pred_hd, gt_path):
            p_seq = pred_seqs.get(pred_path)
            if p_seq is None:
                p_seq = pred_seqs[pred_path] = label_sequence(pred_path, assoc, pred_hd)
            g_seq = gt_seqs.get(gt_path)
            if g_seq is None:
                g_seq = gt_seqs[gt_path] = label_sequence(gt_path, scene.gt, scene.hd)
            ratio = ratios.get((p_seq, g_seq))
            if ratio is None:
                ratio = ratios[p_seq, g_seq] = overlap_ratio(p_seq, g_seq)
            return ratio

        return scorer

    return _accumulate(preds, scenes, cfg, factory, _own_ratios)


def reachability_pr(preds, scenes, cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """Chamfer-distance precision-recall over lane paths.

    A ground-truth path scores TP when some predicted path between its matched
    endpoints lies within `chamfer_tau` meters (symmetric Chamfer distance);
    the verdict repeats across the threshold axis so report shapes match
    association_pr.
    """
    def factory(pred, scene):
        def scorer(pred_path, pred_hd, gt_path):
            d = chamfer_distance(_path_points(pred_hd, pred_path), _path_points(scene.hd, gt_path))
            return 1.0 if d <= cfg.chamfer_tau else 0.0

        return scorer

    def settle(assoc, scene, rows, path_of, lengths, top):
        # on its own graph every gt path is its own first candidate, at Chamfer distance 0
        return np.ones(len(rows.offsets) - 1)

    return _accumulate(preds, scenes, cfg, factory, settle)


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

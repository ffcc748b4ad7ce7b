"""Path-level association metrics.

Both metrics walk the same skeleton. Lane-path endpoints are extracted from
the predicted and ground-truth HD graphs and greedily matched within
`point_match_tau`. Every ground-truth path then contributes exactly one count
per threshold: TP when a predicted path between its matched endpoints scores
at or above the threshold, FP when one exists but scores below, FN when an
endpoint is unmatched or no predicted path connects the matched pair.
Unmatched predicted paths are not counted.

The two metrics differ only in how a (pred path, gt path) pair is scored:
association uses the length-aware label overlap ratio against each threshold
in turn; reachability uses the symmetric Chamfer distance against a single
meter tolerance (its counts repeat across the threshold axis so both reports
share one shape).

No result is computed twice and no candidate is scored once its verdict is
settled. A ground-truth path's verdict is an OR over its candidates, so
scoring stops as soon as every threshold is TP. When the prediction reuses
the scene's own HD graph, the ground-truth path itself is scored first:
against itself its reachability Chamfer distance is exactly 0, so that
verdict is all TP without computing it. Association keeps, per scene, the
label sequence of each predicted and each ground-truth path and the overlap
ratio of each distinct pair of sequences.

Counts are bucketed by ground-truth path length. Per threshold, precision and
recall are averaged over buckets that saw at least one ground-truth path, and
the 50:95 aggregates are means over thresholds, with F1 the harmonic mean of
the aggregated precision and recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, CoverageError, InvalidGeometryError, ValidationError
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

    thresholds: tuple = DEFAULT_THRESHOLDS
    length_buckets: tuple = DEFAULT_BUCKETS
    point_match_tau: float = 1.5
    chamfer_tau: float = 1.0

    def __post_init__(self):
        ths = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", ths)
        buckets = tuple((float(lo), float(hi)) for lo, hi in self.length_buckets)
        object.__setattr__(self, "length_buckets", buckets)
        if not ths or any(not 0.0 < t <= 1.0 for t in ths):
            raise ConfigError("thresholds must lie in (0, 1]")
        if any(a >= b for a, b in zip(ths, ths[1:])):
            raise ConfigError("thresholds must be strictly increasing")
        if not buckets or buckets[0][0] != 0.0 or buckets[-1][1] != math.inf:
            raise ConfigError("length buckets must start at 0 and end at infinity")
        for (lo, hi), (lo2, _) in zip(buckets, buckets[1:]):
            if hi != lo2 or lo >= hi:
                raise ConfigError("length buckets must be contiguous and increasing")
        for name in ("point_match_tau", "chamfer_tau"):
            tau = getattr(self, name)
            # `nan <= 0` is False, so test the accepted range, not its complement
            if not (math.isfinite(tau) and tau > 0):
                raise ConfigError(f"{name} must be finite and positive, got {tau}")

    def bucket_of(self, length: float) -> int:
        for i, (lo, hi) in enumerate(self.length_buckets):
            if lo <= length < hi:
                return i
        raise ConfigError(f"no bucket for length {length}")


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
        if not isinstance(ths, list) or not all(map(_is_number, ths)):
            raise ValidationError("field 'thresholds' must be a list of numbers")
        buckets = doc["buckets"]
        if not isinstance(buckets, list) or not all(
            isinstance(b, list) and len(b) == 2 and _is_number(b[0])
            and (b[1] is None or _is_number(b[1]))
            for b in buckets
        ):
            raise ValidationError("field 'buckets' must be a list of [low, high or null] pairs")
        try:
            counts = np.asarray(doc["counts"])
        except ValueError:
            counts = None  # ragged nesting
        if counts is None or (counts.size and counts.dtype.kind != "i"):
            raise ValidationError("field 'counts' must be a nested list of integers")
        return cls(
            thresholds=tuple(ths),
            buckets=tuple((lo, math.inf if hi is None else hi) for lo, hi in buckets),
            counts=counts,
        )


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# sequence scoring


def label_sequence(path, assoc: Association, hd: HdGraph) -> tuple:
    """Collapse a lane path's labels: merged runs plus covered arc lengths.

    Returns (labels, lengths); consecutive equal road labels merge into one
    entry whose length is the summed vector length of the run.
    """
    labels = []
    lengths = []
    for cid in path:
        try:
            rid = assoc[cid]
        except KeyError:
            raise CoverageError(f"association does not cover centerline {cid}") from None
        try:
            vec = hd.by_id[cid].vector
        except KeyError:
            raise CoverageError(f"lane graph has no centerline {cid}") from None
        if labels and labels[-1] == rid:
            lengths[-1] += vec.length
        else:
            labels.append(rid)
            lengths.append(vec.length)
    return tuple(labels), tuple(lengths)


def overlap_ratio(pred, gt) -> float:
    """Length-aware overlap between two collapsed label sequences.

    Labels are aligned by longest common subsequence; among maximum-length
    alignments the one with the largest summed min(pred, gt) length wins. The
    ratio divides that sum by the total ground-truth length.
    """
    pl, pv = list(pred[0]), list(pred[1])
    gl, gv = list(gt[0]), list(gt[1])
    total = float(sum(gv))
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


def _path_ends(hd: HdGraph, path) -> tuple:
    first = hd.by_id[path[0]].vector
    last = hd.by_id[path[-1]].vector
    return (first.p1.x, first.p1.y), (last.p2.x, last.p2.y)


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


def _scene_counts(pred, scene: Scene, cfg: MetricConfig, scorer) -> np.ndarray:
    """Shared per-scene walk; `scorer(pred_path, pred_hd, gt_path) -> per-threshold bools`."""
    if scene.gt is None:
        raise CoverageError("scene has no ground-truth association")
    pred = _as_prediction(pred)
    pred_hd = pred.hd if pred.hd is not None else scene.hd
    if not pred.assoc.covers(pred_hd):
        missing = sorted(
            c.id for c in pred_hd.centerlines if c.id not in pred.assoc.labels
        )
        raise CoverageError(f"prediction does not cover centerlines {missing}")
    gt_paths = enumerate_paths(scene.hd).paths
    # the same graph gives the same paths; enumerate it once
    pred_paths = gt_paths if pred_hd is scene.hd else enumerate_paths(pred_hd).paths
    gt_points = sorted({p for path in gt_paths for p in _path_ends(scene.hd, path)})
    pred_points = sorted({p for path in pred_paths for p in _path_ends(pred_hd, path)})
    match = _match_points(gt_points, pred_points, cfg.point_match_tau)
    by_ends = {}
    for path in pred_paths:
        by_ends.setdefault(_path_ends(pred_hd, path), []).append(path)

    n_th, n_b = len(cfg.thresholds), len(cfg.length_buckets)
    counts = np.zeros((n_th, n_b, 3), dtype=np.int64)
    for gt_path in gt_paths:
        s, e = _path_ends(scene.hd, gt_path)
        length = sum(scene.hd.by_id[c].vector.length for c in gt_path)
        b = cfg.bucket_of(length)
        candidates = []
        if s in match and e in match:
            candidates = by_ends.get((match[s], match[e]), [])
        if not candidates:
            counts[:, b, 2] += 1  # FN at every threshold
            continue
        if pred_hd is scene.hd:
            # stable sort: the gt path itself, when a candidate, goes first
            candidates = sorted(candidates, key=lambda pp: pp != gt_path)
        verdicts = np.zeros(n_th, dtype=bool)
        for pp in candidates:
            verdicts |= scorer(pp, pred_hd, gt_path)
            if verdicts.all():
                break  # the verdict is an OR over candidates: settled
        counts[verdicts, b, 0] += 1
        counts[~verdicts, b, 1] += 1
    return counts


def _accumulate(preds, scenes, cfg: MetricConfig, scorer_factory) -> MetricReport:
    if len(preds) != len(scenes):
        raise ConfigError(f"{len(preds)} predictions for {len(scenes)} scenes")
    total = np.zeros((len(cfg.thresholds), len(cfg.length_buckets), 3), dtype=np.int64)
    for pred, scene in zip(preds, scenes):
        total += _scene_counts(pred, scene, cfg, scorer_factory(pred, scene))
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
    ths = np.asarray(cfg.thresholds)

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
            return ratio >= ths

        return scorer

    return _accumulate(preds, scenes, cfg, factory)


def reachability_pr(preds, scenes, cfg: MetricConfig = MetricConfig()) -> MetricReport:
    """Chamfer-distance precision-recall over lane paths.

    A ground-truth path scores TP when some predicted path between its matched
    endpoints lies within `chamfer_tau` meters (symmetric Chamfer distance);
    the verdict repeats across the threshold axis so report shapes match
    association_pr.
    """
    n_th = len(cfg.thresholds)

    def factory(pred, scene):
        def scorer(pred_path, pred_hd, gt_path):
            if pred_hd is scene.hd and pred_path == gt_path:
                # the same points on both sides: Chamfer distance exactly 0
                return np.ones(n_th, dtype=bool)
            d = chamfer_distance(
                _path_points(pred_hd, pred_path), _path_points(scene.hd, gt_path)
            )
            return np.full(n_th, d <= cfg.chamfer_tau)

        return scorer

    return _accumulate(preds, scenes, cfg, factory)


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

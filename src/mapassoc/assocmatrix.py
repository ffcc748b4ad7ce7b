"""Row-stochastic association probability matrices.

Rows are centerlines (ascending id), columns candidate roads (ascending id).
Both the transformer head and the distance-based soft association produce
this container through one row softmax (`AssocMatrix.from_logits`); the
decoder and the CLI consume it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, LabelError
from .geometry import Association

__all__ = ["AssocMatrix", "ROW_SUM_TOL"]

ROW_SUM_TOL = 1e-6


@dataclass(frozen=True)
class AssocMatrix:
    """Per-centerline probability rows over candidate roads.

    probs           (L, K) float32, each row sums to 1 within ROW_SUM_TOL
    centerline_ids  row order, strictly ascending
    road_ids        column order, strictly ascending
    """

    probs: np.ndarray
    centerline_ids: tuple
    road_ids: tuple

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float32)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "centerline_ids", tuple(int(i) for i in self.centerline_ids))
        object.__setattr__(self, "road_ids", tuple(int(i) for i in self.road_ids))
        if p.ndim != 2 or p.shape != (len(self.centerline_ids), len(self.road_ids)):
            raise ConfigError(
                f"probs shape {p.shape} does not match "
                f"{len(self.centerline_ids)} centerlines x {len(self.road_ids)} roads"
            )
        for name, ids in (("centerline", self.centerline_ids), ("road", self.road_ids)):
            if any(a >= b for a, b in zip(ids, ids[1:])):
                raise ConfigError(f"{name} ids must be strictly ascending")
        if p.size:
            if not np.isfinite(p).all():
                raise ConfigError("probabilities must be finite")
            if p.min() < -ROW_SUM_TOL or p.max() > 1.0 + ROW_SUM_TOL:
                raise ConfigError("probabilities must lie in [0, 1]")
            sums = p.astype(np.float64).sum(axis=1)
            worst = float(np.abs(sums - 1.0).max())
            if worst > ROW_SUM_TOL:
                raise ConfigError(f"row sums deviate from 1 by {worst:.3e}")

    @classmethod
    def from_logits(cls, logits: np.ndarray, centerline_ids, road_ids) -> "AssocMatrix":
        """Row softmax of (L, K) float64 logits, computed in float64 and stored as float32."""
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        return cls(probs=e.astype(np.float32), centerline_ids=centerline_ids, road_ids=road_ids)

    @property
    def n_centerlines(self) -> int:
        return len(self.centerline_ids)

    @property
    def n_roads(self) -> int:
        return len(self.road_ids)

    @cached_property
    def _row_index(self) -> dict:
        """Centerline id -> row number, built once per matrix."""
        return {c: i for i, c in enumerate(self.centerline_ids)}

    def row_indices(self, cl_ids) -> list:
        """Row numbers of the given centerline ids, in their order."""
        index = self._row_index
        try:
            return [index[c] for c in cl_ids]
        except KeyError as err:
            raise LabelError(f"no probability row for centerline {err.args[0]}") from None

    def rows_for(self, cl_ids) -> np.ndarray:
        return self.probs[self.row_indices(cl_ids)]

    def argmax_association(self) -> Association:
        """Row-wise argmax labels; ties resolve to the lowest road id."""
        if self.n_roads == 0:
            raise LabelError("no candidate roads")
        best = np.argmax(self.probs, axis=1)  # first max, columns ascend by id
        labels = {c: int(self.road_ids[b]) for c, b in zip(self.centerline_ids, best)}
        return Association(labels=labels, meta={"method": "argmax"})

"""Space-filling-curve serialization of direction-vector tokens.

Tokens are quantized to an integer (x, y, r) grid cell: x/y from the vector
centroid at cell size ``g`` meters, r from the heading angle normalized to
[0, 2pi) and split into ``R`` sectors. Cells are then linearized by one of
four curve kinds:

``z``             Morton interleave, x least significant.
``z-trans``       Morton with axis roles permuted to (r, y, x).
``hilbert``       3D Hilbert curve (Skilling transpose construction).
``hilbert-trans`` Hilbert with axis roles permuted to (r, y, x).

Sorting by curve index with a stable original-index tie-break yields the
serialization permutation consumed by patch attention.

Orders. A key at order m holds m bits per axis. A Morton key is the same at
every order that covers the coordinates, and a Hilbert key at order m equals
the key at order m - 3 while every coordinate is below 2^(m - 3). So
`_key_order` computes every key at the lowest order that gives the keys of
the requested one and covers the coordinate spread: the spread's bit length
for the Morton kinds, the lowest order congruent to the requested one mod 3
for the Hilbert kinds. That lowers the order for a narrow spread, and for
`sort_tokens` it raises the order when the spread needs more bits than
requested; neither changes a key. A key must fit in uint64, so the order
stops at 21 (3 x 21 = 63 bits): from the default order 16 a Hilbert
serialization covers an axis spread below 2^19 cells (52 km at the default
0.1 m cell), a Morton one below 2^21 cells (210 km).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import RangeError
from .geometry import DirVec

__all__ = [
    "GridCoord",
    "CURVE_KINDS",
    "SerializationOrder",
    "grid_encode",
    "grid_encode_batch",
    "curve_index",
    "curve_index_batch",
    "sort_tokens",
    "DEFAULT_GRID_G",
    "DEFAULT_GRID_R",
    "DEFAULT_ORDER",
]

CURVE_KINDS = ("z", "z-trans", "hilbert", "hilbert-trans")

DEFAULT_GRID_G = 0.1
DEFAULT_GRID_R = 16
DEFAULT_ORDER = 16
# the largest order whose 3-axis key fits in uint64 (63 bits)
_MAX_KEY_ORDER = 21

_TWO_PI = 2.0 * math.pi
_INT64_MAX = 2**63 - 1


class GridCoord(NamedTuple):
    """Integer grid cell: planar cell (x, y) plus heading sector r."""

    x: int
    y: int
    r: int


@dataclass(frozen=True)
class SerializationOrder:
    """A serialization permutation; its inverse is derived on first use.

    ``perm[i]`` is the original index of the token in serialized slot i;
    ``inv[j]`` is the serialized slot of original token j, so
    ``perm[inv[j]] == j``.
    """

    perm: np.ndarray

    @cached_property
    def inv(self) -> np.ndarray:
        inv = np.empty_like(self.perm)
        inv[self.perm] = np.arange(len(self.perm), dtype=self.perm.dtype)
        return inv


def grid_encode(v: DirVec, g: float = DEFAULT_GRID_G, R: int = DEFAULT_GRID_R) -> GridCoord:
    """Quantize one vector to its grid cell (`grid_encode_batch` of one)."""
    return GridCoord(*grid_encode_batch([v.as_tuple()], g, R)[0].tolist())


def grid_encode_batch(features, g: float = DEFAULT_GRID_G, R: int = DEFAULT_GRID_R) -> np.ndarray:
    """Quantize many vectors at once; returns an (N, 3) int64 array.

    `features` holds one row per vector, `DirVec.as_tuple()`: an (N, 5)
    array or a sequence of such rows. A cell index that does not fit int64
    raises RangeError naming the cell size or the sector count.
    """
    if g <= 0.0:
        raise RangeError(f"cell size must be positive, got {g}")
    if not 1 <= R <= _INT64_MAX:
        raise RangeError(f"sector count must be in [1, {_INT64_MAX}], got {R}")
    if len(features) == 0:
        return np.zeros((0, 3), dtype=np.int64)
    a = np.asarray(features, dtype=np.float64)
    x = np.floor((a[:, 0] + a[:, 2]) / (2.0 * g))
    y = np.floor((a[:, 1] + a[:, 3]) / (2.0 * g))
    r = np.mod(a[:, 4], _TWO_PI) // (_TWO_PI / R)
    # a float below 2^63 in magnitude casts to int64 exactly; NaN fails too
    fits = [-(2.0**63) < c.min() and c.max() < 2.0**63 for c in (x, y, r)]
    if not all(fits):
        name, value = ("cell size", g) if not all(fits[:2]) else ("sector count", R)
        raise RangeError(f"{name} {value} puts a grid cell outside the int64 range")
    out = np.stack([x, y, r], axis=1).astype(np.int64)
    np.minimum(out[:, 2], R - 1, out=out[:, 2])
    return out


# ---------------------------------------------------------------------------
# curve linearization
#
# All kernels work on a (3, N) uint64 axes matrix where row 0 is the least
# significant Morton axis (and the leading Hilbert axis). The `-trans` kinds
# feed the rows in (r, y, x) order instead of (x, y, r).


def _check_order(order: int):
    if order < 1 or order > 20:
        raise RangeError(f"order must be in [1, 20], got {order}")


def _check_range(axes: np.ndarray, order: int):
    _check_order(order)
    lim = 1 << order
    if axes.size and (axes.min() < 0 or axes.max() >= lim):
        bad = axes.min() if axes.min() < 0 else axes.max()
        raise RangeError(f"coordinate {int(bad)} outside [0, {lim}) at order {order}")


def _morton(axes: np.ndarray, order: int) -> np.ndarray:
    # axes: (3, N) non-negative int64; row 0 least significant
    out = np.zeros(axes.shape[1], dtype=np.uint64)
    a = axes.astype(np.uint64)
    for bit in range(order):
        for axis in range(3):
            out |= ((a[axis] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(3 * bit + axis)
    return out


def _hilbert_transpose(axes: np.ndarray, order: int) -> np.ndarray:
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


def _hilbert(axes: np.ndarray, order: int) -> np.ndarray:
    x = _hilbert_transpose(axes, order)
    # interleave transposed bits, axis 0 most significant within each group
    out = np.zeros(axes.shape[1], dtype=np.uint64)
    n = x.shape[0]
    for bit in range(order - 1, -1, -1):
        for axis in range(n):
            out = (out << np.uint64(1)) | ((x[axis] >> np.uint64(bit)) & np.uint64(1))
    return out


def _axes_matrix(coords: np.ndarray, kind: str) -> np.ndarray:
    if kind in ("z", "hilbert"):
        return coords.T
    if kind in ("z-trans", "hilbert-trans"):
        return coords[:, ::-1].T
    raise RangeError(f"unknown curve kind {kind!r}; expected one of {CURVE_KINDS}")


def curve_index_batch(coords: np.ndarray, kind: str, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Curve index for an (N, 3) array of non-negative (x, y, r) cells."""
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise RangeError(f"expected an (N, 3) coordinate array, got shape {coords.shape}")
    axes = _axes_matrix(coords, kind)
    _check_range(axes, order)
    return _keys(axes, kind, order)


def _key_order(spread: int, kind: str, order: int) -> int:
    """The lowest order whose keys equal the keys at `order` and cover `spread` (see the module notes)."""
    bits = spread.bit_length()
    if kind.startswith("z"):
        key_order, most = bits, _MAX_KEY_ORDER
    else:
        # a Hilbert key keeps its value only in steps of 3 orders, and needs at least 1
        key_order = order + 3 * -((order - max(bits, 1)) // 3)
        most = order + 3 * ((_MAX_KEY_ORDER - order) // 3)
    if key_order > most:
        raise RangeError(
            f"coordinate spread {spread} needs {bits} bits per axis; a {kind} key from order "
            f"{order} holds at most {most} in uint64 (spread below {1 << most})"
        )
    return key_order


def _keys(axes: np.ndarray, kind: str, order: int) -> np.ndarray:
    """Keys of non-negative axes as at `order`, computed at `_key_order`."""
    key_order = _key_order(int(axes.max()) if axes.size else 0, kind, order)
    if kind.startswith("z"):
        return _morton(axes, key_order)
    return _hilbert(axes, key_order)


def curve_index(coord: GridCoord, kind: str, order: int = DEFAULT_ORDER) -> int:
    """Curve index of a single non-negative grid cell."""
    arr = np.array([[coord[0], coord[1], coord[2]]], dtype=np.int64)
    return int(curve_index_batch(arr, kind, order)[0])


def sort_tokens(coords, kind: str, order: int = DEFAULT_ORDER) -> SerializationOrder:
    """Serialization permutation of tokens by curve index.

    Coordinates are offset by the per-call minimum on each axis before
    indexing, so negative cells are fine. When an axis spread needs more than
    ``order`` bits, the order is raised until it covers the spread, which
    leaves every key that already fitted unchanged (see the module notes):
    in steps of 3 for the Hilbert kinds, to the spread's bit length for the
    Morton kinds, and at most to order 21, the largest whose key fits in
    uint64; a wider spread raises RangeError naming the spread and the limit.
    Equal keys keep original order (stable sort), making the permutation a
    bijection with a deterministic tie-break.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.size == 0:
        return SerializationOrder(perm=np.zeros(0, dtype=np.int64))
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise RangeError(f"expected an (N, 3) coordinate array, got shape {coords.shape}")
    axes = _axes_matrix(coords - coords.min(axis=0, keepdims=True), kind)
    _check_order(order)
    keys = _keys(axes, kind, order)
    return SerializationOrder(perm=np.argsort(keys, kind="stable").astype(np.int64))

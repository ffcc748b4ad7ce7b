"""Row-stochastic association matrix container."""

from __future__ import annotations

import numpy as np
import pytest

from mapassoc.assocmatrix import ROW_SUM_TOL, AssocMatrix
from mapassoc.errors import ConfigError, LabelError


def amat(rows, cl_ids=(0, 1), road_ids=(0, 1)):
    return AssocMatrix(probs=np.asarray(rows, dtype=np.float32), centerline_ids=cl_ids, road_ids=road_ids)


def test_valid_matrix_and_accessors():
    m = amat([[0.25, 0.75], [1.0, 0.0]], cl_ids=(3, 9), road_ids=(2, 5))
    assert m.n_centerlines == 2
    assert m.n_roads == 2
    np.testing.assert_array_equal(m.rows_for([9])[0], [1.0, 0.0])
    np.testing.assert_array_equal(m.rows_for([9, 3]), [[1.0, 0.0], [0.25, 0.75]])


def test_row_lookups_accept_numpy_ids():
    m = amat([[0.25, 0.75], [1.0, 0.0]], cl_ids=(3, 9), road_ids=(2, 5))
    for _ in range(2):  # the id index is built on first use and then reused
        np.testing.assert_array_equal(m.rows_for([np.int64(3)])[0], [0.25, 0.75])
        np.testing.assert_array_equal(m.rows_for(np.array([9, 3])), [[1.0, 0.0], [0.25, 0.75]])


def test_ids_must_ascend():
    with pytest.raises(ConfigError, match="centerline ids"):
        amat([[1.0], [1.0]], cl_ids=(2, 1), road_ids=(0,))
    with pytest.raises(ConfigError, match="road ids"):
        amat([[0.5, 0.5]], cl_ids=(0,), road_ids=(4, 4))


def test_shape_must_match_ids():
    with pytest.raises(ConfigError, match="shape"):
        amat([[0.5, 0.5]], cl_ids=(0, 1), road_ids=(0, 1))


def test_rows_must_be_stochastic():
    with pytest.raises(ConfigError, match="row sums"):
        amat([[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ConfigError, match="finite"):
        amat([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ConfigError, match=r"\[0, 1\]"):
        amat([[1.5, -0.5], [0.5, 0.5]])


def test_row_sum_tolerance_is_loose_enough_for_float32():
    row = np.full(7, 1.0 / 7.0, dtype=np.float32)
    m = AssocMatrix(probs=np.tile(row, (2, 1)), centerline_ids=(0, 1), road_ids=tuple(range(7)))
    assert abs(float(m.probs.astype(np.float64).sum(axis=1)[0]) - 1.0) <= ROW_SUM_TOL


def test_missing_row_raises():
    m = amat([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(LabelError, match="centerline 7"):
        m.row_indices([7])
    with pytest.raises(LabelError, match="centerline 7"):
        m.rows_for([0, 7])


def test_argmax_association_breaks_ties_low():
    m = amat([[0.5, 0.5], [0.1, 0.9]], cl_ids=(10, 11), road_ids=(3, 8))
    assoc = m.argmax_association()
    assert assoc.labels == {10: 3, 11: 8}
    assert assoc.meta == {"method": "argmax"}


def test_argmax_without_roads_raises():
    m = AssocMatrix(probs=np.zeros((0, 0), dtype=np.float32), centerline_ids=(), road_ids=())
    with pytest.raises(LabelError):
        m.argmax_association()

import pytest

import linalg_oracle as linalg
from glhecke.scalars import Scalar
from linalg_oracle import Q

M = linalg.lift


def test_mat_mul_and_identity():
    a = M([[1, 2], [3, 4]])
    assert linalg.mat_mul(a, linalg.identity(2)) == a
    b = M([[0, 1], [1, 0]])
    assert linalg.mat_mul(a, b) == M([[2, 1], [4, 3]])


def test_rref_and_rank():
    a = M([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = linalg.rref(a)
    assert pivots == [0, 1]


def test_nullspace_is_exact():
    a = M([[1, 2, 3], [2, 4, 6]])
    basis = linalg.nullspace(a)
    assert len(basis) == 2
    for v in basis:
        for row in a:
            assert sum((x * y for x, y in zip(row, v)), Scalar(0)) == Scalar(0)


def test_nullspace_gaussian_entries():
    i = Q(0, 1)
    a = [[Q(1), i]]
    (v,) = linalg.nullspace(a)
    assert v[0] + i * v[1] == Scalar(0)
    assert any(v)


def test_solve_columns():
    a = M([[1, 1], [0, 1], [2, 0]])
    x = M([[5], [7]])
    b = linalg.mat_mul(a, x)
    assert linalg.solve_columns(a, b) == x
    with pytest.raises(ValueError):
        linalg.solve_columns(a, M([[1], [0], [0]]))

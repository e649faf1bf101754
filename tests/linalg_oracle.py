"""Dense exact linear algebra over Gaussian rationals, for test oracles.

Matrices are lists of row lists of :class:`~glhecke.scalars.Scalar`:
multiplication, row reduction, nullspace and column-space solving.  The
Scalar intertwiner and quotient oracles in ``test_heckemod.py`` run on it;
the library solves the same systems on integers.  Everything is exact; no
pivoting heuristics are required over an exact field.
"""

from __future__ import annotations

from glhecke.scalars import Scalar

__all__ = [
    "identity",
    "zeros",
    "mat_mul",
    "rref",
    "nullspace",
    "solve_columns",
]

Matrix = "list[list[Scalar]]"

_ZERO = Scalar(0)
_ONE = Scalar(1)


def identity(n: int):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int):
    return [[_ZERO] * cols for _ in range(rows)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai, oi = a[i], out[i]
        for t in range(inner):
            x = ai[t]
            if not x:
                continue
            bt = b[t]
            for j in range(cols):
                if bt[j]:
                    oi[j] = oi[j] + x * bt[j]
    return out


def rref(a) -> tuple[list, list[int]]:
    """Reduced row echelon form (a copy) plus the pivot column indices."""
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _ONE / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a) -> list[list[Scalar]]:
    """Basis of the right nullspace {x : a x = 0}, one vector per free column."""
    if not a:
        return []
    m, pivots = rref(a)
    cols = len(a[0])
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve_columns(a, b):
    """Solve a X = b column by column; requires every column of b to lie in
    the column space of a.  Returns X or raises ValueError."""
    rows = len(a)
    cols_a = len(a[0]) if rows else 0
    cols_b = len(b[0]) if b else 0
    aug = [list(a[i]) + list(b[i]) for i in range(rows)]
    m, pivots = rref(aug)
    if any(p >= cols_a for p in pivots):
        raise ValueError("right-hand side not in the column space")
    x = zeros(cols_a, cols_b)
    for r, pc in enumerate(pivots):
        for j in range(cols_b):
            x[pc][j] = m[r][cols_a + j]
    return x

"""Dense exact linear algebra over Gaussian rationals, for test oracles.

:class:`Q` is the field of Gaussian rationals: a
:class:`~glhecke.scalars.Scalar` with exact arithmetic, which the library's
Scalar does not have.  An oracle lifts each library value at its boundary
with ``Q(x.re, x.im)``.  Matrices are lists of row lists of Scalars:
multiplication, row reduction, nullspace and column-space solving, each
returning Q entries.  The Scalar intertwiner and quotient oracles in
``test_heckemod.py`` run on it; the library solves the same systems on
integers, and :func:`scalar_generators` reads a module's integer operators
back as Scalar matrices for them.  Everything is exact; no pivoting
heuristics are required over an exact field.

:func:`quotient_relations_hold` is the dense check of a quotient's integer
matrices, which the library certifies instead (DECISIONS.md).
"""

from __future__ import annotations

import itertools

import numpy as np

from glhecke.heckemod import (
    StandardModule,
    _apply_eps,
    _compact_operators,
    _int_dtype,
    _scalar_matrix,
)
from glhecke.scalars import Scalar

__all__ = [
    "Q",
    "q",
    "lift",
    "identity",
    "zeros",
    "mat_mul",
    "rref",
    "nullspace",
    "solve_columns",
    "scalar_generators",
    "quotient_relations_hold",
]

Matrix = "list[list[Scalar]]"


class Q(Scalar):
    """A Gaussian rational with exact field arithmetic; an int, Fraction or
    Scalar operand is lifted to Q."""

    __slots__ = ()

    def __add__(self, other):
        other = q(other)
        return Q(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = q(other)
        return Q(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return q(other) - self

    def __mul__(self, other):
        other = q(other)
        return Q(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return Q(-self.re, -self.im)

    def __truediv__(self, other):
        other = q(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Q(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return q(other) / self


def q(x) -> Q:
    """Lift an int, Fraction or Scalar to Q."""
    if isinstance(x, Q):
        return x
    if isinstance(x, Scalar):
        return Q(x.re, x.im)
    return Q(x)


def lift(a) -> list[list[Q]]:
    """The matrix a with every entry lifted to Q."""
    return [[q(x) for x in row] for row in a]


_ZERO = Q(0)
_ONE = Q(1)


def identity(n: int):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int):
    return [[_ZERO] * cols for _ in range(rows)]


def mat_mul(a, b):
    a, b = lift(a), lift(b)
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
    m = lift(a)
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
    aug = [list(a[i]) + list(b[i]) for i in range(rows)]  # rref lifts it
    m, pivots = rref(aug)
    if any(p >= cols_a for p in pivots):
        raise ValueError("right-hand side not in the column space")
    x = zeros(cols_a, cols_b)
    for r, pc in enumerate(pivots):
        for j in range(cols_b):
            x[pc][j] = m[r][cols_a + j]
    return x


def scalar_generators(module):
    """The dense row-major Scalar matrices ``(gen_s, gen_eps)`` of a module:
    a StandardModule's :func:`_compact_operators` applied to the identity, or
    a QuotientModule's ``s``/``eps`` over its ``scale``."""
    if not isinstance(module, StandardModule):
        return tuple(
            [_scalar_matrix(a, module.scale, module.gaussian) for a in gens]
            for gens in (module.s, module.eps)
        )
    s_ops, eps_ops, scale, gaussian = _compact_operators(module, 1)
    eye = np.eye(len(eps_ops[0][0]), dtype=eps_ops[0][0].dtype)
    return (
        [_scalar_matrix(eye[:, t] * sg, 1, gaussian) for t, sg in s_ops],
        [_scalar_matrix(_apply_eps(*op, eye), scale, gaussian) for op in eps_ops],
    )


def _relations_hold(s, eps, ident) -> bool:
    """Every defining relation on the dense integer images ``s``/``eps`` of
    the generators; ``ident`` is the image of s_i * s_i and of the
    commutator's right-hand side 1."""
    k = len(eps)
    pairs = itertools.chain(
        ((s[i] @ s[i], ident) for i in range(k - 1)),
        ((s[i] @ s[i + 1] @ s[i], s[i + 1] @ s[i] @ s[i + 1]) for i in range(k - 2)),
        ((s[i] @ s[j], s[j] @ s[i]) for i in range(k - 1) for j in range(i + 2, k - 1)),
        ((eps[a] @ eps[b], eps[b] @ eps[a]) for a in range(k) for b in range(a + 1, k)),
        # s_i eps_j - eps_{s_i(j)} s_i = c with c = <alpha_i, e_j>, s_i(j) = j + c
        (
            (s[i] @ eps[j] - eps[j + c] @ s[i], c * ident)
            for i, j in itertools.product(range(k - 1), range(k))
            for c in [(j == i) - (j == i + 1)]
        ),
    )
    return all(np.array_equal(x, y) for x, y in pairs)


def quotient_relations_hold(module) -> bool:
    """Every defining relation of a QuotientModule by dense products of its
    integer matrices ``s``/``eps``, each its scale times a generator, cast
    to a dtype that holds products of three."""
    mats = module.s + module.eps
    bound = max(module.scale, *(int(abs(a).max()) for a in mats))
    dtype = _int_dtype(bound, len(mats[0]), False, 3)
    s, eps = ([a.astype(dtype) for a in gens] for gens in (module.s, module.eps))
    # s_i * s_i and the commutator relation are products of two scaled factors
    ident = module.scale**2 * np.eye(len(eps[0]), dtype=dtype)
    return _relations_hold(s, eps, ident)

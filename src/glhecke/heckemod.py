"""Explicit induced modules for the graded Hecke algebra of gl(k).

The algebra is generated by the group algebra of S_k (simple transpositions
``s_0 .. s_{k-2}``) and a commuting family ``eps_0 .. eps_{k-1}``, subject to

    s_i * eps - s_i(eps) * s_i = <alpha_i, eps>,      alpha_i = e_i - e_{i+1}.

A multisegment with block lengths (L_1, ..., L_r) determines a
one-dimensional module for the block-parabolic subalgebra: the Young
subgroup acts by sign and ``eps_t`` acts by the t-th central-character
coordinate.  Inducing up gives a module of dimension k!/prod(L_i!) with
basis indexed by block-increasing permutations; the symmetric group acts by
signed place permutations and the polynomial generators act through the
defining relation pushed along reduced words.  All matrices are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .multisegments import (
    Multisegment,
    central_character,
    is_dominant_ms,
    multisegment_to_json,
)
from .scalars import Scalar, scalar_str

__all__ = [
    "RootDatum",
    "StandardModule",
    "QuotientModule",
    "build_standard_module",
    "verify_relations",
    "central_character_of_module",
    "intertwiner_space",
    "irreducible_quotient",
    "reversed_ordering",
    "sign_isotypic_multiplicity",
    "module_to_json",
]

_INT64_LIMIT = 1 << 62


@dataclass(frozen=True)
class RootDatum:
    """Coordinates for gl(k): simple roots e_i - e_{i+1} and the usual rho."""

    k: int

    def alpha(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.k - 1:
            raise IndexError(f"alpha index {i} out of range for k={self.k}")
        v = [0] * self.k
        v[i], v[i + 1] = 1, -1
        return tuple(v)

    def rho(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(Fraction(self.k - 1 - 2 * j, 2)) for j in range(self.k))

    def pairing(self, i: int, j: int) -> int:
        """<alpha_i, e_j> under the dot product."""
        return (1 if j == i else 0) - (1 if j == i + 1 else 0)


def _inversions(w: tuple[int, ...]) -> int:
    return sum(1 for p in range(len(w)) for q in range(p + 1, len(w)) if w[p] > w[q])


def _coset_reps(blocks: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Block-increasing permutations: the minimal-length representatives of
    S_k modulo the Young subgroup of consecutive blocks."""
    k = sum(blocks)
    reps: list[tuple[int, ...]] = []

    def rec(remaining: tuple[int, ...], acc: tuple[int, ...], bi: int):
        if bi == len(blocks):
            reps.append(acc)
            return
        for chosen in itertools.combinations(remaining, blocks[bi]):
            left = tuple(v for v in remaining if v not in chosen)
            rec(left, acc + chosen, bi + 1)

    rec(tuple(range(k)), (), 0)
    reps.sort(key=lambda w: (_inversions(w), w))
    return reps


@dataclass
class StandardModule:
    """Induced module with exact generator matrices.

    ``gen_s[i]`` and ``gen_eps[j]`` are dim x dim row-major matrices over
    Scalar; ``basis`` lists the block-increasing permutations indexing the
    coordinates, identity first.
    """

    ms: Multisegment
    k: int
    blocks: tuple[int, ...]
    dim: int
    basis: list[tuple[int, ...]]
    gen_s: list[list[list[Scalar]]]
    gen_eps: list[list[list[Scalar]]]
    # signed place-permutation tables: s_table[i][b] = (target index, sign)
    s_table: list[list[tuple[int, int]]]

    def weight(self) -> tuple[Scalar, ...]:
        return central_character(self.ms)


def build_standard_module(ms: Multisegment) -> StandardModule:
    """Construct the induced module attached to an ordered multisegment.

    The ordering of ``ms`` is respected (dominance is *not* required); the
    inducing weight is its central character.
    """
    blocks = tuple(s.length for s in ms.segments)
    k = sum(blocks)
    if k == 0:
        raise ValueError("cannot build a module from an empty multisegment")
    chi = central_character(ms)
    basis = _coset_reps(blocks)
    dim = len(basis)
    assert dim == math.factorial(k) // math.prod(math.factorial(L) for L in blocks)
    index = {w: b for b, w in enumerate(basis)}

    block_of = []
    for bi, L in enumerate(blocks):
        block_of.extend([bi] * L)

    s_table: list[list[tuple[int, int]]] = []
    for i in range(k - 1):
        table = []
        for w in basis:
            pa, pb = w.index(i), w.index(i + 1)
            if block_of[pa] == block_of[pb]:
                table.append((index[w], -1))
            else:
                u = list(w)
                u[pa], u[pb] = i + 1, i
                table.append((index[tuple(u)], 1))
        s_table.append(table)

    zero, one = Scalar(0), Scalar(1)

    # eps columns by induction on length: strip a left descent s_i off w and
    # use  eps_j s_i = s_i eps_{s_i(j)} + <alpha_i, eps_j>.
    cols: list[list[list[Scalar]]] = [[None] * dim for _ in range(k)]  # type: ignore
    for j in range(k):
        col0 = [zero] * dim
        col0[0] = chi[j]
        cols[j][0] = col0
    for b in range(1, dim):
        w = basis[b]
        i = next(v for v in range(k - 1) if w.index(v) > w.index(v + 1))
        u = list(w)
        pa, pb = w.index(i), w.index(i + 1)
        u[pa], u[pb] = i + 1, i
        b2 = index[tuple(u)]
        assert b2 < b
        table = s_table[i]
        for j in range(k):
            jj = i + 1 if j == i else (i if j == i + 1 else j)
            parent = cols[jj][b2]
            vec = [zero] * dim
            for t in range(dim):
                x = parent[t]
                if x:
                    tgt, sg = table[t]
                    vec[tgt] = x if sg == 1 else -x
            c = (1 if j == i else 0) - (1 if j == i + 1 else 0)
            if c:
                vec[b2] = vec[b2] + c
            cols[j][b] = vec

    gen_eps = [[[cols[j][b][r] for b in range(dim)] for r in range(dim)] for j in range(k)]
    gen_s = []
    for i in range(k - 1):
        m = linalg.zeros(dim, dim)
        for b, (tgt, sg) in enumerate(s_table[i]):
            m[tgt][b] = one if sg == 1 else -one
        gen_s.append(m)

    return StandardModule(
        ms=ms,
        k=k,
        blocks=blocks,
        dim=dim,
        basis=basis,
        gen_s=gen_s,
        gen_eps=gen_eps,
        s_table=s_table,
    )


# -- exact matrix verification ------------------------------------------------
#
# Every identity is checked on integer numpy arrays.  Scalar matrices are
# rescaled by the common denominator of all real and imaginary parts; if any
# entry is non-real, each Gaussian integer a+bi becomes the 2x2 block
# [[a, -b], [b, a]].  That map is an injective ring homomorphism, so an
# identity holds after it exactly when it held before.  Arrays are int64 when
# a conservative bound fits and Python-int object arrays otherwise.


_I_BLOCK = np.array([[0, -1], [1, 0]])  # the 2x2 block of the imaginary unit


def _embed(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The integer matrix re + i*im with each entry a+bi as [[a, -b], [b, a]]."""
    return np.kron(re, np.eye(2, dtype=int)) + np.kron(im, _I_BLOCK)


def _integer_arrays(mats, max_chain: int) -> tuple[list[np.ndarray], int, bool]:
    """Integer images of square Scalar matrices of one size, the common
    scale, and whether entries were embedded as 2x2 blocks.

    The dtype is int64 when sums of up to 2**max_chain products of
    ``max_chain`` factors provably stay inside int64.
    """
    gaussian = any(x.im.numerator for m in mats for row in m for x in row)
    scale = math.lcm(
        *{x.re.denominator for m in mats for row in m for x in row},
        *({x.im.denominator for m in mats for row in m for x in row} if gaussian else ()),
    )

    def ints(m) -> list[int]:
        """Scaled real parts, then imaginary parts when some entry is non-real."""
        parts = [x.re for row in m for x in row]
        if gaussian:
            parts += [x.im for row in m for x in row]
        return [f.numerator * (scale // f.denominator) for f in parts]

    data = [ints(m) for m in mats]

    n = len(mats[0])
    bound = max(1, *(max(map(abs, d)) for d in data))
    chain_bound = bound * ((2 if gaussian else 1) * n * bound) ** (max_chain - 1)
    # sums of up to 2**max_chain such products may appear (symmetric
    # polynomial accumulation), so keep that margin inside int64
    dtype = np.int64 if chain_bound << max_chain < _INT64_LIMIT else object
    arrays = [np.array(d, dtype=dtype).reshape(-1, n, n) for d in data]
    return [_embed(*a) if gaussian else a[0] for a in arrays], scale, gaussian


def _scalar_identity(c: Scalar, like: np.ndarray, gaussian: bool):
    """c * I in the form :func:`_integer_arrays` gives ``like``, or None when
    no matrix of that form equals c * I (c not a Gaussian integer, or
    non-real while ``gaussian`` is false); ``np.array_equal`` is then False.
    """
    if c.re.denominator != 1 or c.im.denominator != 1 or (c.im and not gaussian):
        return None
    eye = np.eye(len(like) // 2 if gaussian else len(like), dtype=like.dtype)
    return _embed(int(c.re) * eye, int(c.im) * eye) if gaussian else int(c.re) * eye


def verify_relations(module_or_mats, gen_eps=None, k: "int | None" = None) -> bool:
    """Exact check of all defining relations as matrix identities.

    Accepts a :class:`StandardModule` (or anything with ``gen_s``/``gen_eps``)
    or an explicit pair of matrix lists.
    """
    if gen_eps is None:
        gen_s = module_or_mats.gen_s
        gen_eps = module_or_mats.gen_eps
    else:
        gen_s = module_or_mats
    k = len(gen_eps) if k is None else k
    arrs, scale, gaussian = _integer_arrays(gen_s + gen_eps, max_chain=3)
    s, eps = arrs[: len(gen_s)], arrs[len(gen_s) :]
    # s_i * s_i and the commutator relation are products of two scaled factors
    ident = _scalar_identity(Scalar(scale**2), arrs[0], gaussian)
    for i in range(k - 1):
        if not np.array_equal(s[i] @ s[i], ident):
            return False
    for i in range(k - 2):
        if not np.array_equal(s[i] @ s[i + 1] @ s[i], s[i + 1] @ s[i] @ s[i + 1]):
            return False
    for i in range(k - 1):
        for j in range(i + 2, k - 1):
            if not np.array_equal(s[i] @ s[j], s[j] @ s[i]):
                return False
    for a in range(k):
        for b in range(a + 1, k):
            if not np.array_equal(eps[a] @ eps[b], eps[b] @ eps[a]):
                return False
    for i in range(k - 1):
        for j in range(k):
            jj = i + 1 if j == i else (i if j == i + 1 else j)
            c = (1 if j == i else 0) - (1 if j == i + 1 else 0)
            if not np.array_equal(s[i] @ eps[j] - eps[jj] @ s[i], c * ident):
                return False
    return True


def central_character_of_module(M: StandardModule) -> tuple[Scalar, ...]:
    """Verify every elementary symmetric polynomial in the eps matrices is
    the expected scalar and return the weight as a sorted multiset.

    Raises ValueError if some symmetric polynomial fails to act by the
    correct scalar (which would indicate a construction bug).
    """
    k = M.k
    chi = M.weight()
    eps, scale, gaussian = _integer_arrays(M.gen_eps, max_chain=k)
    # elementary symmetric values of the weight, exact
    e_chi = [Scalar(1)] + [Scalar(0)] * k
    for t in range(k):
        for d in range(min(t + 1, k), 0, -1):
            e_chi[d] = e_chi[d] + e_chi[d - 1] * chi[t]

    # prefix DP over matrices: E[d] after t factors
    E = [_scalar_identity(Scalar(1), eps[0], gaussian)] + [np.zeros_like(eps[0])] * k
    for t in range(k):
        for d in range(min(t + 1, k), 0, -1):
            E[d] = E[d] + E[d - 1] @ eps[t]
    for d in range(1, k + 1):
        if not np.array_equal(E[d], _scalar_identity(e_chi[d] * scale**d, eps[0], gaussian)):
            raise ValueError(f"elementary symmetric polynomial {d} is not the expected scalar")

    out = sorted(chi, key=lambda x: (x.re, x.im), reverse=True)
    return tuple(out)


def reversed_ordering(ms: Multisegment) -> Multisegment:
    return Multisegment(tuple(reversed(ms.segments)))


def intertwiner_space(
    ms_from: Multisegment, ms_to: Multisegment
) -> tuple[int, list[list[list[Scalar]]]]:
    """Dimension and basis of the space of module maps between the induced
    modules of two orderings of the same segment multiset.

    Each basis element is a (dim_to x dim_from) matrix T with
    T rho_from(g) = rho_to(g) T for every generator g.

    The source is induced from a one-dimensional module of the parabolic
    subalgebra, so by Frobenius reciprocity a module map is fixed by the
    image u of the generator (basis vector 0), and u may be any vector of
    the target on which the source's Young subgroup acts by sign and each
    eps_j by the source weight chi_j.  The space is the nullspace of that
    system in dim_to unknowns; each T then follows column by column, since
    every other source basis vector is s_i times an earlier one.
    """
    if sorted(map(str, ms_from.segments)) != sorted(map(str, ms_to.segments)):
        raise ValueError("intertwiner endpoints must share the same segment multiset")
    m1 = build_standard_module(ms_from)
    m2 = build_standard_module(ms_to)
    d2 = m2.dim
    eye = linalg.identity(d2)
    rows: list[list[Scalar]] = []
    for i, g in enumerate(m2.gen_s):
        if m1.s_table[i][0] == (0, -1):  # s_i lies inside a block of ms_from
            rows.extend([x + e for x, e in zip(gr, er)] for gr, er in zip(g, eye))
    for c, g in zip(m1.weight(), m2.gen_eps):
        rows.extend([x - c * e for x, e in zip(gr, er)] for gr, er in zip(g, eye))

    # e_b = s_i e_b2 with b2 < b for some i, so column b is s_i of column b2
    steps = []
    for b in range(1, m1.dim):
        i = next(i for i, t in enumerate(m1.s_table) if t[b][1] == 1 and t[b][0] < b)
        steps.append((m2.s_table[i], m1.s_table[i][b][0]))
    mats = []
    for u in linalg.nullspace(rows):
        cols = [u]
        for table, b2 in steps:
            col = [Scalar(0)] * d2
            for x, (tgt, sg) in zip(cols[b2], table):
                col[tgt] = x if sg == 1 else -x
            cols.append(col)
        mats.append([list(row) for row in zip(*cols)])
    return len(mats), mats


@dataclass
class QuotientModule:
    ms: Multisegment
    dim: int
    gen_s: list[list[list[Scalar]]]
    gen_eps: list[list[list[Scalar]]]


def irreducible_quotient(ms: Multisegment) -> QuotientModule:
    """Unique irreducible quotient of the induced module of a dominant
    ordering, realized as the image of the intertwiner to the reversed
    ordering.

    The intertwiner space must be one-dimensional; anything else raises,
    surfacing the failed assumption instead of hiding it.
    """
    if not is_dominant_ms(ms):
        raise ValueError("irreducible_quotient requires a dominant ordering")
    rev = reversed_ordering(ms)
    dim_space, mats = intertwiner_space(ms, rev)
    if dim_space != 1:
        raise RuntimeError(
            f"intertwiner space has dimension {dim_space}, expected 1; "
            "cannot isolate the quotient"
        )
    T = mats[0]
    m2 = build_standard_module(rev)
    _, pivots = linalg.rref(T)
    image = [[T[r][c] for c in pivots] for r in range(m2.dim)]
    quotient_dim = len(pivots)
    # one reduction for all 2k-1 right-hand sides g*image, side by side
    gens = m2.gen_s + m2.gen_eps
    products = [linalg.mat_mul(g, image) for g in gens]
    x = linalg.solve_columns(image, [sum(rows, []) for rows in zip(*products)])
    gen_q = [
        [row[t * quotient_dim : (t + 1) * quotient_dim] for row in x] for t in range(len(gens))
    ]
    q = QuotientModule(
        ms=ms, dim=quotient_dim, gen_s=gen_q[: len(m2.gen_s)], gen_eps=gen_q[len(m2.gen_s) :]
    )
    if not verify_relations(q.gen_s, q.gen_eps, k=len(q.gen_eps)):
        raise RuntimeError("quotient matrices fail the defining relations")
    return q


def _young_elements(blocks: tuple[int, ...]):
    """All permutations in the Young subgroup, as (parity, word) pairs with
    the word a list of simple-transposition indices."""
    offsets = []
    start = 0
    for L in blocks:
        offsets.append((start, L))
        start += L

    def block_perms(start: int, L: int):
        for p in itertools.permutations(range(L)):
            # bubble-sort word for the block permutation, shifted by start
            arr = list(p)
            word = []
            for a in range(L):
                for b in range(L - 1 - a):
                    if arr[b] > arr[b + 1]:
                        arr[b], arr[b + 1] = arr[b + 1], arr[b]
                        word.append(start + b)
            yield (-1) ** len(word), word

    for combo in itertools.product(*(block_perms(st, L) for st, L in offsets)):
        parity = 1
        word: list[int] = []
        for pr, wd in combo:
            parity *= pr
            word.extend(wd)
        yield parity, word


def sign_isotypic_multiplicity(M: StandardModule) -> int:
    """Multiplicity of the sign character of the block Young subgroup in the
    restriction of the module to that subgroup (character inner product)."""
    total = 0
    count = 0
    for parity, word in _young_elements(M.blocks):
        count += 1
        # image of each basis vector under the composed signed permutation
        perm = list(range(M.dim))
        sign = [1] * M.dim
        for i in reversed(word):
            table = M.s_table[i]
            for b in range(M.dim):
                tgt, sg = table[perm[b]]
                perm[b] = tgt
                sign[b] *= sg
        trace = sum(sg for b, (p, sg) in enumerate(zip(perm, sign)) if p == b)
        total += parity * trace
    assert total % count == 0
    return total // count


def module_to_json(module) -> dict:
    """Row-major dump of a module's generator matrices as scalar strings."""

    def mat(m):
        return [scalar_str(x) for row in m for x in row]

    return {
        "param": multisegment_to_json(module.ms),
        "dim": module.dim,
        "s": [mat(m) for m in module.gen_s],
        "eps": [mat(m) for m in module.gen_eps],
    }

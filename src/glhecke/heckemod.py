"""Explicit induced modules for the graded Hecke algebra of gl(k).

The algebra is generated by the group algebra of S_k (simple transpositions
``s_0 .. s_{k-2}``) and a commuting family ``eps_0 .. eps_{k-1}``, subject to

    s_i * eps - s_i(eps) * s_i = <alpha_i, eps>,      alpha_i = e_i - e_{i+1}.

A multisegment with block lengths (L_1, ..., L_r) determines a
one-dimensional module for the block-parabolic subalgebra: the Young
subgroup acts by sign and ``eps_t`` acts by the t-th central-character
coordinate ``chi_t``.  Inducing up gives a module of dimension k!/prod(L_i!)
with basis the block-increasing permutations ``w_b`` in length order; the
symmetric group acts by signed place permutations and the polynomial
generators act through the defining relation pushed along reduced words.

In this basis every ``eps_j = D_j + N_j`` (Lusztig, JAMS 1989): ``D_j`` is
diagonal with ``D_j[b, b] = chi[w_b.index(j)]`` and ``N_j`` is a strictly
upper triangular integer matrix that depends only on the block composition.
Modules are stored in that compact form; the integer data of a composition
is built once, memoised for the 64 most recently used compositions (every
composition of k <= 6 fits) and read-only.  All checks are exact, and
:func:`module_to_json` prints the integer matrices straight as strings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .multisegments import (
    Multisegment,
    central_character,
    is_dominant_ms,
    multisegment_to_json,
)
from .scalars import Scalar, rat_str, scalar_sort_key

__all__ = [
    "StandardModule",
    "QuotientModule",
    "build_standard_module",
    "verify_relations",
    "central_character_of_module",
    "intertwiner_space",
    "irreducible_quotient",
    "reversed_ordering",
    "module_to_json",
]

_INT64_LIMIT = 1 << 62


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


def _frozen(values, shape) -> np.ndarray:
    a = np.array(values, dtype=np.int64).reshape(shape)
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=64)
def _composition(blocks: tuple[int, ...]):
    """Dimension, signed place-permutation tables, diagonal index and the
    layers of every N_j of one block composition (:class:`StandardModule`)."""
    k = sum(blocks)
    basis = tuple(_coset_reps(blocks))
    dim = len(basis)
    index = {w: b for b, w in enumerate(basis)}
    block_of = [bi for bi, L in enumerate(blocks) for _ in range(L)]
    pos = [[w.index(j) for w in basis] for j in range(k)]
    target = [list(range(dim)) for _ in range(k - 1)]
    sign = [[-1] * dim for _ in range(k - 1)]
    for i, (b, w) in itertools.product(range(k - 1), enumerate(basis)):
        pa, pb = pos[i][b], pos[i + 1][b]
        if block_of[pa] != block_of[pb]:
            u = list(w)
            u[pa], u[pb] = i + 1, i
            target[i][b], sign[i][b] = index[tuple(u)], 1

    # N_j column by column, by induction on length: strip a left descent s_i
    # off w_b = s_i w_b2 and use  eps_j s_i = s_i eps_{s_i(j)} + <alpha_i, eps_j>
    # at chi = 0, where only the integer part is left.  Columns are
    # {row: value} dicts.
    cols: list[list[dict]] = [[{}] + [None] * (dim - 1) for _ in range(k)]  # type: ignore
    for b in range(1, dim):
        i = next(v for v in range(k - 1) if pos[v][b] > pos[v + 1][b])
        b2 = target[i][b]
        assert b2 < b
        for j in range(k):
            jj = i + 1 if j == i else (i if j == i + 1 else j)
            vec = {target[i][t]: sign[i][t] * x for t, x in cols[jj][b2].items()}
            c = (j == i) - (j == i + 1)
            if c:
                vec[b2] = vec.get(b2, 0) + c
            cols[j][b] = {r: x for r, x in vec.items() if x}

    nilpotent = []
    for j in range(k):
        # the t-th entry of a row, in column order, goes to layer t
        layers: dict[int, list[tuple[int, int, int]]] = {}
        seen = [0] * dim
        for b, col in enumerate(cols[j]):
            for r, x in col.items():
                layers.setdefault(seen[r], []).append((r, b, x))
                seen[r] += 1
        nilpotent.append(tuple(tuple(_frozen(list(zip(*t)), (3, -1))) for t in layers.values()))
    tables = (_frozen(target, (k - 1, dim)), _frozen(sign, (k - 1, dim)), _frozen(pos, (k, dim)))
    return dim, *tables, tuple(nilpotent)


@dataclass(frozen=True, eq=False)
class StandardModule:
    """Induced module in the compact form ``eps_j = D_j + N_j``.

    Basis vector ``e_b`` stands for the block-increasing permutation
    ``w_b`` (identity first), kept only as ``pos[j, b] = w_b.index(j)``,
    and ``chi`` is the inducing weight.  ``s_i e_b = s_sign[i, b] *
    e_{s_target[i, b]}``; ``D_j[b, b] = chi[pos[j, b]]``; ``nilpotent[j]``
    holds N_j as sparse (COO) layers ``(rows, cols, vals)``, each with
    distinct rows.  These int64 arrays depend only on ``blocks`` and are
    shared, read-only; :func:`module_to_json` prints the dense matrices.
    """

    ms: Multisegment
    k: int
    blocks: tuple[int, ...]
    dim: int
    chi: tuple[Scalar, ...]
    s_target: np.ndarray
    s_sign: np.ndarray
    pos: np.ndarray
    nilpotent: tuple


def build_standard_module(ms: Multisegment) -> StandardModule:
    """Construct the induced module attached to an ordered multisegment.

    The ordering of ``ms`` is respected (dominance is *not* required); the
    inducing weight is its central character.
    """
    blocks = tuple(s.length for s in ms.segments)
    k = sum(blocks)
    if k == 0:
        raise ValueError("cannot build a module from an empty multisegment")
    dim, *tables = _composition(blocks)
    return StandardModule(ms, k, blocks, dim, central_character(ms), *tables)


# -- exact integer arithmetic -------------------------------------------------
#
# Every identity is checked, and every intertwiner and quotient solved, on
# integer numpy arrays and Python ints.  Scalar is a boundary type with no
# arithmetic: the weight is read through its Fraction parts, and Scalar
# matrices are built only for the intertwiner_space basis
# (tests/test_scalars.py::test_hot_paths_do_no_scalar_arithmetic).  Entries
# are rescaled by the common denominator of all real and imaginary parts; if
# any entry is non-real, each Gaussian integer a+bi becomes the 2x2 block
# [[a, -b], [b, a]], an injective ring homomorphism.  Arrays are int64 when
# a conservative bound fits and Python-int object arrays otherwise.
#
# A StandardModule is checked on its compact form.  The S_k relations compose
# the signed tables as permutations of the 2n points +-e_b, so s_a s_b has
# table s_a[s_b].  Every other relation is one sparse identity: terms
# (key, source, coefficient), a key being a relation and an entry, that sum to
# zero per key.  s_i re-indexes the rows or columns of eps = D + N, and a row
# join of all entries gives eps_a eps_b - eps_b eps_a where e_0 does not carry
# it (see _relation_plan).  A source is a D_j[b, b] or the scale, so terms are
# linear in chi and a non-real chi is checked at its real and imaginary parts.
# The terms depend only on the tables: after Gustavson (ACM TOMS 4, 1978)
# they are sorted once per block composition, and a module gathers,
# multiplies and sums.  A quotient is certified from its target's relations
# and its invariance identity (below).
#
# The central character is certified, not multiplied out.  Write f' for a
# polynomial f in the eps_j with eps_i and eps_{i+1} swapped: once the
# relations hold, s_i f - f' s_i = (f - f') / (eps_i - eps_{i+1}), as both
# sides are twisted derivations that agree on the eps_j.  So a symmetric f
# commutes with every generator: it acts on a weight vector e_0 by f at its
# weight, and so on all of M when e_0 generates M (DECISIONS.md).


def _int_dtype(bound: int, n: int, gaussian: bool, max_chain: int):
    """int64 when sums of up to 2**max_chain products of ``max_chain``
    n x n factors with entries at most ``bound`` (2n x 2n when embedded)
    provably stay inside int64, else object."""
    chain_bound = bound * ((2 if gaussian else 1) * n * bound) ** (max_chain - 1)
    return np.int64 if chain_bound << max_chain < _INT64_LIMIT else object


def _scaled(xs) -> tuple[list[int], list[int], int, bool]:
    """Real and imaginary parts of Scalars times their common denominator,
    that scale, and whether some value is non-real."""
    scale = math.lcm(*{x.re.denominator for x in xs}, *{x.im.denominator for x in xs})
    re = [x.re.numerator * (scale // x.re.denominator) for x in xs]
    im = [x.im.numerator * (scale // x.im.denominator) for x in xs]
    return re, im, scale, any(im)


def _double(x: np.ndarray) -> np.ndarray:
    """2x[0], 2x[0] + 1, 2x[1], ...: the coordinates of the 2x2 blocks."""
    return (2 * x[:, None] + np.arange(2)).ravel()


def _compact_operators(M: StandardModule, max_chain: int):
    """Integer operators of the s_i, as ``(targets, signs)``, and of
    scale * eps_j, as ``(diagonal, layers)``, in the dtype
    :func:`_int_dtype` picks for their entries; the scale; whether 2x2
    blocks embed them."""
    re, im, scale, gaussian = _scaled(M.chi)
    vals = [v for layers in M.nilpotent for _, _, v in layers]
    nil = int(abs(np.concatenate(vals)).max()) if vals else 0
    bound = max(scale * nil, *map(abs, re), *map(abs, im))
    dtype = _int_dtype(bound, M.dim, gaussian, max_chain)
    re, im = np.array(re, dtype=dtype), np.array(im, dtype=dtype)

    s_ops = list(zip(M.s_target, M.s_sign))
    # the shared int64 layers serve as they are at scale 1
    as_is = scale == 1 and dtype is np.int64
    eps_ops = [
        (re[p], [(r, c, v if as_is else v.astype(dtype) * scale) for r, c, v in layers])
        for p, layers in zip(M.pos, M.nilpotent)
    ]
    if gaussian:
        # coordinate b becomes 2b, 2b + 1: N_j becomes N_j (x) I_2, and the
        # imaginary parts of the diagonal one more layer
        n = np.arange(2 * M.dim)
        i_sign = np.tile([-1, 1], M.dim)
        s_ops = [(_double(t), np.repeat(sg, 2)) for t, sg in s_ops]
        eps_ops = [
            (
                np.repeat(d, 2),
                [(n, n ^ 1, i_sign * np.repeat(im[p], 2))]
                + [(_double(r), _double(c), np.repeat(v, 2)) for r, c, v in layers],
            )
            for p, (d, layers) in zip(M.pos, eps_ops)
        ]
    return s_ops, eps_ops, scale, gaussian


def _apply_s(target: np.ndarray, sign: np.ndarray, X: np.ndarray) -> np.ndarray:
    """s_i @ X for the signed table of s_i, a permutation."""
    out = np.empty_like(X)
    out[target] = sign[:, None] * X
    return out


def _apply_eps(diagonal: np.ndarray, layers, X: np.ndarray) -> np.ndarray:
    """(diag(diagonal) + sum of the layers) @ X."""
    out = diagonal[:, None] * X
    for rows, cols, vals in layers:
        out[rows] += vals[:, None] * X[cols]
    return out


def _sk_relations_hold(target: np.ndarray, sign: np.ndarray) -> bool:
    """s_i * s_i = 1, the braid relations and far commutation on the signed
    tables ``(target[i], sign[i])`` of the s_i, each read as a permutation
    s[i] of the 2n points +-e_c (e_c at c, -e_c at n + c), so that s_a * s_b
    is s[a][s[b]]; s_i * s_i = 1 makes each table an involution, hence a
    permutation with s_i^-1 = s_i."""
    n = target.shape[1]
    if target.min() < 0 or target.max() >= n or (abs(sign) != 1).any():
        return False
    flip = n * (sign < 0)
    s = np.concatenate([target + flip, target + n - flip], axis=1)
    rows = np.arange(len(s))[:, None]
    if (s[rows, s] != np.arange(2 * n)).any():
        return False
    # s_i against s_{i + gap} for every i at once: braid at gap 1, else commute
    for gap in range(1, len(s)):
        a, b, r = s[:-gap], s[gap:], rows[:-gap]
        left, right = a[r, b], b[r, a]
        if gap == 1:
            left, right = left[r, a], right[r, b]
        if (left != right).any():
            return False
    return True


def verify_relations(M: StandardModule) -> bool:
    """Exact check of every defining relation of a :class:`StandardModule`
    on its compact form: the S_k relations on the tables, then each key of
    the relation plan sums to zero.  The memoised plan serves only the very
    tables ``_composition`` shares.  Any other argument, a
    :class:`QuotientModule` too, raises TypeError."""
    if not isinstance(M, StandardModule):
        raise TypeError(f"verify_relations takes a StandardModule, not {type(M).__name__}")
    if M.k == 1:
        return True
    _, target, sign, _, nilpotent = _composition(M.blocks)
    shared = M.s_target is target and M.s_sign is sign and M.nilpotent is nilpotent
    plan = _shared_plan(M.blocks) if shared else _relation_plan(M.s_target, M.s_sign, M.nilpotent)
    if plan is None:
        return False
    gather, coef, starts, weight = plan
    # the scale is the last source; no sum exceeds weight * the largest one
    re, im, scale, gaussian = _scaled(M.chi)
    parts = [re + [scale], im + [0]] if gaussian else [re + [scale]]
    bound = max(abs(x) for part in parts for x in part) * weight
    chi = np.array(parts, dtype=np.int64 if bound < _INT64_LIMIT else object)
    src = np.concatenate([chi[:, M.pos].reshape(len(chi), -1), chi[:, -1:]], axis=1)
    return not np.add.reduceat(src[:, gather] * coef, starts, axis=1).any()


def _weight_vector(nilpotent: tuple) -> bool:
    """Whether e_0 is a weight vector: no N_j layer has a nonzero entry in
    column 0."""
    return not any(v[c == 0].any() for layers in nilpotent for _, c, v in layers)


def _generates(target: np.ndarray) -> bool:
    """Whether e_0 generates under involutions s_i: every e_b with b >= 1 is
    +-s_i e_b' for some b' < b."""
    return bool((target[:, 1:] < np.arange(1, target.shape[1])).any(axis=0).all())


@functools.lru_cache(maxsize=64)
def _shared_plan(blocks: tuple[int, ...]):
    _, target, sign, _, nilpotent = _composition(blocks)
    return _relation_plan(target, sign, nilpotent)


def _relation_plan(target: np.ndarray, sign: np.ndarray, nilpotent: tuple):
    """None if the tables of the s_i fail the S_k relations.  Else the terms
    of the eps relations for them and the N_j layers, merged per key and
    source, zeros dropped, in key order: the source of each (D_j[b, b] at
    j * n + b, the scale at k * n) and its coefficient; where each key
    starts; the largest sum of |coefficients| of a key."""
    if not _sk_relations_hold(target, sign):
        return None
    k, n = len(nilpotent), target.shape[1]
    const = k * n
    # the entries (j, row, column, coefficient) of every eps_j, D_j first
    flat = [(j, *layer) for j, ls in enumerate(nilpotent) for layer in ls]
    diagonal = np.arange(const) % n
    j_e = np.repeat([*range(k), *(j for j, *_ in flat)], [n] * k + [len(r) for _, r, *_ in flat])
    r_e = np.concatenate([diagonal, *(r for _, r, _, _ in flat)])
    c_e = np.concatenate([diagonal, *(c for _, _, c, _ in flat)])
    v_e = np.concatenate([np.ones(const, int), *(v for *_, v in flat)])
    s_e = np.minimum(np.arange(len(j_e)), const)  # their sources
    # a coefficient is an entry or the product of two, up to sign
    dtype = np.int8 if abs(v_e).max() <= 11 else object
    v_e, terms = v_e.astype(dtype), []

    def add(slot, row, col, src, coef):
        # (key * (k * n + 1) + source, coefficient) fits int64 up to k = 8
        merged = ((slot * n + row) * n + col) * (const + 1) + src
        terms.append((merged.ravel(), coef.astype(dtype).ravel()))

    # s_i eps_j - eps_{s_i(j)} s_i - <alpha_i, e_j> at slot i * k + j: s_i
    # moves an entry (r, c) to (target[r], c) times sign[r], and on the right
    # to (r, target[c]) times sign[target[c]] = sign[c]
    i, j, b = np.arange(k - 1)[:, None], np.arange(k), np.arange(n)
    c = (j == i) * 1 - (j == i + 1)  # <alpha_i, e_j>, and s_i(j) = j + c
    add(i * k + j_e, target[:, r_e], c_e, s_e, sign[:, r_e] * v_e)
    add(i * k + (j + c)[:, j_e], r_e, target[:, c_e], s_e, -sign[:, c_e] * v_e)
    add((i * k + j)[:, :, None], b, b, const, (-c).repeat(n))
    # eps_a eps_b - eps_b eps_a at slot k * k + a * k + b for a < b vanishes
    # once the relations above hold if e_0 is a weight vector that generates
    # (DECISIONS.md).  Else a row join: every entry (r, m) times each entry of
    # row m; a product has the source of its D factor, and D_a D_b meets
    # D_b D_a at the same source, so they cancel
    if not (_weight_vector(nilpotent) and _generates(target)):
        order = np.argsort(r_e)
        first = np.searchsorted(r_e[order], c_e)
        count = np.searchsorted(r_e[order], c_e, side="right") - first
        left = np.repeat(np.arange(len(r_e)), count)
        right = order[np.arange(len(left)) + np.repeat(first + count - np.cumsum(count), count)]
        keep = j_e[left] != j_e[right]  # eps_a commutes with itself
        left, right = left[keep], right[keep]
        ja, jb = j_e[left], j_e[right]
        slot = k * (k + np.minimum(ja, jb)) + np.maximum(ja, jb)
        src = np.minimum(s_e[left], s_e[right])
        add(slot, r_e[left], c_e[right], src, np.sign(jb - ja) * v_e[left] * v_e[right])

    merged, coef = map(np.concatenate, zip(*terms))
    terms.clear()
    order = np.argsort(merged)
    merged, coef = merged[order], coef[order]
    first = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
    merged, coef = merged[first], np.add.reduceat(coef, first, dtype=np.result_type(coef, int))
    key, src = np.divmod(merged[coef != 0], const + 1)
    coef = coef[coef != 0]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    weight = int(np.add.reduceat(abs(coef), starts).max(initial=0))
    coef = coef.astype(np.int8) if weight < 128 else coef
    return src.astype(np.int32), coef, starts.astype(np.int32), weight


def central_character_of_module(M: StandardModule) -> tuple[Scalar, ...]:
    """The weight of e_0 as a sorted multiset: every symmetric polynomial f
    in the eps_j acts on M by f at it.

    Raises ValueError unless the defining relations hold, e_0 is a weight
    vector (no N_j layer has a nonzero entry in column 0) and e_0 generates
    M (every e_b with b >= 1 is +-s_i e_b' for some b' < b).
    """
    if not verify_relations(M):
        raise ValueError("the module fails the defining relations")
    if not _weight_vector(M.nilpotent):
        raise ValueError("e_0 is not a weight vector")
    if not _generates(M.s_target):
        raise ValueError("e_0 does not generate the module")
    weight = (M.chi[p] for p in M.pos[:, 0].tolist())
    return tuple(sorted(weight, key=scalar_sort_key, reverse=True))


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
    eps_j by the source weight chi_j.  The basis is the reduced-echelon
    nullspace basis of that system, solved on integers; each T follows
    column by column, since every other source basis vector is s_i times
    an earlier one.
    """
    if sorted(map(str, ms_from.segments)) != sorted(map(str, ms_to.segments)):
        raise ValueError("intertwiner endpoints must share the same segment multiset")
    _, ops1, _, mats = _solve_intertwiners(ms_from, ms_to)
    return len(mats), [_scalar_matrix(T, den, ops1[3]) for T, den in mats]


# -- intertwiners and quotients ----------------------------------------------
#
# The system for the generator image u is read off the target's integer
# operators: the two-entry Young rows u[t] + sign * u[b] = 0 and the rows
# (eps_j - chi_j) u = 0 go through one fraction-free Gauss-Jordan
# elimination, whose reduced echelon form gives the nullspace basis.
# T is then an integer matrix over one denominator, and the same elimination
# gives its greedy pivot columns piv and C with T = T[:, piv] C.  As T
# intertwines, rho_to(g) T[:, piv] = T[:, piv] (C rho_from(g)[:, piv]), so the
# quotient action X_g = C rho_from(g)[:, piv] is a right product with the
# source's compact operators, checked exactly against the image.  The
# echelon rows restricted to piv are diagonal and lie in T's row space, so
# T[:, piv] has full column rank, and once the target satisfies a relation
# R, image R(X) = R(rho_to) image = 0 gives R(X) = 0 (DECISIONS.md).  Each
# module's operators are built once, in a dtype for products of three.


def _eliminate(row: dict, pivot: dict, c: int) -> dict:
    """a * row - f * pivot, zero in column c, divided by its content."""
    g = math.gcd(pivot[c], row[c])
    a, f = pivot[c] // g, row[c] // g
    out = {x: a * row.get(x, 0) - f * pivot.get(x, 0) for x in row.keys() | pivot.keys()}
    out = {x: v for x, v in out.items() if v}
    g = math.gcd(*out.values())
    return {x: v // g for x, v in out.items()} if g > 1 else out


def _echelon(rows: list[dict]) -> list[tuple[int, dict]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968)
    of sparse integer rows ``{column: value}``, touching only the rows with
    a nonzero in the pivot column: the ``(column, row)`` pivots in column
    order, each row zero left of its pivot and in the other pivot columns."""
    pending = [r for r in rows if r]
    found: list[tuple[int, dict]] = []
    for c in sorted({c for r in pending for c in r}):
        hits = [r for r in pending if c in r]
        if hits:
            p = min(hits, key=len)
            pending = [_eliminate(r, p, c) if c in r else r for r in pending if r is not p]
            pending = [r for r in pending if r]
            found = [(pc, _eliminate(r, p, c) if c in r else r) for pc, r in found]
            found.append((c, p))
    return found


def _intertwiners(m1: StandardModule, ops1, ops2):
    """:func:`intertwiner_space` from the source module and the
    :func:`_compact_operators` of source and target: the basis as
    ``(T, den)`` pairs, T an integer array (in 2x2 blocks when the weight is
    non-real) and den > 0 its denominator."""
    (s1, _, _, gaussian), (s2, eps2, _, _) = ops1, ops2
    re, im, _, _ = _scaled(m1.chi)  # at the scale of eps2, since chi2 permutes chi1
    n = np.arange(len(eps2[0][0]))
    width = 2 if gaussian else 1
    rows = []
    for i in range(m1.k - 1):
        if m1.s_sign[i, 0] == -1:  # s_i lies inside a block of the source
            # (s_i + 1) u = 0: u[t] + sign * u[b] = 0 for t = target[b]
            target, sign = (x.tolist() for x in s2[i])
            for b, (t, sg) in enumerate(zip(target, sign)):
                if t < b and sign[t] == sg:
                    continue  # t's row, times sg; a doctored sign keeps both
                rows.append({t: 1, b: sg} if t != b else {b: 1 + sg})
    for (diagonal, layers), a, b in zip(eps2, re, im):
        # scale * (eps_j - chi_j), with chi_j = a + bi as [[a, -b], [b, a]]
        entries = [(n, n, diagonal - a), *layers]
        if gaussian:
            entries.append((n, n ^ 1, np.tile([b, -b], m1.dim)))
        mat: list[dict] = [{} for _ in n]
        for rr, cc, vv in entries:
            for r, c, x in zip(rr.tolist(), cc.tolist(), vv.tolist()):
                mat[r][c] = mat[r].get(c, 0) + x
        rows += mat
    found = _echelon([{c: x for c, x in row.items() if x} for row in rows])
    pivots = {c for c, _ in found}

    # e_b = s_i e_b2 with b2 < b for some i, so column b is s_i of column b2;
    # when non-real, column 2b + 1 is i times column 2b
    steps = []
    for c in range(width, width * m1.dim):
        i = next(i for i, (t, sg) in enumerate(s1) if sg[c] == 1 and t[c] < c)
        steps.append((c, *s2[i], s1[i][0][c]))
    mats = []
    # the free columns of a non-real system come in pairs 2c, 2c + 1
    for f in range(0, len(n), width):
        if f in pivots:
            continue
        hits = [(c, r) for c, r in found if f in r]
        den = math.lcm(*(r[c] for c, r in hits))
        v = {f: den, **{c: -r[f] * (den // r[c]) for c, r in hits}}
        g = math.gcd(*v.values())
        u = [v.get(x, 0) // g for x in n.tolist()]
        dtype = np.int64 if max(map(abs, u)) < _INT64_LIMIT else object
        T = np.zeros((len(n), width * m1.dim), dtype=dtype)
        T[:, 0] = u
        if gaussian:
            T[:, 1] = np.tile([-1, 1], m1.dim) * T[n ^ 1, 0]
        for c, target, sign, c2 in steps:
            T[target, c] = sign * T[:, c2]
        mats.append((T, den // g))
    return mats


def _solve_intertwiners(ms_from: Multisegment, ms_to: Multisegment):
    """The target module, the :func:`_compact_operators` of the source and
    target modules, each built once, and :func:`_intertwiners` between
    them."""
    m1, m2 = build_standard_module(ms_from), build_standard_module(ms_to)
    ops1, ops2 = _compact_operators(m1, 3), _compact_operators(m2, 3)
    return m2, ops1, ops2, _intertwiners(m1, ops1, ops2)


def _scalar_matrix(a: np.ndarray, den: int, gaussian: bool) -> list[list[Scalar]]:
    """The Scalar rows of a / den, read back from 2x2 blocks when embedded."""
    re, im = (a[::2, ::2], a[1::2, ::2]) if gaussian else (a, np.zeros_like(a))
    return [
        [Scalar(Fraction(x, den), Fraction(y, den)) for x, y in zip(rr, ri)]
        for rr, ri in zip(re.tolist(), im.tolist())
    ]


def _column_basis(T: np.ndarray) -> tuple[list[int], np.ndarray, int]:
    """The greedy pivot columns piv of an integer matrix T, and C and den
    with T = T[:, piv] @ C / den: T's reduced echelon form."""
    rows: list[dict] = [{} for _ in range(len(T))]
    for r, c, x in zip(*(a.tolist() for a in np.nonzero(T)), T[T != 0].tolist()):
        rows[r][c] = x
    found = _echelon(rows)
    den = math.lcm(*(r[c] for c, r in found))
    C = np.zeros((len(found), T.shape[1]), dtype=object)
    for n, (c, r) in enumerate(found):
        C[n, list(r)] = [x * (den // r[c]) for x in r.values()]
    return [c for c, _ in found], C, den


def _quotient_action(ops1, ops2, image, C, den, piv):
    """The quotient generators X_g = C rho_from(g)[:, piv], as integer arrays
    ``(s, eps)`` over one common scale, and that scale, from the
    :func:`_compact_operators` of source and target.  Raises RuntimeError
    unless rho_to(g) image = image X_g for every generator g."""
    (s1, eps1, scale, _), (s2, eps2, _, _) = ops1, ops2
    # int64 only if products of three factors fit for the entries of the
    # image and C as well as for those of the operators; len(image) counts
    # 2x2 blocks already
    bound = max(1, int(abs(image).max()), *map(abs, C.flat))
    dtype = np.result_type(eps1[0][0].dtype, eps2[0][0].dtype)
    dtype = np.result_type(dtype, _int_dtype(bound, len(image), False, 3))
    C, image, columns = C.astype(dtype), image.astype(dtype), np.eye(len(C.T), dtype=dtype)[:, piv]
    # over den for s_i, over den * scale for eps_j
    gens = [C[:, t[piv]] * sg[piv] for t, sg in s1] + [C @ _apply_eps(*op, columns) for op in eps1]
    lefts = [_apply_s(*op, image) for op in s2] + [_apply_eps(*op, image) for op in eps2]
    if any((den * L != image @ X).any() for L, X in zip(lefts, gens)):
        raise RuntimeError("the intertwiner's image is not invariant; cannot isolate the quotient")
    k = len(eps1)
    return tuple(scale * X for X in gens[: k - 1]), tuple(gens[k - 1 :]), den * scale


@dataclass(frozen=True, eq=False)
class QuotientModule:
    """Irreducible quotient as integer generator matrices over one scale:
    s_i acts by ``s[i] / scale`` and eps_j by ``eps[j] / scale``, with
    entries in 2x2 blocks when ``gaussian``."""

    ms: Multisegment
    dim: int
    s: tuple
    eps: tuple
    scale: int
    gaussian: bool


def irreducible_quotient(ms: Multisegment) -> QuotientModule:
    """Unique irreducible quotient of the induced module of a dominant
    ordering, realized as the image of the intertwiner to the reversed
    ordering, with the action read off the source module.

    The intertwiner space must be one-dimensional; anything else raises,
    surfacing the failed assumption instead of hiding it, and so do a
    target that fails the defining relations and a non-invariant image.
    These two checks certify the quotient's relations (DECISIONS.md).
    """
    if not is_dominant_ms(ms):
        raise ValueError("irreducible_quotient requires a dominant ordering")
    target, ops1, ops2, mats = _solve_intertwiners(ms, reversed_ordering(ms))
    if not verify_relations(target):
        raise RuntimeError("the reversed ordering's module fails the defining relations")
    if len(mats) != 1:
        raise RuntimeError(
            f"intertwiner space has dimension {len(mats)}, expected 1; "
            "cannot isolate the quotient"
        )
    T, _ = mats[0]
    piv, C, den = _column_basis(T)
    s, eps, scale = _quotient_action(ops1, ops2, T[:, piv], C, den, piv)
    gaussian = ops1[3]
    return QuotientModule(ms, len(piv) // (2 if gaussian else 1), s, eps, scale, gaussian)


def module_to_json(M: StandardModule) -> dict:
    """Row-major dump of a standard module's generator matrices as rational
    strings, formatted from the dense integer operators of its compact form.
    Raises ValueError for a non-real weight before building any matrix."""
    param = multisegment_to_json(M.ms)
    s_ops, eps_ops, scale, _ = _compact_operators(M, 1)

    def mat(a, den):
        fmt = str if den == 1 else lambda x: rat_str(Fraction(x, den)) if x else "0"
        return list(map(fmt, a.ravel().tolist()))

    eye = np.eye(M.dim, dtype=eps_ops[0][0].dtype)
    return {
        "param": param,
        "dim": M.dim,
        "s": [mat(eye[:, t] * sg, 1) for t, sg in s_ops],
        "eps": [mat(_apply_eps(*op, eye), scale) for op in eps_ops],
    }

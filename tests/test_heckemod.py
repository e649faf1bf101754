import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linalg_oracle import (
    Q,
    identity,
    mat_mul,
    nullspace,
    q,
    quotient_relations_hold,
    rref,
    scalar_generators,
    solve_columns,
)

from glhecke import heckemod
from glhecke.heckemod import (
    QuotientModule,
    StandardModule,
    _apply_eps,
    _apply_s,
    _column_basis,
    _compact_operators,
    _coset_reps,
    _echelon,
    _int_dtype,
    _intertwiners,
    _quotient_action,
    _scalar_matrix,
    _scaled,
    _sk_relations_hold,
    build_standard_module,
    central_character_of_module,
    intertwiner_space,
    irreducible_quotient,
    module_to_json,
    reversed_ordering,
    verify_relations,
)
from glhecke.levelmap import dimension_std, gamma
from glhecke.multisegments import (
    Multisegment,
    Segment,
    central_character,
    dominant_representative,
    enumerate_multisegments,
    parse_segments,
    steinberg_param,
)
from glhecke.realparams import enumerate_real_params
from glhecke.scalars import Scalar, scalar_sort_key, scalar_str
from glhecke.sweeps import lambda_window


@dataclasses.dataclass(frozen=True)
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
        return tuple(Q(Fraction(self.k - 1 - 2 * j, 2)) for j in range(self.k))

    def pairing(self, i: int, j: int) -> int:
        """<alpha_i, e_j> under the dot product."""
        return (1 if j == i else 0) - (1 if j == i + 1 else 0)


def _ref_build_standard_module(ms):
    """Reference generator matrices: the Scalar column recursion the compact
    form replaced, as (gen_s, gen_eps) row-major lists."""
    blocks = tuple(s.length for s in ms.segments)
    k = sum(blocks)
    chi = [q(x) for x in central_character(ms)]
    basis = _coset_reps(blocks)
    dim = len(basis)
    index = {w: b for b, w in enumerate(basis)}
    block_of = []
    for bi, L in enumerate(blocks):
        block_of.extend([bi] * L)

    s_table = []
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

    zero, one = Q(0), Q(1)
    # eps columns by induction on length: strip a left descent s_i off w and
    # use  eps_j s_i = s_i eps_{s_i(j)} + <alpha_i, eps_j>.
    cols = [[None] * dim for _ in range(k)]
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
        m = [[zero] * dim for _ in range(dim)]
        for b, (tgt, sg) in enumerate(s_table[i]):
            m[tgt][b] = one if sg == 1 else -one
        gen_s.append(m)
    return gen_s, gen_eps


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
            target, signs = M.s_target[i], M.s_sign[i]
            for b in range(M.dim):
                perm[b], sign[b] = int(target[perm[b]]), sign[b] * int(signs[perm[b]])
        trace = sum(sg for b, (p, sg) in enumerate(zip(perm, sign)) if p == b)
        total += parity * trace
    assert total % count == 0
    return total // count


def rank(m) -> int:
    return len(rref(m)[1])


def _embed(re, im):
    """The integer matrix re + i*im with each entry a+bi as [[a, -b], [b, a]]."""
    return np.kron(re, np.eye(2, dtype=int)) + np.kron(im, np.array([[0, -1], [1, 0]]))


def _explicit_module(gen_s, gen_eps):
    """Explicit Scalar generator matrices as a QuotientModule, which the
    dense oracle quotient_relations_hold checks: integer images over their
    common scale, each a+bi as [[a, -b], [b, a]] when some entry is
    non-real, in a dtype that holds products of three."""
    mats = gen_s + gen_eps
    n = len(mats[0])
    re, im, scale, gaussian = _scaled([x for m in mats for row in m for x in row])
    dtype = _int_dtype(max(1, *map(abs, re), *map(abs, im)), n, gaussian, 3)
    re, im = (np.array(v, dtype=dtype).reshape(-1, n, n) for v in (re, im))
    arrs = tuple(_embed(a, b) if gaussian else a for a, b in zip(re, im))
    return QuotientModule(None, n, arrs[: len(gen_s)], arrs[len(gen_s) :], scale, gaussian)


def _with_diagonal(M, j, b, delta):
    """A copy of M whose D_j[b, b] alone is moved by delta: one more weight
    coordinate, and pos[j, b] pointing at it."""
    pos = M.pos.copy()
    pos[j, b] = len(M.chi)
    return dataclasses.replace(M, chi=M.chi + (q(M.chi[M.pos[j, b]]) + delta,), pos=pos)


def _with_entry(M, j, r, c, delta):
    """A copy of M whose eps_j[r, c] alone is moved by the integer delta: one
    more N_j layer holding that single entry."""
    layer = tuple(np.array([x]) for x in (r, c, delta))
    nilpotent = list(M.nilpotent)
    nilpotent[j] = nilpotent[j] + (layer,)
    return dataclasses.replace(M, nilpotent=tuple(nilpotent))


def _ref_verify_compact(M):
    """The dense per-pair route, oracle of the sparse relation check: every
    relation as one product per generator pair, on dense s_i and eps_j built
    from the compact operators, after a check that each table is a
    permutation."""
    s_ops, eps_ops, scale, _ = _compact_operators(M, max_chain=3)
    one = np.eye(len(eps_ops[0][0]), dtype=eps_ops[0][0].dtype)
    if any(not np.array_equal(np.sort(t), np.arange(len(one))) for t, _ in s_ops):
        return False

    def s_left(i, X):
        return _apply_s(*s_ops[i], X)

    def eps_left(j, X):
        return _apply_eps(*eps_ops[j], X)

    k = M.k
    s = [s_left(i, one) for i in range(k - 1)]
    eps = [eps_left(j, one) for j in range(k)]
    swap = [{i: i + 1, i + 1: i} for i in range(k - 1)]
    identities = itertools.chain(
        ((s_left(i, s[i]), one) for i in range(k - 1)),
        (
            (s_left(i, s_left(i + 1, s[i])), s_left(i + 1, s_left(i, s[i + 1])))
            for i in range(k - 2)
        ),
        ((s_left(i, s[j]), s_left(j, s[i])) for i in range(k - 1) for j in range(i + 2, k - 1)),
        ((eps_left(a, eps[b]), eps_left(b, eps[a])) for a in range(k) for b in range(a + 1, k)),
        (
            # s_i eps_j - eps_{s_i(j)} s_i = <alpha_i, e_j>, at scale
            (
                s_left(i, eps[j]) - eps[swap[i].get(j, j)][:, s_ops[i][0]] * s_ops[i][1],
                ((j == i) - (j == i + 1)) * scale * one,
            )
            for i in range(k - 1)
            for j in range(k)
        ),
    )
    return all(np.array_equal(x, y) for x, y in identities)


def _scalar_identity(re, im, like, gaussian):
    """(re + i*im) * I in the integer form of ``like`` (same length and
    dtype); ``im`` is 0 unless ``gaussian``."""
    n = np.arange(len(like))
    out = np.zeros((len(n), len(n)), dtype=like.dtype)
    out[n, n] = re
    if gaussian:
        out[n, n ^ 1] = np.tile(np.array([-im, im], dtype=like.dtype), len(n) // 2)
    return out


def _ref_central_character(M):
    """The dense route the certificate replaced: E[d] sums the ordered
    products eps_{t_1} ... eps_{t_d}, t_1 < ... < t_d, and gains
    eps_t @ E[d - 1] one d at a time; raises ValueError at the smallest d
    whose e_d is not the expected scalar."""
    k = M.k
    re, im, _, _ = _scaled(M.chi)
    _, eps_ops, _, gaussian = _compact_operators(M, max_chain=k)
    # elementary symmetric values of scale * chi, as Gaussian integer pairs
    e_chi = [(1, 0)] + [(0, 0)] * k
    for t, (a, b) in enumerate(zip(re, im)):
        for d in range(t + 1, 0, -1):
            (x, y), (u, v) = e_chi[d], e_chi[d - 1]
            e_chi[d] = (x + u * a - v * b, y + u * b + v * a)
    like = eps_ops[0][0]
    E = [_scalar_identity(1, 0, like, gaussian)] + [0] * k
    for t in reversed(range(k)):
        for d in range(k - t, 0, -1):
            E[d] = E[d] + _apply_eps(*eps_ops[t], E[d - 1])
    for d in range(1, k + 1):
        if not np.array_equal(E[d], _scalar_identity(*e_chi[d], like, gaussian)):
            raise ValueError(f"elementary symmetric polynomial {d} is not the expected scalar")
    return tuple(sorted(M.chi, key=scalar_sort_key, reverse=True))


def _rejected(M) -> bool:
    """Whether the sparse check and the per-pair reference both reject M."""
    return not verify_relations(M) and not _ref_verify_compact(M)


def _with_table(M, i, target=None, sign=None):
    """A copy of M whose signed table of s_i is replaced."""
    tables = [M.s_target.copy(), M.s_sign.copy()]
    for table, row in zip(tables, (target, sign)):
        if row is not None:
            table[i] = row
    return dataclasses.replace(M, s_target=tables[0], s_sign=tables[1])


def test_root_datum():
    rd = RootDatum(4)
    assert rd.alpha(0) == (1, -1, 0, 0)
    assert rd.rho() == (
        Scalar(Fraction(3, 2)),
        Scalar(Fraction(1, 2)),
        Scalar(Fraction(-1, 2)),
        Scalar(Fraction(-3, 2)),
    )
    assert rd.pairing(1, 1) == 1 and rd.pairing(1, 2) == -1 and rd.pairing(1, 3) == 0
    with pytest.raises(IndexError):
        rd.alpha(3)


def test_steinberg_module():
    M = build_standard_module(steinberg_param(4))
    assert M.dim == 1
    gen_s, gen_eps = scalar_generators(M)
    for s in gen_s:
        assert s == [[Scalar(-1)]]
    rho = RootDatum(4).rho()
    for j, eps in enumerate(gen_eps):
        assert eps == [[-rho[j]]]
    assert verify_relations(M)


def test_two_singletons_module():
    nu1, nu2 = Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 2))
    M = build_standard_module(parse_segments("{1/2};{-1/2}"))
    assert M.dim == 2
    assert scalar_generators(M)[1][0] == [[nu1, Scalar(1)], [Scalar(0), nu2]]
    assert verify_relations(M)
    assert central_character_of_module(M) == (nu1, nu2)


def test_dimension_formula():
    for spec_text in ["{2};{1};{0}", "{0,1};{-1,0}", "{0,1,2};{1}", "{0};{0};{0}"]:
        ms = parse_segments(spec_text)
        M = build_standard_module(ms)
        blocks = [s.length for s in ms.segments]
        assert M.dim == math.factorial(ms.k) // math.prod(map(math.factorial, blocks))


def test_dim_matches_level_map_dimension():
    for lam in [(1, 0), (2, 1, 0), (2, 1, 1, 0)]:
        n = len(lam)
        for p in enumerate_real_params(lam, n):
            if p.level != n:
                continue
            ms = gamma(p, n)
            assert build_standard_module(ms).dim == dimension_std(p, n)


def test_relations_sweep_small():
    for spec_text in ["{5}", "{3};{1}", "{1,2,3}", "{2};{1,2};{0}", "{0};{0}"]:
        M = build_standard_module(parse_segments(spec_text))
        assert verify_relations(M)


def test_compact_module_matches_scalar_reference():
    cases = [
        ms
        for k in range(1, 5)
        for lam in lambda_window(k, 4)
        for ms in enumerate_multisegments(lam)
    ]
    cases += [parse_segments("{1/2+1/3i};{0}"), parse_segments("{1+1i};{0+1i}")]
    big = 1 << 40
    cases += [
        Multisegment((Segment(start, 2), Segment(Scalar(0), 1)))
        for start in (Scalar(big), Scalar(big, 1))
    ]
    # past int64 at scale 2, so module_to_json formats an object array
    huge = Multisegment((Segment(Scalar(1 << 70), 2), Segment(Scalar(Fraction(-1, 2)), 1)))
    assert _compact_operators(build_standard_module(huge), 1)[1][0][0].dtype == object
    for ms in cases + [huge]:
        M = build_standard_module(ms)
        ref = _ref_build_standard_module(ms)
        assert scalar_generators(M) == ref, ms
        if not all(c.is_real for c in M.chi):
            with pytest.raises(ValueError, match="real starts only"):
                module_to_json(M)
            continue
        obj = module_to_json(M)
        for name, mats in zip(("s", "eps"), ref):
            assert obj[name] == [[scalar_str(x) for row in m for x in row] for m in mats], ms


def test_sparse_relations_and_batched_center_match_per_pair_reference():
    cases = [
        ms
        for k in range(1, 5)
        for lam in lambda_window(k, 5)
        for ms in enumerate_multisegments(lam)
    ]
    # one module per block composition of k = 5, {4};{3};{2};{1};{0} among
    # them, non-real weights and object arrays
    k5 = [
        Multisegment(tuple(Segment(Scalar(len(blocks) - 1 - i), L) for i, L in enumerate(blocks)))
        for r in range(5)
        for cuts in itertools.combinations(range(1, 5), r)
        for blocks in [tuple(b - a for a, b in zip((0, *cuts), (*cuts, 5)))]
    ]
    gaussian = [parse_segments("{1+1i};{0};{2}"), parse_segments("{1+1i};{0,1};{2};{-1}")]
    huge = Multisegment((Segment(Scalar(1 << 40), 2), Segment(Scalar(0), 1)))
    for ms in cases + k5 + gaussian + [huge]:
        M = build_standard_module(ms)
        assert verify_relations(M) == _ref_verify_compact(M), ms
        assert central_character_of_module(M) == _ref_central_character(M), ms
    assert len(cases) == 239
    assert {ms.k for ms in k5} == {5}
    assert len({tuple(s.length for s in ms.segments) for ms in k5}) == 16
    assert all(_compact_operators(build_standard_module(ms), 3)[3] for ms in gaussian)
    assert _compact_operators(build_standard_module(huge), 3)[1][0][0].dtype == object


def _conjugated(M, delta=None, perm=None):
    """A copy of M whose s_i tables alone are conjugated by the diagonal
    +-1 matrix ``delta`` or by the basis permutation ``perm``: the S_k
    relations still hold, and the eps_j no longer fit."""
    if delta is not None:
        return dataclasses.replace(M, s_sign=delta[M.s_target] * M.s_sign * delta)
    target = np.empty_like(M.s_target)
    target[:, perm] = perm[M.s_target]
    return dataclasses.replace(M, s_target=target)


def test_relation_plan_memo_serves_only_the_shared_tables():
    heckemod._shared_plan.cache_clear()
    M = build_standard_module(parse_segments("{3};{2};{1};{0}"))
    assert verify_relations(M) and heckemod._shared_plan.cache_info().currsize == 1
    # same blocks, one table doctored: each copy gets a fresh plan of its own,
    # which is not stored, and is rejected by the eps relations alone
    delta, perm = np.ones(M.dim, dtype=int), np.arange(M.dim)
    delta[0], perm[[0, M.dim - 1]] = -1, (M.dim - 1, 0)
    # 1^4 has no forms, so a copy served the shared ones would pass; the
    # _with_diagonal copy has a pos of its own and a longer chi
    assert heckemod._shared_plan(M.blocks)[0] == ()
    doctored = (_with_entry(M, 1, 0, 3, 1), _conjugated(M, delta), _conjugated(M, perm=perm))
    for bad in doctored + (_with_diagonal(M, 1, 0, 1),):
        assert bad.blocks == M.blocks and _sk_relations_hold(bad.s_target, bad.s_sign)
        assert _rejected(bad)
    assert heckemod._shared_plan.cache_info().currsize == 1
    # a module built before the composition memo is cleared holds tables that
    # are no longer the shared ones
    heckemod._composition.cache_clear()
    N = build_standard_module(M.ms)
    assert N.s_target is not M.s_target
    assert verify_relations(M) and verify_relations(N)


def _same_span(a, b) -> bool:
    """Whether two lists of forms ``{coordinate: coefficient}`` span the same
    space: neither adds to the rank of the other."""
    rank = [len(_echelon(rows)) for rows in (a, b, [*a, *b])]
    return rank[0] == rank[1] == rank[2]


def test_relation_forms_are_the_block_affinity_conditions():
    # in the homogeneous weight (scale, chi_0, chi_1, ...), coordinates
    # 0, 1, 2, ..., the plan of every composition with k <= 6 spans exactly
    # chi_{t+1} - chi_t - scale for t, t + 1 in one block
    comps = [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, k)))
        for k in range(1, 7)
        for r in range(k)
        for cuts in itertools.combinations(range(1, k), r)
    ]
    assert len(comps) == 63
    for blocks in comps:
        k = sum(blocks)
        block_of = [bi for bi, L in enumerate(blocks) for _ in range(L)]
        inner = [t for t in range(k - 1) if block_of[t] == block_of[t + 1]]
        affine = [{t + 2: 1, t + 1: -1, 0: -1} for t in inner]
        forms, weight_vector, generates = heckemod._shared_plan(blocks)
        assert len(forms) <= k + 1 and weight_vector and generates, blocks
        assert _same_span(forms, affine) and (forms == ()) == (blocks == (1,) * k), blocks
        # teeth: a moved N_j entry, a conjugated sign that keeps the S_k
        # relations, and chi_t, chi_{t+1} swapped in pos inside a block; at
        # the starts 1, 10, 100, ... each copy is rejected as well
        starts = (Scalar(10**i) for i in range(len(blocks)))
        M = build_standard_module(Multisegment(tuple(map(Segment, starts, blocks))))
        bad = []
        if M.dim > 1:
            j = next(j for j in range(k) if M.nilpotent[j])
            bad += [_moved_entry(M, j), _conjugated(M, 1 - 2 * (np.arange(M.dim) == 1))]
        if inner:
            t = inner[0]
            swap = np.where(M.pos == t, t + 1, np.where(M.pos == t + 1, t, M.pos))
            bad.append(dataclasses.replace(M, pos=swap))
        for B in bad:
            plan = heckemod._relation_plan(B.s_target, B.s_sign, B.pos, B.nilpotent)
            assert plan is None or not _same_span(plan[0], affine), blocks
            assert not verify_relations(B), blocks


def test_one_dimensional_modules_are_checked_as_characters():
    # one segment gives a character: the plan reads each s_i as a sign and
    # each eps_j as a scalar.  Teeth, each rejected by both routes: an N
    # entry, a moved weight coordinate, every sign flipped (the S_k relations
    # still hold) and the last sign flipped at a weight that meets every form
    # of the new signs (only the braid relation sign_i = sign_{i+1} fails)
    for k in range(1, 7):
        M = build_standard_module(Multisegment((Segment(Scalar(Fraction(1, 3)), k),)))
        assert M.dim == 1 and verify_relations(M) and _ref_verify_compact(M)
        if k == 1:
            continue
        flipped = dataclasses.replace(M, s_sign=-M.s_sign)
        assert _sk_relations_hold(flipped.s_target, flipped.s_sign)
        bad = [_with_entry(M, k - 1, 0, 0, 1), _with_diagonal(M, 0, 0, 1), flipped]
        if k > 2:
            braid = _with_table(M, k - 2, sign=-M.s_sign[k - 2])
            bad.append(dataclasses.replace(braid, chi=M.chi[:-1] + (M.chi[-3],)))
            assert not _sk_relations_hold(braid.s_target, braid.s_sign)
        assert all(_rejected(B) for B in bad), k


def _moved_entry(M, j):
    """A copy of M whose first N_j entry (r, c) has moved to (r, c + 1)."""
    r, c, v = (int(x[0]) for x in M.nilpotent[j][0])
    return _with_entry(_with_entry(M, j, r, c, -v), j, r, (c + 1) % M.dim, v)


def test_sparse_relations_have_teeth_at_k6():
    M = build_standard_module(parse_segments("{5};{4};{3};{2};{1};{0}"))
    assert M.dim == 720 and verify_relations(M)
    assert not verify_relations(_moved_entry(M, M.k - 1))
    assert not verify_relations(_with_diagonal(M, 2, M.dim // 2, 1))
    # 1^6 fixes no basis vector: flip the sign of a fixed one of a k = 6
    # module with a block of two, and one conjugated sign, which keeps the
    # S_k relations
    M = build_standard_module(parse_segments("{5};{4};{3};{2};{0,1}"))
    assert verify_relations(M)
    b = np.flatnonzero(M.s_target[0] == np.arange(M.dim))[0]
    delta = np.ones(M.dim, dtype=int)
    delta[b] = -1
    assert not verify_relations(_with_table(M, 0, sign=M.s_sign[0] * delta))
    bad = _conjugated(M, 1 - 2 * (np.arange(M.dim) == 1))
    assert _sk_relations_hold(bad.s_target, bad.s_sign) and not verify_relations(bad)


def test_sparse_relations_have_teeth_on_object_and_gaussian_weights():
    # the forms are evaluated in Python ints: a 2**70 start is past int64,
    # and an N entry past int8 makes the plan's coefficients Python ints
    for start in (1 << 70, 1 << 40):
        M = build_standard_module(Multisegment((Segment(Scalar(start), 2), Segment(Scalar(0), 1))))
        assert verify_relations(M)
        assert _rejected(_with_entry(M, 0, 0, 1, 1)) and _rejected(_with_entry(M, 0, 0, 1, 1 << 40))
        # a weight coordinate moved by one, which a float would lose at 2**70
        assert _rejected(_with_diagonal(M, 0, 1, 1))
    # a moved imaginary part is seen by the imaginary row alone
    M = build_standard_module(parse_segments("{1+1i};{0};{2}"))
    assert verify_relations(M)
    assert _rejected(_with_diagonal(M, 0, 1, Q(0, 1)))


def test_sk_relations_on_signed_tables():
    # the tables of test_relations_braid_and_far_commutation_exits: k = 3
    # with s_0 s_1 s_0 = -1 but s_1 s_0 s_1 = s_0, and k = 4 with both braid
    # relations but s_0 s_2 != s_2 s_0; every s_i * s_i = 1
    swap, minus = ([1, 0], [1, 1]), ([0, 1], [-1, -1])
    p12, p23, p13 = ([1, 0, 2], [1] * 3), ([0, 2, 1], [1] * 3), ([2, 1, 0], [1] * 3)
    for tables in ((swap, minus), (p12, p23, p13)):
        target, sign = (np.array(x) for x in zip(*tables))
        for i in range(len(target)):
            assert _sk_relations_hold(target[i : i + 1], sign[i : i + 1])
        assert not _sk_relations_hold(target, sign)
    # s_i * s_i != 1: a 3-cycle, and a swap with one sign flipped
    assert not _sk_relations_hold(np.array([[1, 2, 0]]), np.ones((1, 3), dtype=int))
    assert not _sk_relations_hold(np.array([[1, 0]]), np.array([[1, -1]]))
    M = build_standard_module(parse_segments("{3};{2};{0,1}"))
    assert _sk_relations_hold(M.s_target, M.s_sign)


def _plus_all_ones(M):
    """A copy of M with the all-ones matrix J added to every eps_j."""
    n = np.arange(M.dim)
    ones = tuple((n, (n + t) % M.dim, np.ones(M.dim, dtype=int)) for t in range(M.dim))
    return dataclasses.replace(M, nilpotent=tuple(layers + ones for layers in M.nilpotent))


def test_commutation_is_checked_on_its_own():
    # S_3 permutes the basis of {2};{1};{0} with sign +1, so the all-ones
    # matrix J commutes with every s_i: adding J to every eps_j keeps the
    # relations between s_i and eps_j but breaks eps_0 eps_1 = eps_1 eps_0
    M = build_standard_module(parse_segments("{2};{1};{0}"))
    bad = _plus_all_ones(M)
    s, eps = (
        [np.array([[int(x.re) for x in row] for row in m]) for m in gens]
        for gens in scalar_generators(bad)
    )
    for i, j in itertools.product(range(M.k - 1), range(M.k)):
        jj = {i: i + 1, i + 1: i}.get(j, j)
        assert (s[i] @ eps[j] - eps[jj] @ s[i] == ((j == i) - (j == i + 1)) * np.eye(M.dim)).all()
    assert (eps[0] @ eps[1] != eps[1] @ eps[0]).any()
    assert _rejected(bad)


def test_commutation_follows_only_from_a_generating_weight_vector():
    # the relation plan skips eps_a eps_b = eps_b eps_a when e_0 is a weight
    # vector that generates; here e_0 is a weight vector of the genuine first
    # summand, which satisfies every relation, and the second summand keeps
    # every relation but that one, so e_0 does not generate and the join
    # must run
    M = build_standard_module(parse_segments("{2};{1};{0}"))
    both = _direct_sum(M, _plus_all_ones(M))
    plan = heckemod._relation_plan(both.s_target, both.s_sign, both.pos, both.nilpotent)
    assert plan[1:] == (True, False)
    assert verify_relations(M) and _rejected(both)
    # the join reads a product D_a N_b at the weight coordinate of D_a: the
    # N_j of {1,2};{0} do not commute, so the commutators of G (+) G, which
    # holds every relation, cancel only through the weight
    G = build_standard_module(parse_segments("{1,2};{0}"))
    assert verify_relations(_direct_sum(G, G)) and _ref_verify_compact(_direct_sum(G, G))


def test_composition_data_is_shared_read_only():
    M = build_standard_module(parse_segments("{2};{0,1}"))
    N = build_standard_module(parse_segments("{5};{-1,0}"))
    assert M.pos is N.pos and M.nilpotent is N.nilpotent
    rows, cols, vals = M.nilpotent[0][0]
    for a in (M.s_target, M.s_sign, M.pos, rows, cols, vals):
        with pytest.raises(ValueError):
            a[0] += 1
    # the compact form: D_j from chi at pos, N_j strictly upper triangular
    for j, eps in enumerate(scalar_generators(M)[1]):
        assert [eps[b][b] for b in range(M.dim)] == [M.chi[t] for t in M.pos[j]]
        assert all((rows < cols).all() for rows, cols, _ in M.nilpotent[j])


def test_relations_detect_perturbation():
    M = build_standard_module(parse_segments("{1};{0}"))
    assert verify_relations(M)
    gen_s, gen_eps = scalar_generators(M)
    gen_eps[0][0][0] = q(gen_eps[0][0][0]) + 1
    assert not quotient_relations_hold(_explicit_module(gen_s, gen_eps))
    # the same perturbation of the compact form, and one of the N_j entry
    assert _rejected(_with_diagonal(M, 0, 0, 1))
    assert _rejected(_with_entry(M, 0, 0, 1, 1))
    # a signed table that is no permutation, even one that sorts like s_0's
    for bad in ((1, 1), (2, 0)):
        assert _rejected(_with_table(M, 0, target=bad))
    # on a one-dimensional module the eps_j commute and each s_i is -1, so
    # only the relations between s_i and eps_j see a moved weight
    M = build_standard_module(steinberg_param(3))
    assert M.dim == 1 and _rejected(_with_diagonal(M, 1, 0, 1))
    # a permutation that is no involution: a 3-cycle
    M = build_standard_module(parse_segments("{2};{1};{0}"))
    assert M.dim >= 3 and verify_relations(M)
    assert _rejected(_with_table(M, 0, target=[1, 2, 0, *range(3, M.dim)]))
    # a flipped sign of s_{k-2}: on a moved basis vector s_{k-2}^2 != 1; on
    # a fixed one s_{k-2}^2 = 1 still holds and the eps relations fail
    M = build_standard_module(parse_segments("{2};{0,1}"))
    fixed = M.s_target[M.k - 2] == np.arange(M.dim)
    assert fixed.any() and not fixed.all()
    for b in (np.flatnonzero(~fixed)[0], np.flatnonzero(fixed)[0]):
        sign = M.s_sign[M.k - 2].copy()
        sign[b] *= -1
        assert _rejected(_with_table(M, M.k - 2, sign=sign)), b
    # an entry of eps_{k-1} of a dim-120 module near each corner of the
    # upper triangle
    M = build_standard_module(parse_segments("{4};{3};{2};{1};{0}"))
    assert M.dim == 120 and verify_relations(M)
    for r, c in ((0, 0), (0, M.dim - 1), (M.dim - 2, M.dim - 1)):
        assert _rejected(_with_entry(M, M.k - 1, r, c, 1)), (r, c)


def _integer_s_module(s):
    """A QuotientModule with integer s_i matrices, zero eps_j and scale 1."""
    s = tuple(np.asarray(a, dtype=np.int64) for a in s)
    eps = tuple(np.zeros_like(s[0]) for _ in range(len(s) + 1))
    return QuotientModule(None, len(s[0]), s, eps, 1, False)


def test_relations_braid_and_far_commutation_exits():
    swap, minus = np.array([[0, 1], [1, 0]]), -np.eye(2, dtype=int)
    p12 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    p23 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    p13 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    # k = 3: s_0 s_1 s_0 = -1 but s_1 s_0 s_1 = s_0
    assert (swap @ minus @ swap != minus @ swap @ minus).any()
    # k = 4: both braid relations hold, but s_0 s_2 != s_2 s_0
    for a, b in ((p12, p23), (p23, p13)):
        assert (a @ b @ a == b @ a @ b).all()
    assert (p12 @ p13 != p13 @ p12).any()
    for s in ((swap, minus), (p12, p23, p13)):
        assert all((a @ a == np.eye(len(a))).all() for a in s)
        assert not quotient_relations_hold(_integer_s_module(s))


def test_relations_object_dtype_path():
    # entries near 2**40 push the conservative int64 bound over the edge,
    # for real entries and for Gaussian ones embedded as 2x2 blocks
    big = 1 << 40
    for start, dim in ((Q(big), 3), (Q(big, 1), 6)):
        M = build_standard_module(Multisegment((Segment(start, 2), Segment(Scalar(0), 1))))
        explicit = _explicit_module(*scalar_generators(M))
        assert explicit.s[0].dtype == object and explicit.s[0].shape == (dim, dim)
        assert verify_relations(M)
        assert quotient_relations_hold(explicit)
        assert central_character_of_module(M) == (start + 1, start, Scalar(0))


def test_complex_module_exact_path():
    i = Q(0, 1)
    M = build_standard_module(Multisegment((Segment(i, 1), Segment(Scalar(0), 1))))
    assert M.dim == 2
    assert verify_relations(M)
    assert central_character_of_module(M) == (i, Scalar(0))
    gen_s, gen_eps = scalar_generators(M)
    gen_eps[0][1][1] = q(gen_eps[0][1][1]) + 1
    assert not quotient_relations_hold(_explicit_module(gen_s, gen_eps))
    assert _rejected(_with_diagonal(M, 0, 1, 1))
    assert _rejected(_with_entry(M, 0, 0, 1, 1))
    # a perturbation of an imaginary part alone is caught too
    M = build_standard_module(parse_segments("{1+1i};{0}"))
    assert verify_relations(M)
    gen_s, gen_eps = scalar_generators(M)
    gen_eps[0][0][0] = q(gen_eps[0][0][0]) + i
    assert not quotient_relations_hold(_explicit_module(gen_s, gen_eps))
    assert _rejected(_with_diagonal(M, 0, 0, i))
    assert _rejected(_with_entry(M, 1, 0, 1, 1))
    # the tables and N of a non-real module: a 3-cycle, a flipped sign of
    # s_{k-2}, and an entry of eps_{k-1}
    M = build_standard_module(parse_segments("{1+1i};{0};{2}"))
    assert M.dim >= 3 and verify_relations(M)
    assert _rejected(_with_table(M, 0, target=[1, 2, 0, *range(3, M.dim)]))
    sign = M.s_sign[M.k - 2].copy()
    sign[0] *= -1
    assert _rejected(_with_table(M, M.k - 2, sign=sign))
    assert _rejected(_with_entry(M, M.k - 1, 0, M.dim - 1, 1))
    # denominators in both parts share one scale
    nu = Scalar(Fraction(1, 2), Fraction(1, 3))
    M = build_standard_module(parse_segments("{1/2+1/3i};{0}"))
    assert verify_relations(M)
    assert quotient_relations_hold(_explicit_module(*scalar_generators(M)))
    assert central_character_of_module(M) == (nu, Scalar(0))


def test_shifted_central_character_catches_corrupted_e_d():
    # a start of 2**40 puts the dense oracle on object arrays
    big = 1 << 40
    M = build_standard_module(Multisegment((Segment(Scalar(big), 2), Segment(Scalar(big), 1))))
    assert _compact_operators(M, 3)[1][0][0].dtype == object
    assert central_character_of_module(M) == (Scalar(big + 1), Scalar(big), Scalar(big))
    texts = ("{1001};{1000}", "{1};{0}", "{1000,1001,1002}", "{1+1i};{0}", str(M.ms))
    for text in texts + ("{4};{3};{2};{1};{0}",):
        M = build_standard_module(parse_segments(text))
        central_character_of_module(M)
        # move eps_0[0, 0] up and eps_{k-1}[0, 0] down by one: e_1 is
        # unchanged and e_2 is not, and the relations fail
        bad = _with_entry(_with_entry(M, 0, 0, 0, 1), M.k - 1, 0, 0, -1)
        with pytest.raises(ValueError, match="polynomial 2 is not"):
            _ref_central_character(bad)
        with pytest.raises(ValueError, match="fails the defining relations"):
            central_character_of_module(bad)


def _direct_sum(M, N):
    """M (+) N for modules of the same k: the tables of N after those of M,
    its basis indices offset by M.dim and its pos by M.k, the weights
    concatenated."""
    return dataclasses.replace(
        M,
        dim=M.dim + N.dim,
        chi=M.chi + N.chi,
        s_target=np.concatenate([M.s_target, N.s_target + M.dim], axis=1),
        s_sign=np.concatenate([M.s_sign, N.s_sign], axis=1),
        pos=np.concatenate([M.pos, N.pos + M.k], axis=1),
        nilpotent=tuple(
            a + tuple((r + M.dim, c + M.dim, v) for r, c, v in b)
            for a, b in zip(M.nilpotent, N.nilpotent)
        ),
    )


def test_central_character_certificate_has_teeth():
    # {1};{0} (+) {2};{0} satisfies the relations, and e_1 = eps_0 + eps_1
    # acts by 1 on the first summand and by 2 on the second: e_0 generates
    # only the first
    M, N = (build_standard_module(parse_segments(t)) for t in ("{1};{0}", "{2};{0}"))
    both = _direct_sum(M, N)
    assert verify_relations(both) and _ref_verify_compact(both)
    e1 = [[q(a) + b for a, b in zip(*rows)] for rows in zip(*scalar_generators(both)[1])]
    assert e1 != [[e1[0][0] if r == c else Scalar(0) for c in range(4)] for r in range(4)]
    with pytest.raises(ValueError, match="does not generate"):
        central_character_of_module(both)
    # a moved eps_0[0, 0]: e_0 is still a weight vector and generates, and
    # the relations fail
    with pytest.raises(ValueError, match="fails the defining relations"):
        central_character_of_module(_with_diagonal(M, 0, 0, 1))
    # {0};{0} with eps_0 = s_0 and eps_1 = 0: the relations hold and e_0
    # generates, but eps_0 e_0 = e_1, and e_1 = s_0 is not scalar
    Z = build_standard_module(parse_segments("{0};{0}"))
    bad = _with_entry(_with_entry(Z, 0, 1, 0, 1), 1, 0, 1, 1)
    assert verify_relations(bad) and _ref_verify_compact(bad)
    zero, one = Scalar(0), Scalar(1)
    assert scalar_generators(bad)[1] == [[[zero, one], [one, zero]], [[zero, zero]] * 2]
    with pytest.raises(ValueError, match="not a weight vector"):
        central_character_of_module(bad)
    with pytest.raises(ValueError, match="polynomial 1 is not"):
        _ref_central_character(bad)


def test_central_character_of_module():
    M = build_standard_module(steinberg_param(3))
    assert central_character_of_module(M) == (Scalar(1), Scalar(0), Scalar(-1))
    # e_1 acts by the sum of the weight coordinates
    M2 = build_standard_module(parse_segments("{3};{1}"))
    eps = scalar_generators(M2)[1]
    e1 = [[q(a) + b for a, b in zip(ra, rb)] for ra, rb in zip(eps[0], eps[1])]
    assert e1 == [[Scalar(4 if r == c else 0) for c in range(M2.dim)] for r in range(M2.dim)]
    # multiset equals the support for every constructed module
    for spec_text in ["{0,1};{-1,0}", "{2};{1,2};{0}"]:
        ms = parse_segments(spec_text)
        assert central_character_of_module(build_standard_module(ms)) == ms.support()


def test_non_dominant_orderings_still_induce():
    ms = parse_segments("{0};{2}")  # centers increase: not dominant
    M = build_standard_module(ms)
    assert verify_relations(M)
    assert central_character_of_module(M) == (Scalar(2), Scalar(0))


def test_intertwiner_single_segment():
    ms = steinberg_param(3)
    d, mats = intertwiner_space(ms, reversed_ordering(ms))
    assert d == 1
    assert rank(mats[0]) == 1


def test_intertwiner_unlinked():
    ms = parse_segments("{3};{1}")
    d, mats = intertwiner_space(ms, reversed_ordering(ms))
    assert d == 1
    assert rank(mats[0]) == 2  # invertible


def test_intertwiner_linked():
    ms = parse_segments("{1/2};{-1/2}")
    d, mats = intertwiner_space(ms, reversed_ordering(ms))
    assert d == 1
    assert rank(mats[0]) == 1


def _nullspace_intertwiners(ms_from, ms_to):
    """Reference Hom space: the nullspace of T A = B T over all d1*d2 entries
    of T, for every pair (A, B) of matching generator matrices."""
    m1, m2 = build_standard_module(ms_from), build_standard_module(ms_to)
    d1, d2 = m1.dim, m2.dim
    rows = []
    for A, B in zip(sum(scalar_generators(m1), []), sum(scalar_generators(m2), [])):
        for i in range(d2):
            for j in range(d1):
                row = [Q(0)] * (d1 * d2)
                for c in range(d1):
                    row[i * d1 + c] += A[c][j]
                for r in range(d2):
                    row[r * d1 + j] -= B[i][r]
                if any(row):
                    rows.append(row)
    return [[v[i * d1 : (i + 1) * d1] for i in range(d2)] for v in nullspace(rows)]


# {1};{0};{1} has a two-dimensional Hom space from itself to itself
ORACLE_MULTISETS = [
    "{1};{0};{1}",
    "{0,1};{-1,0}",
    "{1+1i};{0+1i}",
    "{1/2};{-1/2}",
    "{3};{1}",
    "{0};{0}",
    "{0,1};{0}",
    "{1,2};{0}",
]


def _ordering_pairs(text):
    orderings = {Multisegment(p) for p in itertools.permutations(parse_segments(text).segments)}
    return itertools.product(sorted(orderings, key=str), repeat=2)


def _ref_intertwiners(m1, m2):
    """Reference Hom basis on dense Scalar matrices: the reduced-echelon
    nullspace of the system for the generator image, then T column by
    column."""
    d2 = m2.dim
    eye = identity(d2)
    rows = []
    gen_s, gen_eps = scalar_generators(m2)
    for i, g in enumerate(gen_s):
        if m1.s_sign[i, 0] == -1:  # s_i lies inside a block of the source
            rows.extend([x + e for x, e in zip(gr, er)] for gr, er in zip(g, eye))
    for c, g in zip(m1.chi, gen_eps):
        rows.extend([x - c * e for x, e in zip(gr, er)] for gr, er in zip(g, eye))

    # e_b = s_i e_b2 with b2 < b for some i, so column b is s_i of column b2
    steps = []
    for b in range(1, m1.dim):
        i = next(i for i in range(m1.k - 1) if m1.s_sign[i, b] == 1 and m1.s_target[i, b] < b)
        steps.append((m2.s_target[i].tolist(), m2.s_sign[i].tolist(), int(m1.s_target[i, b])))
    mats = []
    for u in nullspace(rows):
        cols = [u]
        for target, sign, b2 in steps:
            col = [Scalar(0)] * d2
            for x, t, sg in zip(cols[b2], target, sign):
                col[t] = x if sg == 1 else -x
            cols.append(col)
        mats.append([list(row) for row in zip(*cols)])
    return len(mats), mats


def _ref_irreducible_quotient(m2, T):
    """Reference quotient on dense Scalar matrices, from the intertwiner T
    into m2: the image of T's greedy pivot columns, and the action that
    solve_columns finds on it, as (dim, gen_s, gen_eps)."""
    _, pivots = rref(T)
    image = [[T[r][c] for c in pivots] for r in range(m2.dim)]
    quotient_dim = len(pivots)
    # one reduction for all 2k-1 right-hand sides g*image, side by side
    gens = sum(scalar_generators(m2), [])
    products = [mat_mul(g, image) for g in gens]
    x = solve_columns(image, [sum(rows, []) for rows in zip(*products)])
    gen_q = [
        [row[t * quotient_dim : (t + 1) * quotient_dim] for row in x] for t in range(len(gens))
    ]
    return quotient_dim, gen_q[: m2.k - 1], gen_q[m2.k - 1 :]


def test_intertwiner_matches_nullspace_oracle():
    for text in ORACLE_MULTISETS:
        for ms_from, ms_to in _ordering_pairs(text):
            expected = _nullspace_intertwiners(ms_from, ms_to)
            d, mats = intertwiner_space(ms_from, ms_to)
            assert d == len(expected) >= 1, (ms_from, ms_to)
            flat = [[x for row in T for x in row] for T in mats + expected]
            assert rank(flat) == d, (ms_from, ms_to)
            # and exactly the reduced-echelon basis of the Scalar route
            m1, m2 = build_standard_module(ms_from), build_standard_module(ms_to)
            assert (d, mats) == _ref_intertwiners(m1, m2), (ms_from, ms_to)
    # here eps-weight vectors alone give a two-dimensional space: the Young
    # subgroup of a length-2 block must also act by sign (the dimension 1
    # is the nullspace oracle's, which takes about 30 s for each of these pairs)
    for text in ["{0,1};{0};{1}", "{-1,0};{1};{0}"]:
        for ms_from, ms_to in _ordering_pairs(text):
            m1, m2 = build_standard_module(ms_from), build_standard_module(ms_to)
            assert intertwiner_space(ms_from, ms_to) == _ref_intertwiners(m1, m2)
        ms = parse_segments(text)
        M = build_standard_module(ms)
        d, mats = intertwiner_space(ms, ms)
        assert d == 1
        for g in sum(scalar_generators(M), []):
            assert mat_mul(mats[0], g) == mat_mul(g, mats[0])


POOL = Path(__file__).resolve().parents[1] / "bench" / "pools" / "quotients.json"


def test_quotient_matches_scalar_reference():
    # every dominant input of the quotients benchmark pool, the dominant
    # orderings of the oracle multisets, Gaussian and half-integer weights,
    # and weights past int64, which take the object-dtype path
    big = 1 << 70
    texts = [item["input"] for item in json.loads(POOL.read_text())["items"]]
    texts += ORACLE_MULTISETS + ["{1+1i};{0}", "{1/2+1/3i};{-1/2+1/3i}"]
    texts += [f"{{{big},{big + 1}}};{{{big - 1}}};{{{big + 5}}}"]
    texts += [f"{{{big}+{big}i}};{{{big - 1}+{big}i}}"]
    for text in texts:
        ms = dominant_representative(parse_segments(text))
        rev = reversed_ordering(ms)
        m2 = build_standard_module(rev)
        d, mats = _ref_intertwiners(build_standard_module(ms), m2)
        assert intertwiner_space(ms, rev) == (d, mats), text
        if d != 1:
            with pytest.raises(RuntimeError, match=f"dimension {d}"):
                irreducible_quotient(ms)
            continue
        q = irreducible_quotient(ms)
        assert (q.dim, *scalar_generators(q)) == _ref_irreducible_quotient(m2, mats[0]), text
        assert quotient_relations_hold(q), text


def test_conflicting_young_orbit_is_forced_to_zero():
    # in a genuine module both Young subgroups act through the sign, so no
    # orbit conflicts; a doctored sign makes the Young rows of an orbit
    # conflict, and the Scalar nullspace agrees that those coordinates vanish.
    # In the module itself the eps rows already force them to zero; a target
    # whose eps_j act by chi_j alone leaves the Young rows as the only check
    m1 = build_standard_module(parse_segments("{0,1};{5}"))
    pos = np.repeat(np.arange(m1.k)[:, None], m1.dim, axis=1)
    flat = dataclasses.replace(m1, pos=pos, nilpotent=((),) * m1.k)
    kept = 0
    for target in (m1, flat):
        for b in range(m1.dim):
            sign = m1.s_sign.copy()
            sign[0, b] = -sign[0, b]
            bad = dataclasses.replace(target, s_sign=sign)
            mats = _intertwiners(m1, _compact_operators(m1, 3), _compact_operators(bad, 3))
            _, ref = _ref_intertwiners(m1, bad)
            assert [_scalar_matrix(T, den, False) for T, den in mats] == ref
            kept += len(ref)
    assert kept > 0


def test_echelon_matches_scalar_rref():
    rng = random.Random(0)
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        a = [[rng.choice([0, 0, 0, 1, -1, 2, -3]) for _ in range(n_cols)] for _ in range(n_rows)]
        found = _echelon([{c: x for c, x in enumerate(row) if x} for row in a])
        ref, pivots = rref([[Scalar(x) for x in row] for row in a])
        assert [c for c, _ in found] == pivots
        for (c, row), ref_row in zip(found, ref):
            assert [Scalar(Fraction(row.get(x, 0), row[c])) for x in range(n_cols)] == ref_row


@pytest.mark.parametrize(
    "text, std_dim, quotient_dim",
    [
        ("{2,3};{1};{0};{-1}", 60, 4),
        ("{1,2,3};{0,1};{0}", 60, 30),
        ("{4};{3};{2};{1};{0}", 120, 1),
        # pairwise unlinked (Zelevinsky), so the standard module is irreducible
        ("{9};{5,6};{0,1,2}", 60, 60),
    ],
)
def test_large_quotients(text, std_dim, quotient_dim):
    ms = parse_segments(text)
    # irreducible_quotient raises unless the target's relations and the
    # invariance identity hold, which certify the quotient's relations
    q = irreducible_quotient(ms)
    assert (build_standard_module(ms).dim, q.dim) == (std_dim, quotient_dim)
    assert quotient_relations_hold(q)


def test_quotient_invariance_check_fails_loudly():
    ms = parse_segments("{0,1};{-1,0}")
    m1, m2 = build_standard_module(ms), build_standard_module(reversed_ordering(ms))
    ops1, ops2 = _compact_operators(m1, 3), _compact_operators(m2, 3)
    [(T, _)] = _intertwiners(m1, ops1, ops2)
    piv, C, den = _column_basis(T)
    image = T[:, piv]
    _quotient_action(ops1, ops2, image, C, den, piv)
    for r, c in itertools.product(range(image.shape[0]), range(image.shape[1])):
        tampered = image.copy()
        tampered[r, c] += 1
        with pytest.raises(RuntimeError, match="not invariant"):
            _quotient_action(ops1, ops2, tampered, C, den, piv)


def test_quotient_builds_each_modules_operators_once(monkeypatch):
    calls = []
    build = heckemod._compact_operators

    def counted(M, *args):
        calls.append(M.ms)
        return build(M, *args)

    monkeypatch.setattr(heckemod, "_compact_operators", counted)
    ms = parse_segments("{0,1};{-1,0}")
    irreducible_quotient(ms)
    # the source's operators serve the intertwiner and the quotient action
    assert calls == [ms, reversed_ordering(ms)]


def test_quotient_failure_exits_raise(monkeypatch):
    ms = parse_segments("{0,1};{-1,0}")
    solve = heckemod._solve_intertwiners

    def twice(*args):
        target, ops1, ops2, mats = solve(*args)
        return target, ops1, ops2, mats * 2

    monkeypatch.setattr(heckemod, "_solve_intertwiners", twice)
    with pytest.raises(RuntimeError, match="dimension 2"):
        irreducible_quotient(ms)
    monkeypatch.setattr(heckemod, "_solve_intertwiners", solve)
    monkeypatch.setattr(heckemod, "verify_relations", lambda module: False)
    with pytest.raises(RuntimeError, match="reversed ordering's module fails the defining"):
        irreducible_quotient(ms)


def _doctored_target(monkeypatch, ms, doctor):
    """Let build_standard_module hand out doctor(M) for the module M of the
    reversed ordering of ms, and every other module as built."""
    build, rev = heckemod.build_standard_module, reversed_ordering(ms)
    monkeypatch.setattr(
        heckemod, "build_standard_module", lambda m: doctor(build(m)) if m == rev else build(m)
    )


def test_quotient_certificate_has_teeth(monkeypatch):
    # {0,1};{0} into {0};{0,1} with the sign of s_1 on e_0 flipped: the
    # intertwiner space is still a line and its image invariant, and the
    # quotient is the line where s_0 acts by -1 and s_1 by +1, which breaks
    # the braid relation; only the target's relation check refuses it
    ms = parse_segments("{0,1};{0}")
    m1, m2 = build_standard_module(ms), build_standard_module(reversed_ordering(ms))
    flip = np.ones(m2.dim, dtype=int)
    flip[0] = -1
    bad = _with_table(m2, 1, sign=m2.s_sign[1] * flip)
    ops1, ops2 = _compact_operators(m1, 3), _compact_operators(bad, 3)
    [(T, _)] = _intertwiners(m1, ops1, ops2)
    piv, C, den = _column_basis(T)
    s, eps, scale = _quotient_action(ops1, ops2, T[:, piv], C, den, piv)
    assert [int(x[0, 0]) for x in s] == [-scale, scale]
    assert not quotient_relations_hold(QuotientModule(ms, len(piv), s, eps, scale, False))
    assert quotient_relations_hold(irreducible_quotient(ms))
    _doctored_target(monkeypatch, ms, lambda M: _with_table(M, 1, sign=M.s_sign[1] * flip))
    with pytest.raises(RuntimeError, match="reversed ordering's module fails the defining"):
        irreducible_quotient(ms)
    monkeypatch.undo()
    # {1};{0} into {0};{1} with its one N_0 entry moved onto the diagonal:
    # unchecked, the intertwiner and the image still give a quotient
    ms = parse_segments("{1};{0}")
    m1, m2 = build_standard_module(ms), build_standard_module(reversed_ordering(ms))
    bad = _moved_entry(m2, 0)
    assert not verify_relations(bad)
    ops1, ops2 = _compact_operators(m1, 3), _compact_operators(bad, 3)
    [(T, _)] = _intertwiners(m1, ops1, ops2)
    piv, C, den = _column_basis(T)
    _quotient_action(ops1, ops2, T[:, piv], C, den, piv)
    _doctored_target(monkeypatch, ms, lambda M: _moved_entry(M, 0))
    with pytest.raises(RuntimeError, match="reversed ordering's module fails the defining"):
        irreducible_quotient(ms)


def test_verify_relations_takes_modules_only():
    gen_s, gen_eps = scalar_generators(build_standard_module(parse_segments("{1};{0}")))
    with pytest.raises(TypeError):
        verify_relations(gen_s, gen_eps)
    with pytest.raises(TypeError, match="takes a StandardModule, not list"):
        verify_relations(gen_s)
    # a quotient is certified where it is built, not checked afterwards
    q = irreducible_quotient(parse_segments("{1};{0}"))
    with pytest.raises(TypeError, match="takes a StandardModule, not QuotientModule"):
        verify_relations(q)


def test_intertwiner_rejects_mismatched_multisets():
    with pytest.raises(ValueError):
        intertwiner_space(parse_segments("{1}"), parse_segments("{0}"))


def test_quotients():
    assert irreducible_quotient(steinberg_param(4)).dim == 1
    assert irreducible_quotient(parse_segments("{1/2};{-1/2}")).dim == 1
    assert irreducible_quotient(parse_segments("{3};{1}")).dim == 2
    q = irreducible_quotient(parse_segments("{1+1i};{0+1i}"))
    assert q.dim == 1
    assert quotient_relations_hold(_explicit_module(*scalar_generators(q)))
    q = irreducible_quotient(parse_segments("{3};{2};{1};{0}"))
    assert q.dim == 1
    assert quotient_relations_hold(_explicit_module(*scalar_generators(q)))
    with pytest.raises(ValueError):
        irreducible_quotient(parse_segments("{0};{2}"))


def _linked(a, b):
    """Zelevinsky's relation: the union of the segments is a segment that
    contains neither of them."""
    shift = q(b.start) - a.start
    if not shift.is_integer:
        return False
    s1, e1, s2, e2 = 0, a.length - 1, int(shift.re), int(shift.re) + b.length - 1
    union_is_segment = s2 <= e1 + 1 and s1 <= e2 + 1
    nested = (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2)
    return union_is_segment and not nested


def test_unlinked_segments_give_irreducible_standard_modules():
    # Zelevinsky (Ann. ENS 1980): pairwise unlinked segments induce an
    # irreducible module, so the quotient is the whole standard module
    for text in ["{3};{1}", "{4};{2};{0}", "{0};{0}", "{2,3};{0}", "{0,1,2};{1}", "{1+1i};{0}"]:
        ms = dominant_representative(parse_segments(text))
        assert not any(_linked(a, b) for a, b in itertools.combinations(ms.segments, 2))
        assert irreducible_quotient(ms).dim == build_standard_module(ms).dim, text
    ms = parse_segments("{1/2};{-1/2}")
    assert _linked(*ms.segments)
    assert irreducible_quotient(ms).dim < build_standard_module(ms).dim


def test_speh_quotient_and_complement():
    speh = parse_segments("{0,1};{-1,0}")
    q = irreducible_quotient(speh)
    assert q.dim == 2
    assert len(scalar_generators(q)[1]) == 4
    assert quotient_relations_hold(_explicit_module(*scalar_generators(q)))
    # the kernel matches the induced module of the nested pair
    nested = build_standard_module(parse_segments("{-1,0,1};{0}"))
    assert build_standard_module(speh).dim == q.dim + nested.dim


def test_quotient_of_equal_singletons_is_whole_module():
    ms = parse_segments("{0};{0}")
    assert irreducible_quotient(ms).dim == 2


def test_sign_isotypic_multiplicity():
    assert sign_isotypic_multiplicity(build_standard_module(steinberg_param(3))) == 1
    assert sign_isotypic_multiplicity(build_standard_module(parse_segments("{0,1};{-1,0}"))) >= 1
    # trivial Young subgroup: every coordinate contributes
    M = build_standard_module(parse_segments("{1};{0}"))
    assert sign_isotypic_multiplicity(M) == M.dim


def test_module_json_dump():
    M = build_standard_module(parse_segments("{1/2};{-1/2}"))
    obj = module_to_json(M)
    assert obj["dim"] == 2
    assert obj["param"] == {"segments": [{"start": "1/2", "len": 1}, {"start": "-1/2", "len": 1}]}
    assert obj["eps"][0] == ["1/2", "1", "0", "-1/2"]
    assert len(obj["s"]) == 1 and len(obj["s"][0]) == 4

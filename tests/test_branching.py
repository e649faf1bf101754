import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glhecke import branching
from glhecke.branching import (
    SGN,
    TRIV,
    V,
    hom_multiplicity,
    tensor_o2,
    tensor_power_standard,
    total_dimension,
)
from glhecke.realparams import GL2Factor, enumerate_real_params, parse_factors
from glhecke.sweeps import lambda_window


def _ref_tensor_power(slot_kinds, k):
    """Reference for the int-coded table: the k-fold expansion on O2Label
    tuples, in the given slot order, through ``tensor_o2``."""
    state = {tuple(TRIV for _ in slot_kinds): 1}
    for _ in range(k):
        nxt = {}
        for labels, mult in state.items():
            for i, kind in enumerate(slot_kinds):
                summands = tensor_o2(labels[i], V(1) if kind == "o2" else SGN)
                for lab in summands:
                    key = labels[:i] + (lab,) + labels[i + 1 :]
                    nxt[key] = nxt.get(key, 0) + mult
        state = nxt
    return state


labels = st.one_of(
    st.just(TRIV), st.just(SGN), st.integers(min_value=1, max_value=8).map(V)
)


def _mset(labs):
    return sorted(map(str, labs))


def test_label_validation():
    with pytest.raises(ValueError):
        V(0)
    with pytest.raises(ValueError):
        V(-1)


def test_tensor_rules():
    assert _mset(tensor_o2(V(1), V(1))) == ["1", "V(2)", "sgn"]
    assert tensor_o2(TRIV, V(3)) == (V(3),)
    assert tensor_o2(SGN, SGN) == (TRIV,)
    assert tensor_o2(SGN, V(2)) == (V(2),)
    assert _mset(tensor_o2(V(3), V(1))) == ["V(2)", "V(4)"]


@given(labels, labels)
def test_tensor_commutative(a, b):
    assert _mset(tensor_o2(a, b)) == _mset(tensor_o2(b, a))


@given(labels, labels, labels)
def test_tensor_associative_on_multisets(a, b, c):
    left = [z for y in tensor_o2(a, b) for z in tensor_o2(y, c)]
    right = [z for y in tensor_o2(b, c) for z in tensor_o2(a, y)]
    assert _mset(left) == _mset(right)


@given(labels, labels)
def test_tensor_dimension_additive(a, b):
    assert sum(x.dim for x in tensor_o2(a, b)) == a.dim * b.dim


def test_zeroth_power_is_trivial():
    decomp = tensor_power_standard(2, 1, 0)
    assert decomp == {(TRIV, TRIV, TRIV): 1}


def test_v1_cubed():
    # third power of V(1) on a single O(2) slot: V(3) once, V(1) three times
    decomp = tensor_power_standard(1, 0, 3)
    assert decomp[(V(3),)] == 1
    assert decomp[(V(1),)] == 3
    assert set(decomp) == {(V(3),), (V(1),)}


def test_dimension_conservation():
    for s, m, k in [(1, 1, 2), (1, 0, 4), (2, 1, 3), (0, 3, 4), (3, 0, 4)]:
        n = 2 * s + m
        assert total_dimension(tensor_power_standard(s, m, k)) == n**k


def test_negative_slot_counts_are_refused():
    for s, m in [(-1, 2), (2, -1)]:
        with pytest.raises(ValueError, match="s and m must be >= 0"):
            tensor_power_standard(s, m, 1)


def test_hom_multiplicity_examples():
    # two trivial characters at n = k = 2
    p = parse_factors("gl1(triv,1);gl1(triv,0)")
    assert hom_multiplicity(p, 2) == 2
    # one length-3 block at n = 2, k = 3: V(3) inside V(1)^{x3}
    p = parse_factors("gl2(3,0)")
    assert hom_multiplicity(p, 3) == 1
    # above the level the multiplicity vanishes
    assert hom_multiplicity(parse_factors("gl2(4,0)"), 3) == 0
    assert hom_multiplicity(parse_factors("gl1(triv,0);gl1(triv,1)"), 1) == 0


def test_hom_multiplicity_domain():
    with pytest.raises(ValueError):
        hom_multiplicity(parse_factors("gl1(sgn,0)"), 1)  # level 0 < k


def test_mixed_factor_order():
    p = parse_factors("gl1(triv,5);gl2(2,0);gl1(sgn,3)")
    assert hom_multiplicity(p, 3) == 3  # 3!/1!2!0!


def test_tensor_power_matches_label_reference():
    for s, m in itertools.product(range(5), repeat=2):
        if s + m <= 4:
            for k in range(7):
                ref = _ref_tensor_power(("o2",) * s + ("o1",) * m, k)
                assert tensor_power_standard(s, m, k) == ref, (s, m, k)


def test_hom_multiplicity_matches_label_reference():
    ref = {}
    for n in range(1, 6):
        for lam in lambda_window(n, n):
            for p in enumerate_real_params(lam, 0):
                kinds = tuple("o2" if isinstance(f, GL2Factor) else "o1" for f in p.factors)
                target = tuple(
                    V(f.l) if isinstance(f, GL2Factor) else SGN if f.eps == "triv" else TRIV
                    for f in p.factors
                )
                for k in range(p.level + 1):
                    if (kinds, k) not in ref:
                        ref[kinds, k] = _ref_tensor_power(kinds, k)
                    assert hom_multiplicity(p, k) == ref[kinds, k].get(target, 0), (p, k)


def test_table_memo_is_bounded_and_canonical():
    # the weights sweep calls hom_multiplicity(p, p.level) for 1 <= level <= n;
    # a class with s GL(2) and m GL(1) factors (2s + m = n) has level at least
    # 2s, and rho_n has a class of each such shape at each level, so rho_1..rho_7
    # need every table that any weight with n <= 7 needs
    branching._table.cache_clear()
    keys = set()
    for n in range(1, 8):
        for p in enumerate_real_params(tuple(range(n - 1, -1, -1)), 1):
            if p.level <= n:
                hom_multiplicity(p, p.level)
                keys.add((n, sum(isinstance(f, GL2Factor) for f in p.factors), p.level))
    chain = sum(n + 1 for n, _ in {key[:2] for key in keys})  # k = 0..n per (s, m)
    info = branching._table.cache_info()
    assert len(keys) == 62 and info.currsize == info.misses == chain == 109
    assert branching._table.cache_parameters()["maxsize"] == branching.MEMO_SIZE >= chain

    # one table fills its chain k = 0..3 and nothing else; repeat calls hit
    branching._table.cache_clear()
    branching._table(1, 2, 3)
    info = branching._table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (4, 4, 0)
    for k in range(4):
        branching._table(1, 2, k)
    tensor_power_standard(1, 2, 3)
    assert hom_multiplicity(parse_factors("gl1(triv,5);gl2(2,0);gl1(sgn,3)"), 3) == 3
    info = branching._table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (4, 4, 6)
    with pytest.raises(TypeError):
        branching._table(1, 2, 3)[(0, 0, 0)] = 1  # the cached table is read-only
    # the public result is the caller's own dict
    key = (V(1), SGN, SGN)
    tensor_power_standard(1, 2, 3)[key] = 99
    assert tensor_power_standard(1, 2, 3)[key] == 6


def test_long_chain_is_filled_without_deep_recursion():
    # one tensoring step per level: a chain far past the memo and the
    # recursion limit is filled from the bottom up
    assert hom_multiplicity(parse_factors("gl2(1500,0)"), 1500) == 1
    assert branching._table.cache_info().currsize == branching.MEMO_SIZE

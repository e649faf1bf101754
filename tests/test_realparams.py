import copy
import dataclasses
import itertools
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glhecke import realparams
from glhecke.realparams import (
    GL1Factor,
    GL2Factor,
    RealParam,
    _factor_key,
    canonical_class,
    enumerate_real_params,
    factors_str,
    is_dominant,
    parse_factors,
    real_param_from_json,
    real_param_to_json,
)
from glhecke.multisegments import Multisegment, Segment, parse_segments
from glhecke.scalars import Scalar
from glhecke.sweeps import lambda_window

nu_values = st.builds(Scalar, st.fractions(max_denominator=6), st.fractions(max_denominator=6))
factors = st.one_of(
    st.builds(GL1Factor, st.sampled_from(["triv", "sgn"]), nu_values),
    st.builds(GL2Factor, st.integers(min_value=2, max_value=6), nu_values),
)
params = st.builds(RealParam, st.lists(factors, max_size=5).map(tuple))


def test_factor_validation():
    with pytest.raises(ValueError):
        GL1Factor("bogus", Scalar(0))
    with pytest.raises(ValueError):
        GL2Factor(1, Scalar(0))


def test_level_cases():
    assert RealParam((GL1Factor("triv", Scalar(5)),)).level == 1
    assert RealParam((GL1Factor("sgn", Scalar(5)),)).level == 0
    assert RealParam((GL2Factor(5, Scalar(0)),)).level == 5
    assert RealParam(()).level == 0
    # spherical minimal principal series: n trivial characters
    sph = RealParam(tuple(GL1Factor("triv", Scalar(3 - i)) for i in range(4)))
    assert sph.level == sph.n == 4


def test_factor_level_is_a_field_computed_once():
    x = Scalar(Fraction(1, 3), 2)
    cases = [
        (GL1Factor("triv", x), 1, "GL1Factor(eps='triv', nu=Scalar('1/3+2i'))"),
        (GL1Factor("sgn", x), 0, "GL1Factor(eps='sgn', nu=Scalar('1/3+2i'))"),
        (GL2Factor(3, x), 3, "GL2Factor(l=3, nu=Scalar('1/3+2i'))"),
    ]
    for f, level, shown in cases:
        fields = (f.eps,) if isinstance(f, GL1Factor) else (f.l,)
        assert f.level == level and repr(f) == shown, f
        # not compared, not hashed, not shown: the forms of the two fields
        assert f == type(f)(*fields, x) and hash(f) == hash((*fields, x))
        assert f != type(f)(*fields, Scalar(0))
        assert parse_factors(str(f)).factors == (f,)
        for twin in (copy.copy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and hash(twin) == hash(f) and twin.level == level, f
    assert str(cases[0][0]) == "gl1(triv,1/3+2i)" and str(cases[2][0]) == "gl2(3,1/3+2i)"
    assert dataclasses.replace(GL1Factor("triv", x), eps="sgn").level == 0
    assert dataclasses.replace(GL2Factor(2, x), l=5).level == 5
    with pytest.raises(TypeError):
        GL1Factor("triv", x, level=0)
    with pytest.raises(TypeError):
        GL2Factor(2, x, level=2)


def test_level_additive_over_concatenation():
    a = parse_factors("gl2(3,1);gl1(sgn,0)")
    b = parse_factors("gl1(triv,2)")
    assert RealParam(a.factors + b.factors).level == a.level + b.level


def test_infinitesimal_character():
    # a length-n factor centered at 0 carries the endpoints +-(n-1)/2
    p = RealParam((GL2Factor(4, Scalar(0)),))
    assert p.infinitesimal_character() == (Scalar(Fraction(3, 2)), Scalar(Fraction(-3, 2)))
    assert RealParam((GL1Factor("triv", Scalar(3)),)).infinitesimal_character() == (Scalar(3),)
    p = parse_factors("gl1(sgn,1/2);gl1(triv,-1/2)")
    assert p.infinitesimal_character() == (Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 2)))
    assert len(p.infinitesimal_character()) == p.n


def test_dominance():
    assert is_dominant(parse_factors("gl1(triv,2);gl2(2,3)"))  # 2 >= 3/2
    assert not is_dominant(parse_factors("gl2(2,3);gl1(triv,2)"))  # 3/2 < 2
    assert is_dominant(parse_factors("gl2(4,0)"))
    assert is_dominant(RealParam(()))


def test_canonical_class_examples():
    # two GL1 factors with equal nu, either order: same canonical form
    a = canonical_class(parse_factors("gl1(triv,2);gl1(sgn,2)"))
    b = canonical_class(parse_factors("gl1(sgn,2);gl1(triv,2)"))
    assert a == b
    # stated sort keys put the slope-2 GL1s after the GL2 of slope 2
    c = canonical_class(parse_factors("gl1(sgn,2);gl1(triv,2);gl2(3,4)"))
    assert factors_str(c) == "gl2(3,4);gl1(triv,2);gl1(sgn,2)"
    assert is_dominant(c)


def test_canonical_class_rejects_non_dominant():
    with pytest.raises(ValueError):
        canonical_class(parse_factors("gl1(triv,0);gl1(triv,1)"))


@given(params)
def test_canonical_class_idempotent_and_multiset_invariant(p):
    dom = RealParam(tuple(sorted(p.factors, key=lambda f: -(f.nu.re / f.size))))
    c = canonical_class(dom)
    assert canonical_class(c) == c
    assert sorted(map(str, c.factors)) == sorted(map(str, p.factors))
    assert c.level == p.level
    assert c.infinitesimal_character() == p.infinitesimal_character()


def test_enumerate_n1():
    assert [factors_str(p) for p in enumerate_real_params((0,), 0)] == [
        "gl1(triv,0)",
        "gl1(sgn,0)",
    ]


def test_enumerate_rejects_bad_lambda():
    with pytest.raises(ValueError):
        enumerate_real_params((0, 1), 0)  # increasing
    with pytest.raises(ValueError):
        enumerate_real_params((Fraction(1, 2), Fraction(-1, 2)), 0)  # non-integral


def test_enumerate_level_filter():
    classes = enumerate_real_params((1, 0), 2)
    assert [factors_str(p) for p in classes] == [
        "gl1(triv,1);gl1(triv,0)",
        "gl2(2,1/2)",
    ]
    # matches the number of multisegment classes with support (1,0)
    assert len(classes) == 2


def test_enumerate_no_duplicates_and_deterministic():
    classes = enumerate_real_params((2, 1, 1, 0), 0)
    assert len(classes) == len(set(map(factors_str, classes)))
    assert classes == enumerate_real_params((2, 1, 1, 0), 0)
    for p in classes:
        assert is_dominant(p)
        assert [int(c.re) for c in p.infinitesimal_character()] == [2, 1, 1, 0]


def test_enumerate_pairs_with_repeated_values():
    # a pair may consume equal lower values through different copies
    classes = enumerate_real_params((2, 2, 1, 0), 0)
    reprs = set(map(factors_str, classes))
    assert "gl2(2,3/2);gl2(3,1)" in reprs or "gl2(3,1);gl2(2,3/2)" in reprs


def test_level_bookkeeping_consistency():
    # level = #entries + sum_gl2(l-2) - #sgn, against the factor-wise sum
    for p in enumerate_real_params((3, 2, 1, 0), 0):
        gl2 = [f for f in p.factors if isinstance(f, GL2Factor)]
        sgn = [f for f in p.factors if isinstance(f, GL1Factor) and f.eps == "sgn"]
        alt = p.n + sum(f.l - 2 for f in gl2) - len(sgn)
        assert alt == p.level


def test_json_round_trip_matches_schema():
    p = parse_factors("gl1(triv,1/2);gl2(4,-1/3)")
    obj = real_param_to_json(p)
    assert obj == {
        "factors": [
            {"kind": "gl1", "eps": "triv", "nu": {"re": "1/2", "im": "0"}},
            {"kind": "gl2", "l": 4, "nu": {"re": "-1/3", "im": "0"}},
        ]
    }
    assert real_param_from_json(json.loads(json.dumps(obj))) == p
    # every missing field is named the same way
    gl1, gl2 = obj["factors"]
    cases = [{}] + [{"factors": [{k: v for k, v in gl1.items() if k != drop}]} for drop in gl1]
    cases += [{"factors": [{k: v for k, v in gl2.items() if k != "l"}]}]
    cases += [{"factors": [dict(gl1, nu={"im": "0"})]}]
    for bad, field in zip(cases, ["factors", "kind", "eps", "nu", "l", "re"]):
        with pytest.raises(ValueError, match=f"^missing field '{field}'$"):
            real_param_from_json(bad)


@given(params)
def test_compact_string_round_trip(p):
    assert parse_factors(factors_str(p)) == p


# -- reference: the Fraction-keyed enumerator the integer one replaced ---------


def _ref_cover_options(a, counts):
    yield ("triv",)
    yield ("sgn",)
    for b in sorted(counts, reverse=True):
        if b < a and counts[b] > 0:
            yield ("pair", b)


def _ref_factor_multisets(counts):
    counts = {v: c for v, c in counts.items() if c > 0}
    if not counts:
        yield ()
        return
    a = max(counts)
    mult = counts.pop(a)
    options = list(_ref_cover_options(a, counts))
    for combo in itertools.combinations_with_replacement(range(len(options)), mult):
        chosen = [options[i] for i in combo]
        used = {}
        for opt in chosen:
            if opt[0] == "pair":
                used[opt[1]] = used.get(opt[1], 0) + 1
        if any(used.get(b, 0) > counts.get(b, 0) for b in used):
            continue
        rest = dict(counts)
        for b, c in used.items():
            rest[b] -= c
        head = []
        for opt in chosen:
            if opt[0] == "pair":
                b = opt[1]
                head.append(GL2Factor(a - b + 1, Scalar(Fraction(a + b, 2))))
            else:
                head.append(GL1Factor(opt[0], Scalar(a)))
        for tail in _ref_factor_multisets(rest):
            yield tuple(head) + tail


def _ref_enumerate_real_params(lam, min_level=0):
    counts = {}
    for x in lam:
        counts[x] = counts.get(x, 0) + 1
    out = []
    for factors in _ref_factor_multisets(counts):
        p = canonical_class(RealParam(tuple(sorted(factors, key=_factor_key))))
        if p.level >= min_level:
            out.append(p)
    out.sort(key=lambda p: tuple(_factor_key(f) + (f.size,) for f in p.factors))
    return out


SPREAD_WEIGHTS = [(6, 0), (5, 5, 0), (7, 3, 3, 0), (4, 4, 4, 1, 1)]


def test_enumerate_matches_fraction_keyed_reference():
    # pins the integer keys (same classes, same order) and the level pruning
    # (every min_level up to one past the largest level)
    lams = [lam for n in range(1, 6) for lam in lambda_window(n, n)] + SPREAD_WEIGHTS
    for lam in lams:
        ref = _ref_enumerate_real_params(lam, 0)
        top = max(p.level for p in ref)
        for min_level in range(top + 2):
            # the reference builds every class and then filters on level
            expected = [factors_str(p) for p in ref if p.level >= min_level]
            got = [factors_str(p) for p in enumerate_real_params(lam, min_level)]
            assert got == expected, (lam, min_level)
        assert enumerate_real_params(lam, 0) == ref


def test_min_level_prunes_the_search(monkeypatch):
    # the level bound must cut branches, not filter the finished classes: at
    # the same need, the walk with the bound asks for fewer pieces than
    # without it
    calls, pieces = [], realparams._factor_pieces

    def counted(a, lower):
        calls.append(a)
        return pieces(a, lower)

    rho = tuple(range(5, -1, -1))
    everything = enumerate_real_params(rho, 0)
    monkeypatch.setattr(realparams, "_factor_pieces", counted)
    assert enumerate_real_params(rho, 6) == [p for p in everything if p.level >= 6]
    pruned = len(calls)
    calls.clear()
    unpruned = realparams._cover(rho, counted, 6, None)
    assert unpruned == realparams._cover(rho, pieces, 6, realparams._level_bound)
    assert 0 < pruned < len(calls)


def test_constructors_store_tuples_and_keep_their_checks():
    # a tuple is stored as given; any other iterable is stored as its tuple,
    # equal to and hashing like the tuple-built object
    p = parse_factors("gl2(3,1/2);gl1(triv,0);gl1(sgn,-1)")
    assert RealParam(p.factors).factors is p.factors
    for built in (RealParam(list(p.factors)), RealParam(f for f in p.factors)):
        assert type(built.factors) is tuple
        assert built == p and hash(built) == hash(p) and built.level == p.level == 4
    ms = parse_segments("{1,2};{0}")
    assert Multisegment(ms.segments).segments is ms.segments
    for built in (Multisegment(list(ms.segments)), Multisegment(iter(ms.segments))):
        assert type(built.segments) is tuple and built == ms and hash(built) == hash(ms)
    with pytest.raises(TypeError):
        RealParam(p.factors, level=4)
    for bad in (
        lambda: GL1Factor("bogus", Scalar(0)),
        lambda: GL2Factor(1, Scalar(0)),
        lambda: GL2Factor(Fraction(5, 2), Scalar(0)),
        lambda: Segment(Scalar(0), 0),
        lambda: Segment(Scalar(0), True),
        lambda: Segment(Scalar(0), 2.0),
    ):
        with pytest.raises(ValueError):
            bad()
    for bad in (
        lambda: GL1Factor("triv", 0),
        lambda: GL2Factor(2, Fraction(1, 2)),
        lambda: Segment(1, 2),
    ):
        with pytest.raises(TypeError):
            bad()


def test_level_is_the_sum_of_factor_levels():
    for n in range(1, 6):
        for lam in lambda_window(n, n):
            for p in enumerate_real_params(lam):
                assert p.level == sum(f.level for f in p.factors), p
    # a field computed once: not an argument, not compared, not shown
    p = parse_factors("gl2(3,1/2);gl1(triv,0)")
    assert "level" not in repr(p) and p.level == 4
    q = dataclasses.replace(p, factors=p.factors[:1])
    assert q.level == 3 and q == parse_factors("gl2(3,1/2)")
    assert hash(q) == hash(RealParam(p.factors[:1]))
    with pytest.raises(TypeError):
        RealParam(p.factors, level=4)

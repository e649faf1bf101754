import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glhecke import heckemod, levelmap, multisegments, orbits, realparams
from glhecke.multisegments import Segment
from glhecke.realparams import GL1Factor, GL2Factor
from glhecke.scalars import (
    Scalar,
    parse_rat,
    parse_scalar,
    rat_str,
    scalar_from_json,
    scalar_str,
    scalar_to_json,
)
from linalg_oracle import Q, scalar_generators

rationals = st.fractions(max_denominator=50)
scalars = st.builds(Scalar, rationals, rationals)
gaussians = st.builds(Q, rationals, rationals)  # the test oracles' field


def test_basic_arithmetic():
    a = Q(Fraction(1, 2), 1)
    b = Q(3, Fraction(-1, 3))
    assert a + b == Scalar(Fraction(7, 2), Fraction(2, 3))
    assert a - a == Scalar(0)
    assert a * Scalar(0, 1) == Scalar(-1, Fraction(1, 2))
    assert Q(3) / 2 == Scalar(Fraction(3, 2))
    assert -a == Scalar(Fraction(-1, 2), -1)


def test_division_is_exact_field_division():
    a = Q(1, 2)
    b = Q(3, -1)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_mixed_equality_and_hash():
    assert Scalar(3) == 3
    assert Scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert hash(Scalar(3)) == hash(3)
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert Scalar(3, 1) != 3


def test_copy_and_pickle_round_trips():
    param = realparams.parse_factors("gl2(3,1);gl1(sgn,0)")
    assert param.level == 3  # cached before pickling
    values = [
        Scalar(Fraction(1, 2)),
        Scalar(Fraction(1, 2), -3),
        multisegments.parse_segments("{1/2,3/2};{-1/2+1i}"),
        param,
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value), value
    assert pickle.loads(pickle.dumps(param)).level == 3


def test_halving_stays_exact():
    assert Q(1) / 2 + Q(1) / 2 == 1
    assert (Q(3, 5) / 2).im == Fraction(5, 2)


def test_scalar_is_a_value_without_arithmetic():
    # Scalar + Scalar is all that is left, for the benchmark's pool shifts
    assert Scalar(1) + Scalar(0, 1) == Scalar(1, 1)
    one = Scalar(1)
    for op in (
        lambda: one - one,
        lambda: one * one,
        lambda: one / one,
        lambda: -one,
        lambda: one + 1,
        lambda: 1 + one,
    ):
        with pytest.raises(TypeError):
            op()
    # and the constructors take a Scalar start or nu, never an int or Fraction
    for build, field in (
        (lambda: Segment(3, 2), "start"),
        (lambda: GL1Factor("triv", 0), "nu"),
        (lambda: GL2Factor(2, Fraction(1, 2)), "nu"),
    ):
        with pytest.raises(TypeError, match=f"{field} must be a Scalar"):
            build()


def test_rational_strings():
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert parse_rat("3/6") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rat("3.5")
    with pytest.raises(ValueError):
        parse_rat("3/-4")
    # a zero denominator is a ValueError naming the text, not ZeroDivisionError
    for text in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match=f"zero denominator in rational string: '{text}'"):
            parse_rat(text)


def test_scalar_strings():
    assert scalar_str(Scalar(Fraction(1, 2))) == "1/2"
    assert scalar_str(Scalar(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert parse_scalar("1/2-3/4i") == Scalar(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar("-2+1i") == Scalar(-2, 1)
    assert parse_scalar("-5/7") == Scalar(Fraction(-5, 7))
    with pytest.raises(ValueError):
        parse_scalar("i")
    for text in ("1/0", "1/2+1/0i", "1/0-1i"):
        with pytest.raises(ValueError, match=r"1/0"):
            parse_scalar(text)
    # an implicit coefficient is rejected with the expected form named
    for text in ("1+i", "1-i"):
        with pytest.raises(ValueError, match=r"a\+bi .* e\.g\. 1\+1i"):
            parse_scalar(text)


@given(scalars)
def test_string_round_trip(s):
    assert parse_scalar(scalar_str(s)) == s


@given(scalars)
def test_json_round_trip(s):
    assert scalar_from_json(scalar_to_json(s)) == s


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_field_inverse(a):
    if a:
        assert a / a == 1


def test_hot_paths_do_no_scalar_arithmetic(monkeypatch):
    # Scalar is a boundary type: parsing, every module check, the level map,
    # the orbit map and infinitesimal characters run with Scalar arithmetic off
    lam = (2, 1, 1, 0)

    def forbidden(*args):
        raise AssertionError("Scalar arithmetic on a hot path")

    # __add__ is the one operator a Scalar has
    for name in ("__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__"):
        assert not hasattr(Scalar, name), name
    monkeypatch.setattr(Scalar, "__add__", forbidden)

    parse = multisegments.parse_segments
    modules = ("{1/2,3/2};{-1}", "{1+1i};{0}", "{1+1/3i,2+1/3i};{0}", "{3};{2};{1}")
    modules = [parse(t) for t in modules]
    quotients = [parse(t) for t in ("{3};{1}", "{1/2,3/2};{-1/2,1/2}", "{1+1i};{0+1i}")]
    for ms in modules:
        M = heckemod.build_standard_module(ms)
        assert heckemod.verify_relations(M)
        assert heckemod.central_character_of_module(M) == ms.support()
        gen_s, gen_eps = scalar_generators(M)
        assert len(gen_s) == M.k - 1 and len(gen_eps) == M.k
        if all(c.is_real for c in M.chi):
            assert len(heckemod.module_to_json(M)["eps"]) == M.k
    assert [heckemod.irreducible_quotient(ms).dim for ms in quotients] == [2, 2, 1]

    params = realparams.enumerate_real_params(lam, 0)
    classes = multisegments.enumerate_multisegments(lam)
    assert levelmap.verify_bijection_level_n(lam).bijection_on_support_matching
    for p in params:
        assert levelmap.eigenvalue_identity(p, p.level)
        levelmap.gamma(p, p.level)
        assert sorted(c.re for c in p.infinitesimal_character()) == sorted(lam)
    gl2 = realparams.parse_factors("gl2(3,1/2+1/3i);gl1(sgn,1/5)")
    assert [str(c) for c in gl2.infinitesimal_character()] == ["3/2+1/3i", "1/5", "-1/2+1/3i"]
    assert orbits.verify_psi_wellposed(lam).ok
    assert orbits.verify_injectivity(lam).ok
    for ms in classes + modules:
        assert multisegments.dominant_representative(ms).support() == ms.support()
        assert multisegments.segments_str(ms)

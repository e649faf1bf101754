"""Relative discrete series factors and real parameters.

A parameter is an ordered list of factors, each either a GL(1) character
(``triv`` or ``sgn`` twisted by a scalar ``nu``) or a GL(2) relative discrete
series with lowest O(2)-type ``l >= 2`` and twist ``nu``.  The dominance
condition compares the normalized real parts Re(nu)/size across factors.

The *level* of a factor is 1 for a trivial GL(1) character, 0 for a sign
GL(1) character, and ``l`` for a GL(2) factor; levels add over factors and
measure the lowest compact-group type of the induced module.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence, Union

from .multisegments import Segment, _cover, _validate_integral_lambda, _walk_cover, _walked
from .scalars import (
    Scalar,
    _grid,
    _json_field,
    parse_scalar,
    scalar_from_json,
    scalar_sort_key,
    scalar_str,
    scalar_to_json,
)

__all__ = [
    "GL1Factor",
    "GL2Factor",
    "Factor",
    "RealParam",
    "is_dominant",
    "canonical_class",
    "enumerate_real_params",
    "real_param_to_json",
    "real_param_from_json",
    "factors_str",
    "parse_factors",
]

TRIV = "triv"
SGN = "sgn"


@dataclass(frozen=True)
class GL1Factor:
    eps: str  # 'triv' or 'sgn'
    nu: Scalar
    level: int = field(init=False, compare=False, repr=False)  # 1 for triv, 0 for sgn

    def __post_init__(self):
        if self.eps not in (TRIV, SGN):
            raise ValueError(f"eps must be 'triv' or 'sgn', got {self.eps!r}")
        if not isinstance(self.nu, Scalar):
            raise TypeError(f"factor nu must be a Scalar, got {self.nu!r}")
        object.__setattr__(self, "level", 1 if self.eps == TRIV else 0)

    @property
    def size(self) -> int:
        return 1

    def inf_char(self) -> tuple[Scalar, ...]:
        return (self.nu,)

    @cached_property
    def _image(self) -> Segment | None:  # see levelmap.factor_order_image
        return Segment(self.nu, 1) if self.eps == TRIV else None

    @cached_property
    def _block_start(self) -> tuple[int, int, int]:  # see levelmap.eigenvalue_identity
        return _grid(self.nu)  # the block of a triv factor is {nu}

    def __str__(self):
        return f"gl1({self.eps},{scalar_str(self.nu)})"


@dataclass(frozen=True)
class GL2Factor:
    l: int  # lowest O(2)-type, l >= 2
    nu: Scalar
    level: int = field(init=False, compare=False, repr=False)  # l

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 2:
            raise ValueError(f"GL2 factor needs an integer l >= 2, got {self.l!r}")
        if not isinstance(self.nu, Scalar):
            raise TypeError(f"factor nu must be a Scalar, got {self.nu!r}")
        object.__setattr__(self, "level", self.l)

    @property
    def size(self) -> int:
        return 2

    def inf_char(self) -> tuple[Scalar, ...]:
        re, im, half = self.nu.re, self.nu.im, Fraction(self.l - 1, 2)
        return (Scalar(re + half, im), Scalar(re - half, im))

    @cached_property
    def _image(self) -> Segment:  # see levelmap.factor_order_image
        return Segment(Scalar(self.nu.re - Fraction(self.l - 1, 2), self.nu.im), self.l)

    @cached_property
    def _block_start(self) -> tuple[int, int, int]:  # see levelmap.eigenvalue_identity
        d, re, im = _grid(self.nu)  # nu - (l - 1)/2 on the grid of 1/(2d)
        return 2 * d, 2 * re - (self.l - 1) * d, 2 * im

    def __str__(self):
        return f"gl2({self.l},{scalar_str(self.nu)})"


Factor = Union[GL1Factor, GL2Factor]
_LEVEL = operator.attrgetter("level")


def _slope(f: Factor) -> Fraction:
    """Normalized real part Re(nu)/size used by the dominance condition."""
    return f.nu.re / f.size


@dataclass(frozen=True)
class RealParam:
    """An ordered list of factors; ``n`` is the sum of the factor sizes and
    ``level``, set once at construction, the sum of their levels."""

    factors: tuple[Factor, ...]
    level: int = field(init=False, compare=False, repr=False)

    def __init__(self, factors):  # kept by @dataclass; a tuple is stored as given
        object.__setattr__(self, "factors", factors if type(factors) is tuple else tuple(factors))
        object.__setattr__(self, "level", sum(map(_LEVEL, self.factors)))

    @property
    def n(self) -> int:
        return sum(f.size for f in self.factors)

    def infinitesimal_character(self) -> tuple[Scalar, ...]:
        """Multiset of n weight coordinates, sorted weakly decreasing."""
        coords = [c for f in self.factors for c in f.inf_char()]
        coords.sort(key=scalar_sort_key, reverse=True)
        return tuple(coords)

    def __str__(self):
        return factors_str(self)


def is_dominant(param: RealParam) -> bool:
    """True iff Re(nu_i)/size_i is weakly decreasing along the factor list."""
    slopes = [_slope(f) for f in param.factors]
    return all(a >= b for a, b in zip(slopes, slopes[1:]))


def _factor_key(f: Factor):
    # fixed total order: slope desc, level desc, Im asc, triv before sgn
    eps_rank = int(isinstance(f, GL1Factor) and f.eps == SGN)
    return (-_slope(f), -f.level, f.nu.im, eps_rank)


def canonical_class(param: RealParam) -> RealParam:
    """Canonical representative of the rearrangement class of ``param``.

    Input must be dominant; the output is dominant, canonical forms of two
    dominant parameters coincide iff their factor multisets do, and the map
    is idempotent.
    """
    if not is_dominant(param):
        raise ValueError("canonical_class requires a dominant parameter")
    return RealParam(tuple(sorted(param.factors, key=_factor_key)))


def _level_bound(counts: dict[int, int]) -> int:
    """Upper bound on the level of any factor multiset exhausting ``counts``.

    A GL(1) factor has level at most 1 and a pair from [B, A] level at most
    A - B + 1, so m coordinates reach at most max(m, (m//2)(A-B+1) + m%2).
    """
    m = sum(counts.values())
    span = max(counts) - min(counts) + 1
    return max(m, (m // 2) * span + m % 2)


def _factor_pieces(a: int, lower: list[int]) -> list[tuple]:
    """Covering pieces (see :func:`multisegments._cover`) whose largest
    coordinate is ``a``: triv, sgn, then the pair ``a > b`` for each smaller
    value ``b``.  A factor's key is ``_factor_key`` with the slope scaled by 4
    and the size appended: ``(-4a, -level, eps_rank, 1)`` for a GL(1) factor
    and ``(-(a+b), -(a-b+1), 0, 2)`` for a GL(2) factor."""
    return [((-4 * a, -1, 0, 1), (), 1), ((-4 * a, 0, 1, 1), (), 0)] + [
        ((-(a + b), -(a - b + 1), 0, 2), (b,), a - b + 1) for b in lower
    ]


@lru_cache(maxsize=256)  # as multisegments._segment_from_key
def _factor_from_key(key: tuple) -> Factor:
    if key[3] == 1:
        return GL1Factor(SGN if key[2] else TRIV, Scalar(-key[0] // 4))
    return GL2Factor(-key[1], Scalar(Fraction(-key[0], 2)))


def enumerate_real_params(lam: Sequence[int], min_level: int = 0) -> list[RealParam]:
    """All canonical classes with integral infinitesimal character ``lam``
    and level at least ``min_level``, in a fixed deterministic order.

    Classes are built and ordered on integer factor keys (see
    :func:`_factor_pieces`); sorting a class's keys gives the
    ``_factor_key`` order of :func:`canonical_class`, and the classes are
    sorted on their key tuples.  ``min_level`` prunes the search through
    :func:`_level_bound` rather than filtering its output.  The covering
    walk and the factors are memoised (``DECISIONS.md``); the list is fresh.
    """
    walk = _walk_cover(_validate_integral_lambda(lam), _factor_pieces, min_level, _level_bound, False)
    return _walked(walk, _factor_from_key, RealParam)


# -- serialization ------------------------------------------------------------


def real_param_to_json(param: RealParam) -> dict:
    factors = []
    for f in param.factors:
        if isinstance(f, GL1Factor):
            factors.append({"kind": "gl1", "eps": f.eps, "nu": scalar_to_json(f.nu)})
        else:
            factors.append({"kind": "gl2", "l": f.l, "nu": scalar_to_json(f.nu)})
    return {"factors": factors}


def real_param_from_json(obj: dict) -> RealParam:
    factors: list[Factor] = []
    for fo in _json_field(obj, "factors", list):
        nu, kind = scalar_from_json(_json_field(fo, "nu", dict)), _json_field(fo, "kind", str)
        if kind == "gl1":
            factors.append(GL1Factor(_json_field(fo, "eps", str), nu))
        elif kind == "gl2":
            factors.append(GL2Factor(_json_field(fo, "l", int), nu))
        else:
            raise ValueError(f"unknown factor kind {kind!r}")
    return RealParam(tuple(factors))


def factors_str(param: RealParam) -> str:
    """Compact one-line form, e.g. ``gl2(2,1/2);gl1(triv,0)``."""
    return ";".join(str(f) for f in param.factors)


def parse_factors(text: str) -> RealParam:
    """Parse the compact form produced by :func:`factors_str`.

    >>> parse_factors("gl2(2,1/2);gl1(sgn,-1)").level
    2
    """
    factors: list[Factor] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if not part.endswith(")") or "(" not in part:
            raise ValueError(f"malformed factor {part!r}")
        head, body = part[:-1].split("(", 1)
        args = body.split(",")
        if head == "gl1":
            if len(args) != 2:
                raise ValueError(f"gl1 takes (eps,nu): {part!r}")
            factors.append(GL1Factor(args[0].strip(), parse_scalar(args[1])))
        elif head == "gl2":
            if len(args) != 2:
                raise ValueError(f"gl2 takes (l,nu): {part!r}")
            factors.append(GL2Factor(int(args[0]), parse_scalar(args[1])))
        else:
            raise ValueError(f"unknown factor kind {head!r}")
    return RealParam(tuple(factors))

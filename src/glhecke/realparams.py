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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .multisegments import _validate_integral_lambda
from .scalars import (
    Scalar,
    parse_scalar,
    scalar,
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

    def __post_init__(self):
        if self.eps not in (TRIV, SGN):
            raise ValueError(f"eps must be 'triv' or 'sgn', got {self.eps!r}")
        object.__setattr__(self, "nu", scalar(self.nu))

    @property
    def size(self) -> int:
        return 1

    @property
    def level(self) -> int:
        return 1 if self.eps == TRIV else 0

    def inf_char(self) -> tuple[Scalar, ...]:
        return (self.nu,)

    def __str__(self):
        return f"gl1({self.eps},{scalar_str(self.nu)})"


@dataclass(frozen=True)
class GL2Factor:
    l: int  # lowest O(2)-type, l >= 2
    nu: Scalar

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 2:
            raise ValueError(f"GL2 factor needs an integer l >= 2, got {self.l!r}")
        object.__setattr__(self, "nu", scalar(self.nu))

    @property
    def size(self) -> int:
        return 2

    @property
    def level(self) -> int:
        return self.l

    def inf_char(self) -> tuple[Scalar, ...]:
        half = Scalar(Fraction(self.l - 1, 2))
        return (self.nu + half, self.nu - half)

    def __str__(self):
        return f"gl2({self.l},{scalar_str(self.nu)})"


Factor = Union[GL1Factor, GL2Factor]


def _slope(f: Factor) -> Fraction:
    """Normalized real part Re(nu)/size used by the dominance condition."""
    return f.nu.re / f.size


@dataclass(frozen=True)
class RealParam:
    """An ordered list of factors; ``n`` is the sum of the factor sizes."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def n(self) -> int:
        return sum(f.size for f in self.factors)

    @property
    def level(self) -> int:
        return sum(f.level for f in self.factors)

    def infinitesimal_character(self) -> tuple[Scalar, ...]:
        """Multiset of n weight coordinates, sorted weakly decreasing."""
        coords = [c for f in self.factors for c in f.inf_char()]
        coords.sort(key=scalar_sort_key, reverse=True)
        return tuple(coords)

    def __str__(self):
        return factors_str(self)


def level(param: RealParam) -> int:
    return param.level


def is_dominant(param: RealParam) -> bool:
    """True iff Re(nu_i)/size_i is weakly decreasing along the factor list."""
    slopes = [_slope(f) for f in param.factors]
    return all(a >= b for a, b in zip(slopes, slopes[1:]))


def _factor_key(f: Factor):
    # fixed total order: slope desc, level desc, Im asc, triv before sgn
    eps_rank = 0
    if isinstance(f, GL1Factor) and f.eps == SGN:
        eps_rank = 1
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


def _cover_options(a: int, counts: dict[int, int]):
    """Ways a copy of the maximal value ``a`` can sit inside one factor."""
    yield ("triv",)
    yield ("sgn",)
    for b in sorted(counts, reverse=True):
        if b < a and counts[b] > 0:
            yield ("pair", b)


def _enumerate_factor_multisets(counts: dict[int, int]) -> Iterable[tuple[Factor, ...]]:
    """All multisets of factors whose weight coordinates exhaust ``counts``.

    Copies of the current maximum are covered simultaneously (one choice per
    copy, weakly increasing in a fixed option order) so each factor multiset
    is produced exactly once.
    """
    counts = {v: c for v, c in counts.items() if c > 0}
    if not counts:
        yield ()
        return
    a = max(counts)
    mult = counts.pop(a)
    options = list(_cover_options(a, counts))
    for combo in itertools.combinations_with_replacement(range(len(options)), mult):
        chosen = [options[i] for i in combo]
        used: dict[int, int] = {}
        for opt in chosen:
            if opt[0] == "pair":
                used[opt[1]] = used.get(opt[1], 0) + 1
        if any(used.get(b, 0) > counts.get(b, 0) for b in used):
            continue
        rest = dict(counts)
        for b, c in used.items():
            rest[b] -= c
        head: list[Factor] = []
        for opt in chosen:
            if opt[0] == "pair":
                b = opt[1]
                head.append(GL2Factor(a - b + 1, Scalar(Fraction(a + b, 2))))
            else:
                head.append(GL1Factor(opt[0], Scalar(a)))
        for tail in _enumerate_factor_multisets(rest):
            yield tuple(head) + tail


def enumerate_real_params(lam: Sequence[int], min_level: int = 0) -> list[RealParam]:
    """All canonical classes with integral infinitesimal character ``lam``
    and level at least ``min_level``, in a fixed deterministic order."""
    lam = _validate_integral_lambda(lam)
    counts: dict[int, int] = {}
    for x in lam:
        counts[x] = counts.get(x, 0) + 1
    out = []
    for factors in _enumerate_factor_multisets(counts):
        p = canonical_class(RealParam(tuple(sorted(factors, key=_factor_key))))
        if p.level >= min_level:
            out.append(p)
    out.sort(key=lambda p: tuple(_factor_key(f) + (f.size,) for f in p.factors))
    return out


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
    for fo in obj["factors"]:
        nu = scalar_from_json(fo["nu"])
        if fo["kind"] == "gl1":
            factors.append(GL1Factor(fo["eps"], nu))
        elif fo["kind"] == "gl2":
            factors.append(GL2Factor(int(fo["l"]), nu))
        else:
            raise ValueError(f"unknown factor kind {fo['kind']!r}")
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

"""Brute-force branching oracle over products of O(2) and O(1) factors.

The irreducible O(2) representations are the trivial and determinant
characters plus the two-dimensional V(j), j >= 1; V(0) is shorthand for
triv + sgn and is never stored.  Tensor rule:

    V(j) (x) V(j') = V(|j - j'|) + V(j + j'),   sgn (x) V(j) = V(j),
    sgn (x) sgn = triv,                          triv is the identity.

:func:`tensor_power_standard` decomposes the k-th tensor power of the
n-dimensional standard representation as a module over O(2)^s x O(1)^m
(n = 2s + m) by k-fold tensoring, with exact integer multiplicities and no
character-theoretic shortcuts.  :func:`hom_multiplicity` reads off one
multiplicity from that table; it never consults the closed dimension
formula it is used to cross-check.

The expansion runs on small-int label codes, 0 = triv, 1 = sgn and
j + 1 = V(j), in the canonical slot order: the s o2 slots first, then the
m o1 slots.  It is done once per key (s, m, k), one tensoring step from
(s, m, k - 1), in ``_table``, a ``functools.lru_cache`` of at most
``MEMO_SIZE`` = 128 keys; every weight with n <= 7 needs the 109 keys of the
chains k = 0..n.  :func:`tensor_power_standard` translates the codes back to
:class:`O2Label` tuples, and :func:`hom_multiplicity` moves the o2 slots of
its target first (keeping their order) before the lookup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .realparams import GL2Factor, RealParam

__all__ = [
    "O2Label",
    "TRIV",
    "SGN",
    "V",
    "tensor_o2",
    "tensor_power_standard",
    "total_dimension",
    "hom_multiplicity",
]


@dataclass(frozen=True, order=True)
class O2Label:
    kind: str  # '1', 'sgn', or 'V'
    j: int = 0

    def __post_init__(self):
        if self.kind == "V":
            if self.j < 1:
                raise ValueError("V(j) requires j >= 1; V(0) is triv + sgn")
        elif self.kind in ("1", "sgn"):
            if self.j != 0:
                raise ValueError(f"{self.kind} carries no index")
        else:
            raise ValueError(f"unknown O(2) label kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return 2 if self.kind == "V" else 1

    def __str__(self):
        return f"V({self.j})" if self.kind == "V" else self.kind


TRIV = O2Label("1")
SGN = O2Label("sgn")


def V(j: int) -> O2Label:
    return O2Label("V", j)


def _expand_v(j: int) -> tuple[O2Label, ...]:
    if j == 0:
        return (TRIV, SGN)
    return (V(j),)


def tensor_o2(a: O2Label, b: O2Label) -> tuple[O2Label, ...]:
    """Multiset of irreducible summands of a (x) b, as a sorted tuple.

    >>> [str(x) for x in tensor_o2(V(1), V(1))]
    ['1', 'V(2)', 'sgn']
    """
    if a.kind == "1":
        return (b,)
    if b.kind == "1":
        return (a,)
    if a.kind == "sgn" and b.kind == "sgn":
        return (TRIV,)
    if a.kind == "sgn":
        return (b,)
    if b.kind == "sgn":
        return (a,)
    return tuple(sorted(_expand_v(abs(a.j - b.j)) + _expand_v(a.j + b.j)))


Decomposition = Mapping[tuple[O2Label, ...], int]

MEMO_SIZE = 128


def _o2_step(code: int) -> tuple[int, ...]:
    """Codes of the summands of (label ``code``) (x) V(1)."""
    if code < 2:
        return (2,)  # triv (x) V(1) = sgn (x) V(1) = V(1)
    if code == 2:
        return (0, 1, 3)  # V(1) (x) V(1) = triv + sgn + V(2)
    return (code - 1, code + 1)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _table(s: int, m: int, k: int) -> Mapping[tuple[int, ...], int]:
    """k-th tensor power of the standard representation over s o2 slots then
    m o1 slots, by label code tuples (read-only), one step from the (k-1)-th."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return MappingProxyType({(0,) * (s + m): 1})
    state: dict[tuple[int, ...], int] = {}
    for codes, mult in _table(s, m, k - 1).items():
        for i, code in enumerate(codes):
            for new in _o2_step(code) if i < s else (1 - code,):
                key = codes[:i] + (new,) + codes[i + 1 :]
                state[key] = state.get(key, 0) + mult
    return MappingProxyType(state)


def _power(s: int, m: int, k: int) -> Mapping[tuple[int, ...], int]:
    """``_table(s, m, k)``; a chain longer than the memo is first filled from
    the bottom up, so that no call recurses more than one level."""
    if k >= MEMO_SIZE:
        for j in range(k):
            _table(s, m, j)
    return _table(s, m, k)


def tensor_power_standard(s: int, m: int, k: int) -> Decomposition:
    """Decomposition of the k-th tensor power of the standard representation
    over O(2)^s x O(1)^m, keyed by label tuples with the s o2 slots first.

    The standard representation is the sum of one V(1) per o2 slot and one
    sgn per o1 slot, all other slots acting trivially; its k-th power is
    expanded by repeated tensoring and returned as a new dict.
    """
    if s < 0 or m < 0:
        raise ValueError("s and m must be >= 0")
    labels = [TRIV, SGN] + [V(j) for j in range(1, k + 1)]
    return {tuple(labels[c] for c in codes): mult for codes, mult in _power(s, m, k).items()}


def total_dimension(decomp: Decomposition) -> int:
    total = 0
    for labels, mult in decomp.items():
        d = 1
        for lab in labels:
            d *= lab.dim
        total += mult * d
    return total


def hom_multiplicity(param: RealParam, k: int) -> int:
    """Multiplicity of the lowest dual type of ``param`` (twisted by the
    determinant character) inside the k-th tensor power of the standard
    representation.

    Target per slot: V(l) for a GL(2) factor, sgn for a trivial GL(1)
    factor, triv for a sign GL(1) factor.  Only valid for level >= k, where
    no higher type of the factors can contribute.
    """
    lev = param.level
    if lev < k:
        raise ValueError(
            f"oracle is only valid for level >= k; got level {lev} and k={k}"
        )
    o2: list[int] = []
    o1: list[int] = []
    for f in param.factors:
        if isinstance(f, GL2Factor):
            o2.append(f.l + 1)  # V(l)
        else:
            o1.append(1 if f.eps == "triv" else 0)  # sgn for triv, triv for sgn
    return _power(len(o2), len(o1), k).get(tuple(o2 + o1), 0)

"""Segments, multisegments, and their dominant orderings.

A segment is a run of scalars stepping by exactly 1, stored as (start,
length).  A multisegment is an ordered list of segments; two multisegments
with the same segment multiset are regarded as equivalent, and
:func:`dominant_representative` picks a fixed representative whose centers
Re((start+end)/2) are weakly decreasing.

The central character of an ordered multisegment lists, block by block, the
entries of each segment in increasing order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .scalars import (
    Scalar,
    _grid,
    _json_field,
    parse_rat,
    parse_scalar,
    rat_str,
    scalar_sort_key,
)

__all__ = [
    "Segment",
    "Multisegment",
    "is_dominant_ms",
    "dominant_representative",
    "central_character",
    "enumerate_multisegments",
    "steinberg_param",
    "multisegment_to_json",
    "multisegment_from_json",
    "segments_str",
    "parse_segments",
]


@dataclass(frozen=True)
class Segment:
    start: Scalar
    length: int

    def __post_init__(self):
        if not isinstance(self.start, Scalar):
            raise TypeError(f"segment start must be a Scalar, got {self.start!r}")
        if not isinstance(self.length, int) or isinstance(self.length, bool) or self.length < 1:
            raise ValueError(f"segment length must be a positive integer, got {self.length!r}")

    def entries(self) -> tuple[Scalar, ...]:
        return self._entries

    @cached_property  # every ordering of a multiset shares its segments
    def _entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.start.re + j, self.start.im) for j in range(self.length))

    @cached_property
    def _start_grid(self) -> tuple[int, int, int]:  # see levelmap.eigenvalue_identity
        return _grid(self.start)

    def __str__(self):
        (p, q), im = self.start.re.as_integer_ratio(), self.start.im
        tail = "" if im == 0 else f"{'+' if im > 0 else '-'}{rat_str(abs(im))}i"
        den = "" if q == 1 else f"/{q}"  # (p + j*q)/q is reduced, as p/q is
        return "{" + ",".join(f"{p + j * q}{den}{tail}" for j in range(self.length)) + "}"


@dataclass(frozen=True)
class Multisegment:
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def k(self) -> int:
        return sum(s.length for s in self.segments)

    def support(self) -> tuple[Scalar, ...]:
        """All entries with multiplicity, sorted weakly decreasing."""
        entries = [e for s in self.segments for e in s.entries()]
        entries.sort(key=scalar_sort_key, reverse=True)
        return tuple(entries)

    def __str__(self):
        return segments_str(self)


def _segment_key(s: Segment):
    # fixed total order: center desc, length desc, start desc, Im asc; the
    # center is doubled, 2 * Re(start) + length - 1, and Im(center) = Im(start)
    return (-(2 * s.start.re + s.length - 1), -s.length, -s.start.re, s.start.im)


def is_dominant_ms(ms: Multisegment) -> bool:
    """True iff Re(center) is weakly decreasing along the segment list."""
    # doubled centers (2p + (length - 1) q) / q, Re(start) = p / q, in integers
    ratios = [(*s.start.re.as_integer_ratio(), s.length) for s in ms.segments]
    centers = [(2 * p + (length - 1) * q, q) for p, q, length in ratios]
    return all(a * d >= b * c for (a, c), (b, d) in zip(centers, centers[1:]))


def dominant_representative(ms: Multisegment) -> Multisegment:
    """Fixed dominant ordering; constant on segment-multiset classes.

    >>> a, b = Segment(Scalar(2), 1), Segment(Scalar(3), 2)
    >>> str(dominant_representative(Multisegment((a, b))))
    '{3,4};{2}'
    """
    return Multisegment(tuple(sorted(ms.segments, key=_segment_key)))


def central_character(ms: Multisegment) -> tuple[Scalar, ...]:
    """Per-block concatenation of segment entries in increasing order."""
    return tuple(e for s in ms.segments for e in s.entries())


def steinberg_param(k: int) -> Multisegment:
    """The single segment of length ``k`` centered at 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Multisegment((Segment(Scalar(Fraction(-(k - 1), 2)), k),))


def _validate_integral_lambda(lam: Sequence[int]) -> tuple[int, ...]:
    lam = tuple(lam)
    for x in lam:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"lambda must consist of integers, got {x!r}")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("lambda must be weakly decreasing")
    return lam


def _cover(lam: Sequence[int], pieces, need: int = 0, bound=None, exact=False) -> list[tuple]:
    """Every multiset of pieces that covers the weight ``lam`` exactly and
    whose levels add up to at least ``need``, or to exactly ``need`` when
    ``exact``, as its sorted key tuple; the tuples come out sorted.

    ``pieces(a, lower)`` lists ``(key, used, level)`` for each piece whose
    largest value is ``a``, where ``lower`` holds the smaller values left, in
    decreasing order; ``used`` holds the smaller values the piece takes one
    copy of.  Every copy of the current maximum is covered at once by a
    weakly increasing choice of pieces, so each multiset comes out exactly
    once.  A branch stops as soon as ``bound(counts) < need``, or, when
    ``exact``, once its levels pass ``need``.  A state's completions depend
    only on the remaining counts and the level still needed (at least 0
    unless ``exact``), so each state is solved once per walk and its
    completions are prefixed onto every branch that reaches it.  The last
    three walks are memoised; each call gets a fresh list (``DECISIONS.md``)."""
    return list(_walk_cover(_validate_integral_lambda(lam), pieces, need, bound, exact))


@lru_cache(maxsize=3)  # the distinct walks of one weight's level-map and orbit-map checks
def _walk_cover(lam: tuple[int, ...], pieces, need: int, bound, exact: bool) -> tuple[tuple, ...]:
    memo: dict[tuple, list[tuple]] = {}

    def walk(counts: tuple, need: int) -> list[tuple]:
        if not exact:
            need = max(need, 0)
        if (counts, need) in memo:
            return memo[counts, need]
        found = memo[counts, need] = [()] if not counts and need == 0 else []
        if not counts or need < 0 or (need > 0 and bound is not None and bound(dict(counts)) < need):
            return found
        (a, mult), lower = counts[0], dict(counts[1:])
        for combo in itertools.combinations_with_replacement(pieces(a, list(lower)), mult):
            rest, left = dict(lower), need
            for _, used, level in combo:
                left -= level
                for v in used:
                    rest[v] = rest.get(v, 0) - 1
            if any(c < 0 for c in rest.values()):
                continue
            keys = tuple(key for key, _, _ in combo)
            found += [keys + tail for tail in walk(tuple((v, c) for v, c in rest.items() if c), left)]
        return found

    classes = walk(tuple(sorted(Counter(lam).items(), reverse=True)), need)
    memo.clear()  # walk refers to itself, so the memo would wait for the cycle collector
    return tuple(sorted(tuple(sorted(keys)) for keys in classes))


def _built(classes: list, build, wrap) -> list:  # a dict per call is a shade faster than the memo
    built = {key: build(key) for key in {key for keys in classes for key in keys}}.__getitem__
    return [wrap(tuple(map(built, keys))) for keys in classes]


def _segment_pieces(a: int, lower: list[int]) -> list[tuple]:
    # the segment x..a, keyed by _segment_key with the center doubled
    return [((-(x + a), -(a - x + 1), -x), range(x, a), 0) for x in [a] + lower]


@lru_cache(maxsize=256)  # every key of a weight with up to 20 distinct values (DECISIONS.md)
def _segment_from_key(key: tuple) -> Segment:
    return Segment(Scalar(-key[2]), -key[1])


def enumerate_multisegments(lam: Sequence[int]) -> list[Multisegment]:
    """Dominant representatives of all multisegment classes with support
    ``lam``, deterministically ordered and free of duplicates.

    Classes are ordered on integer keys, ``_segment_key`` with the center
    doubled: ``(-(2x+l-1), -l, -x)`` for the segment of length ``l`` starting
    at ``x``.  The walk and the segments are memoised (``DECISIONS.md``).

    >>> len(enumerate_multisegments((2, 1, 0)))
    4
    """
    return _built(_cover(lam, _segment_pieces), _segment_from_key, Multisegment)


# -- serialization ------------------------------------------------------------


def multisegment_to_json(ms: Multisegment) -> dict:
    segs = []
    for s in ms.segments:
        if not s.start.is_real:
            raise ValueError("JSON segment encoding covers real starts only")
        segs.append({"start": rat_str(s.start.re), "len": s.length})
    return {"segments": segs}


def multisegment_from_json(obj: dict) -> Multisegment:
    return Multisegment(
        tuple(
            Segment(Scalar(parse_rat(_json_field(so, "start", str))), _json_field(so, "len", int))
            for so in _json_field(obj, "segments", list)
        )
    )


def segments_str(ms: Multisegment) -> str:
    """Compact form listing each segment's entries, e.g. ``{0,1};{-1,0}``."""
    return ";".join(str(s) for s in ms.segments)


def parse_segments(text: str) -> Multisegment:
    """Parse ``{a,b,c};{d}`` (entries must step by exactly 1).

    Tolerates an outer pair of parentheses and commas between segments, so
    ``({0,1},{-1,0})`` parses the same as ``{0,1};{-1,0}``.
    """
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    segments = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in ";, \t":
            pos += 1
            continue
        if ch != "{":
            raise ValueError(f"expected '{{' at position {pos} in {text!r}")
        close = text.find("}", pos)
        if close < 0:
            raise ValueError(f"unterminated segment in {text!r}")
        entries = [parse_scalar(tok) for tok in text[pos + 1 : close].split(",") if tok.strip()]
        if not entries:
            raise ValueError("empty segment")
        for a, b in zip(entries, entries[1:]):
            if b.re - a.re != 1 or b.im != a.im:
                raise ValueError(f"segment entries must step by 1: {text[pos:close+1]}")
        segments.append(Segment(entries[0], len(entries)))
        pos = close + 1
    return Multisegment(tuple(segments))

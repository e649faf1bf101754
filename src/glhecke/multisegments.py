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
        object.__setattr__(self, "_hash", hash((self.start, self.length)))  # as generated, once

    def entries(self) -> tuple[Scalar, ...]:
        return self._entries

    @cached_property  # every ordering of a multiset shares its segments
    def _entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.start.re + j, self.start.im) for j in range(self.length))

    @cached_property
    def _start_grid(self) -> tuple[int, int, int]:  # see levelmap.eigenvalue_identity
        return _grid(self.start)

    @cached_property
    def _ends(self) -> tuple[int, int]:  # see orbits._segments_by_length
        if not self.start.is_integer:
            raise ValueError("the orbit map needs an integral multisegment")
        return self.start.re.numerator, self.start.re.numerator + self.length - 1

    def __hash__(self):  # the shared segments key the psi memo
        return self._hash

    def __str__(self):
        return self._str

    @cached_property  # the shared segments of every class print once
    def _str(self) -> str:
        (p, q), im = self.start.re.as_integer_ratio(), self.start.im
        tail = "" if im == 0 else f"{'+' if im > 0 else '-'}{rat_str(abs(im))}i"
        den = "" if q == 1 else f"/{q}"  # (p + j*q)/q is reduced, as p/q is
        return "{" + ",".join(f"{p + j * q}{den}{tail}" for j in range(self.length)) + "}"


@dataclass(frozen=True)
class Multisegment:
    segments: tuple[Segment, ...]

    def __init__(self, segments):  # kept by @dataclass; a tuple is stored as given
        object.__setattr__(self, "segments", segments if type(segments) is tuple else tuple(segments))

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
    for x in lam if set(map(type, lam)) - {int} else ():  # one by one only if some entry is not an int
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError(f"lambda must consist of integers, got {x!r}")
    if list(lam) != sorted(lam, reverse=True):
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
    ``exact``, once its levels pass ``need``.  A state, the counts of the
    distinct values from the current maximum down and the level still needed
    (at least 0 unless ``exact``), fixes its completions, so each state is
    solved once per walk and its completions are prefixed onto every branch
    that reaches it; a piece's used values are offsets into the counts.  The
    last three walks are memoised; each call gets a fresh list
    (``DECISIONS.md``)."""
    keys, classes = _walk_cover(_validate_integral_lambda(lam), pieces, need, bound, exact)
    return [tuple(map(keys.__getitem__, c)) for c in classes]


@lru_cache(maxsize=3)  # the distinct walks of one weight's level-map and orbit-map checks
def _walk_cover(lam: tuple[int, ...], pieces, need: int, bound, exact: bool) -> tuple[tuple, tuple]:
    # the sorted distinct keys of the pieces taken; each class sorts the indices of its keys
    values = sorted(set(lam), reverse=True)
    offset, memo, ids = {v: i for i, v in enumerate(values)}.get, {}, {}

    def walk(counts: tuple, need: int) -> list[tuple]:
        found = memo[counts, need] = [()] if not counts and need == 0 else []
        top = len(values) - len(counts)
        if not counts or need < 0 or need > 0 and bound is not None and bound(
            {values[top + j]: c for j, c in enumerate(counts) if c}
        ) < need:
            return found
        keys, steps = [], []  # the pieces that fit the counts one at a time
        lower = [v for v, c in zip(values[top + 1 :], counts[1:]) if c]
        for key, used, level in pieces(values[top], lower):
            used = [offset(v, -1) - top for v in used]
            if all(0 < j and counts[j] >= used.count(j) for j in used):
                keys.append(ids.setdefault(key, len(ids)))
                steps.append((used, level))
        choices = (itertools.combinations_with_replacement(x, counts[0]) for x in (keys, steps))
        for chosen, combo in zip(*choices):
            rest, left, first = list(counts), need, 1
            for used, level in combo:
                left -= level
                for j in used:
                    rest[j] -= 1
            if counts[0] > 1 and min(rest) < 0:  # the choice took more copies than are left
                continue
            while first < len(rest) and not rest[first]:
                first += 1
            state = tuple(rest[first:]), left if exact or left > 0 else 0
            tails = memo[state] if state in memo else walk(*state)
            if tails:
                found += [chosen + tail for tail in tails]
        return found

    classes = walk(tuple(map(lam.count, values)), need if exact or need > 0 else 0)
    memo.clear()  # walk refers to itself, so the memo would wait for the cycle collector
    keys = sorted(ids)  # an index orders classes as its key does
    rank = list(map({key: r for r, key in enumerate(keys)}.__getitem__, ids)).__getitem__
    return tuple(keys), tuple(sorted(tuple(sorted(map(rank, c))) for c in classes))


def _built(classes: list, build, wrap) -> list:  # a dict per call is a shade faster than the memo
    built = {key: build(key) for key in {key for keys in classes for key in keys}}.__getitem__
    return [wrap(tuple(map(built, keys))) for keys in classes]


def _walked(walk: tuple, build, wrap) -> list:  # _built for a _walk_cover result, by index
    built = list(map(build, walk[0])).__getitem__
    return [wrap(tuple(map(built, c))) for c in walk[1]]


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
    walk = _walk_cover(_validate_integral_lambda(lam), _segment_pieces, 0, None, False)
    return _walked(walk, _segment_from_key, Multisegment)


# -- serialization ------------------------------------------------------------


def multisegment_to_json(ms: Multisegment) -> dict:
    if not all(s.start.is_real for s in ms.segments):
        raise ValueError("JSON segment encoding covers real starts only")
    return {"segments": [{"start": rat_str(s.start.re), "len": s.length} for s in ms.segments]}


def multisegment_from_json(obj: dict) -> Multisegment:
    return Multisegment(
        Segment(Scalar(parse_rat(_json_field(so, "start", str))), _json_field(so, "len", int))
        for so in _json_field(obj, "segments", list)
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
    segments, pos = [], 0
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

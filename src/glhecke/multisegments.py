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
from typing import Iterable, Sequence

from .scalars import (
    Scalar,
    _json_field,
    parse_rat,
    parse_scalar,
    rat_str,
    scalar,
    scalar_sort_key,
    scalar_str,
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
        object.__setattr__(self, "start", scalar(self.start))
        if not isinstance(self.length, int) or self.length < 1:
            raise ValueError(f"segment length must be a positive integer, got {self.length!r}")

    def entries(self) -> tuple[Scalar, ...]:
        return tuple(Scalar(self.start.re + j, self.start.im) for j in range(self.length))

    def __str__(self):
        return "{" + ",".join(scalar_str(e) for e in self.entries()) + "}"


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
    centers = [2 * s.start.re + s.length - 1 for s in ms.segments]  # doubled
    return all(a >= b for a, b in zip(centers, centers[1:]))


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


def _enumerate_segment_multisets(counts: dict[int, int]) -> Iterable[tuple[tuple[int, int], ...]]:
    """All segment multisets (as (start, length) int pairs) with the given
    support counts.  Every copy of the maximal value must end a segment, so
    the copies of the maximum are assigned start values simultaneously."""
    counts = {v: c for v, c in counts.items() if c > 0}
    if not counts:
        yield ()
        return
    a = max(counts)
    mult = counts.pop(a)
    starts = sorted(counts) + [a]  # candidate lower endpoints
    for combo in itertools.combinations_with_replacement(sorted(starts, reverse=True), mult):
        used: dict[int, int] = {}
        ok = True
        for x in combo:
            for v in range(x, a):
                used[v] = used.get(v, 0) + 1
                if used[v] > counts.get(v, 0):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        rest = dict(counts)
        for v, c in used.items():
            rest[v] -= c
        head = tuple((x, a - x + 1) for x in combo)
        for tail in _enumerate_segment_multisets(rest):
            yield head + tail


def enumerate_multisegments(lam: Sequence[int]) -> list[Multisegment]:
    """Dominant representatives of all multisegment classes with support
    ``lam``, deterministically ordered and free of duplicates.

    Classes are ordered on integer keys, ``_segment_key`` with the center
    doubled: ``(-(2x+l-1), -l, -x)`` for the segment of length ``l`` starting
    at ``x``.  Each distinct segment is built once per call.

    >>> len(enumerate_multisegments((2, 1, 0)))
    4
    """
    lam = _validate_integral_lambda(lam)
    counts: dict[int, int] = {}
    for x in lam:
        counts[x] = counts.get(x, 0) + 1
    classes = sorted(
        tuple(sorted((-(2 * x + ln - 1), -ln, -x) for x, ln in pairs))
        for pairs in _enumerate_segment_multisets(counts)
    )
    distinct = {key for keys in classes for key in keys}
    built = {key: Segment(Scalar(-key[2]), -key[1]) for key in distinct}
    return [Multisegment(tuple(built[key] for key in keys)) for keys in classes]


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
            for so in obj["segments"]
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
            if b - a != Scalar(1):
                raise ValueError(f"segment entries must step by 1: {text[pos:close+1]}")
        segments.append(Segment(entries[0], len(entries)))
        pos = close + 1
    return Multisegment(tuple(segments))

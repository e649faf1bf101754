"""Signed involutions, block moves, and the multisegment-to-orbit map.

An involution of {1..n} with signed fixed points of signature (p, q) records
a symmetric-subgroup orbit on a flag variety; p counts arcs plus '+' fixed
points, q counts arcs plus '-' fixed points.  A simple transposition inside
a block of the column structure acts by the three-case rule:

  (1) fixed points with opposite signs become an arc joining them;
  (2) fixed points with equal signs, or the arc joining the two positions,
      are left alone;
  (3) otherwise the transposition conjugates the involution.

Orbit classes are the symmetric-transitive closure of these one-step moves;
two signed involutions share one exactly when their count keys agree
(``DECISIONS.md``), so a class is its key: classes are compared by key, and
a class's size and least member are read off the key in closed form.

The map from a multisegment with integral support ``lam`` builds one column
per distinct value of ``lam`` (decreasing left to right, one cell per copy,
signed by the value's parity: even '+', odd '-'), joins, for each segment of
length >= 2 in weakly decreasing length order, a fresh cell in the column of
its maximum to a fresh cell in the column of its minimum, flips one fresh
cell in every strictly intermediate column when the endpoint parities agree,
and finally flattens the columns left to right.  A cell is stored as what
the flattening reads: ``(sign, None)`` for a fixed point, ``(0, arc)`` for
an arc endpoint.  A cell is fresh while it is a fixed point with its
column's parity sign; a used cell has sign 0 and a flipped one the opposite
sign, so neither is fresh again.  The flattening is ambiguous, but all
choices land in one orbit class; :func:`verify_psi_wellposed` checks every
choice.  The fresh cells of a column are equal, so a choice of cells only
reorders the columns of the diagram built on the topmost fresh cells for
the same segment order: the check walks each segment order once and compares
each diagram's key, read off its cells, since no column ordering changes it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

from .multisegments import (
    Multisegment,
    _validate_integral_lambda,
    enumerate_multisegments,
    segments_str,
)

__all__ = [
    "SignedInvolution",
    "BlockStructure",
    "OrbitClass",
    "StructuralError",
    "make_involution",
    "orbit_class",
    "ColumnDiagram",
    "build_diagram",
    "initial_diagram",
    "flatten_diagram",
    "psi_g",
    "verify_psi_wellposed",
    "verify_injectivity",
    "render_diagram",
    "render_involution",
    "involution_to_json",
]


class StructuralError(RuntimeError):
    """A required fresh cell is missing; cannot happen for valid input."""


@dataclass(frozen=True)
class SignedInvolution:
    """Involution with signed fixed points; positions are 0-based internally.

    ``pairing[i]`` is the partner of position i (itself for fixed points);
    ``signs[i]`` is '+' or '-' for fixed points and None for arc members.
    """

    n: int
    pairing: tuple[int, ...]
    signs: tuple[Optional[str], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple(self.pairing))
        object.__setattr__(self, "signs", tuple(self.signs))
        if len(self.pairing) != self.n or len(self.signs) != self.n:
            raise ValueError("pairing and signs must have length n")
        for i, j in enumerate(self.pairing):
            if not 0 <= j < self.n or self.pairing[j] != i:
                raise ValueError("pairing is not an involution")
            if (i == j) != (self.signs[i] is not None):
                raise ValueError("signs must mark exactly the fixed points")
            if i == j and self.signs[i] not in ("+", "-"):
                raise ValueError("fixed-point signs must be '+' or '-'")

    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in enumerate(self.pairing) if i < j)

    def signature(self) -> tuple[int, int]:
        n_arcs = len(self.arcs())
        return (n_arcs + self.signs.count("+"), n_arcs + self.signs.count("-"))

    def __str__(self):
        return render_involution(self)


def make_involution(n: int, arcs: Iterable[tuple[int, int]], signs: dict[int, str]) -> SignedInvolution:
    """Build from 0-based arcs and a fixed-point sign map (exactly one sign
    per fixed point)."""
    pairing = list(range(n))
    for i, j in arcs:
        if i == j or not (0 <= i < n and 0 <= j < n) or pairing[i] != i or pairing[j] != j:
            raise ValueError("arcs must join two distinct positions below n, each in one arc")
        pairing[i], pairing[j] = j, i
    fixed = {i for i in range(n) if pairing[i] == i}
    if set(signs) != fixed:
        raise ValueError(f"signs must be given for the fixed points {sorted(fixed)}")
    return SignedInvolution(n, tuple(pairing), tuple(map(signs.get, range(n))))


@dataclass(frozen=True)
class BlockStructure:
    """Composition of n into consecutive position blocks."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if any(not isinstance(s, int) or isinstance(s, bool) or s < 1 for s in self.sizes):
            raise ValueError(f"block sizes must be positive integers, got {self.sizes!r}")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        """The block index of each position."""
        return tuple(b for b, s in enumerate(self.sizes) for _ in range(s))


def _cell_key(columns) -> tuple:
    """The count key of cells in blocks: per block its '+' and its '-' fixed
    points, each plus its inner arcs, and the sorted block pairs of the arcs
    that join two blocks."""
    counts, ends = [[0, 0] for _ in columns], {}
    for c, col in enumerate(columns):
        for sign, arc in col:
            if arc is None:
                counts[c][sign <= 0] += 1
            else:
                ends.setdefault(arc, []).append(c)
    for arc, cs in ends.items():
        if len(cs) != 2:
            many = "more than two endpoints" if cs[2:] else "one endpoint; only fixed points stand alone"
            raise ValueError(f"arc {arc} has {many}")
        if cs[0] == cs[1]:
            counts[cs[0]] = [x + 1 for x in counts[cs[0]]]
    cross = sorted(tuple(cs) for cs in ends.values() if cs[0] != cs[1])
    return tuple(map(tuple, counts)), tuple(cross)


@dataclass(frozen=True)
class OrbitClass:
    """The class of the count ``key`` on ``blocks``: the signed involutions
    whose key it is.  Its ``size`` and its least member ``canonical`` are
    read off the key (``DECISIONS.md`` proves both); a key that does not
    fit the blocks raises ValueError."""

    blocks: BlockStructure
    key: tuple

    def __post_init__(self):
        # one (P, Q) per block, cross pairs 0 <= a < b < r, and a block of s
        # positions with c cross-arc ends has s = P + Q + c (DECISIONS.md)
        (counts, cross), free = self.key, list(self.blocks.sizes)
        fits = len(counts) == len(free) and {len(pq) for pq in counts} <= {2}
        fits = fits and all(0 <= a < b < len(free) for a, b in cross)
        for a, b in cross if fits else ():
            free[a], free[b] = free[a] - 1, free[b] - 1
        if not fits or free != [
            p + q for p, q in counts if isinstance(p, int) and isinstance(q, int) and p >= 0 <= q
        ]:
            raise ValueError(f"count key {self.key} does not fit the blocks {self.blocks.sizes}")

    def __contains__(self, sigma: SignedInvolution) -> bool:
        return sigma.n == self.blocks.n and orbit_class(sigma, self.blocks).key == self.key

    @property
    def size(self) -> int:
        """Per block of s positions, c of them cross-arc ends, with counts
        (P, Q): the s!/r! placements of its labelled cross-arc ends times the
        signed involutions of the other r = s - c positions, over a inner
        arcs; divided by m! for each multiplicity m of equal cross pairs."""
        counts, cross = self.key
        ends = Counter(itertools.chain(*cross))
        size = 1
        for b, (s, (p, q)) in enumerate(zip(self.blocks.sizes, counts)):
            r = s - ends[b]
            size *= math.perm(s, ends[b]) * sum(
                math.factorial(r)
                // (math.factorial(a) * 2**a * math.factorial(p - a) * math.factorial(q - a))
                for a in range(min(p, q) + 1)
            )
        return size // math.prod(map(math.factorial, Counter(cross).values()))

    @property
    def canonical(self) -> SignedInvolution:
        """The least member, comparing position by position (partner, then
        '+' before '-'): each block holds the ends of its arcs from earlier
        blocks, its P '+' and then its Q '-' fixed points, and the ends of its
        arcs to later blocks; the sorted cross pairs (a, b) each join the next
        free outgoing slot of block a to the next free incoming slot of b."""
        counts, cross = self.key
        incoming = Counter(b for _, b in cross)
        starts = itertools.accumulate(self.blocks.sizes, initial=0)
        into, out, signs = [], [], {}
        for b, (start, (p, q)) in enumerate(zip(starts, counts)):
            first = start + incoming[b]
            into.append(start)
            out.append(first + p + q)
            signs.update({i: "+" if i < first + p else "-" for i in range(first, first + p + q)})
        arcs = []
        for a, b in cross:
            arcs.append((out[a], into[b]))
            out[a] += 1
            into[b] += 1
        return make_involution(self.blocks.n, arcs, signs)


def orbit_class(sigma: SignedInvolution, bs: BlockStructure) -> OrbitClass:
    """The class of ``sigma`` under the moves inside the blocks of ``bs``."""
    if bs.n != sigma.n:
        raise ValueError("block structure size does not match the involution")
    cols: list[list] = [[] for _ in bs.sizes]
    for i, (j, s) in enumerate(zip(sigma.pairing, sigma.signs)):  # an arc is named by its left end
        cols[bs.block_of[i]].append((0, min(i, j)) if i != j else (1 if s == "+" else -1, None))
    return OrbitClass(bs, _cell_key(cols))


# -- the column/arc/flip/flatten construction ---------------------------------


@dataclass(frozen=True)
class ColumnDiagram:
    """Final state of the column construction, ready to flatten or render."""

    values: tuple[int, ...]  # distinct support values, decreasing
    # a cell is (+1/-1, None) for a fixed point, (0, arc id) for an arc end
    columns: tuple[tuple[tuple[int, Optional[int]], ...], ...]

    @property
    def n(self) -> int:
        return sum(len(col) for col in self.columns)

    def blocks(self) -> BlockStructure:
        return BlockStructure(tuple(len(col) for col in self.columns))


def initial_diagram(lam: Sequence[int]) -> ColumnDiagram:
    """Columns of parity signs before any segment is processed."""
    return _walk(_validate_integral_lambda(lam), ())


def _segments_by_length(ms: Multisegment, lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """(min, max) integer endpoints of the length >= 2 segments, longest
    first (ties keep the dominant-order position), after checking that ``ms``
    is integral with support ``lam``; each shared segment reads them once."""
    ends = [s._ends for s in ms.segments]
    support = sorted((v for lo, hi in ends for v in range(lo, hi + 1)), reverse=True)
    if support != list(lam):
        raise ValueError(f"support {support} does not match lambda {list(lam)}")
    return sorted(((lo, hi) for lo, hi in ends if hi > lo), key=lambda ab: ab[0] - ab[1])


def _touched_columns(values: tuple[int, ...], x: int, y: int) -> tuple[int, ...]:
    """Column indices a segment from x to y touches: the column of its
    maximum, the column of its minimum and, when x and y have equal parity,
    every strictly intermediate column."""
    top = values.index(y)
    bottom = top + y - x  # the support holds every value from x to y
    return (top, bottom, *(range(top + 1, bottom) if (y - x) % 2 == 0 else ()))


def _apply_segment(values: tuple[int, ...], columns, touched: Sequence[int], arc_id: int):
    """Join the topmost fresh cells of the two end columns ``touched[:2]`` by
    arc ``arc_id`` and flip the topmost fresh cell of every other touched
    column; a fresh cell is a fixed point with the parity sign of its
    column's value."""
    new_cols = list(columns)
    for i, c in enumerate(touched):
        col = list(new_cols[c])
        parity = (-1) ** (values[c] % 2)
        if (parity, None) not in col:
            raise StructuralError(f"no fresh cell left in column {c}")
        col[col.index((parity, None))] = (0, arc_id) if i < 2 else (-parity, None)
        new_cols[c] = tuple(col)
    return tuple(new_cols)


def _walk(lam: tuple[int, ...], segs: Iterable[tuple[int, int]]) -> ColumnDiagram:
    """Apply the segments ``segs`` in order, arc ids from 1, to the columns
    of parity signs of the validated weight ``lam``."""
    values = tuple(sorted(set(lam), reverse=True))
    columns = tuple((((-1) ** (v % 2), None),) * lam.count(v) for v in values)
    for arc_id, (x, y) in enumerate(segs, start=1):
        columns = _apply_segment(values, columns, _touched_columns(values, x, y), arc_id)
    return ColumnDiagram(values=values, columns=columns)


def build_diagram(ms: Multisegment, lam: Sequence[int]) -> ColumnDiagram:
    """Run the construction with the fixed default choices (longest segment
    first, dominant order inside a length tie, topmost fresh cell)."""
    lam = _validate_integral_lambda(lam)
    return _walk(lam, _segments_by_length(ms, lam))


def _flat_code(columns) -> tuple[tuple[int, ...], tuple[Optional[str], ...]]:
    """``(pairing, signs)`` of well-formed cells, read column by column."""
    cells = [cell for col in columns for cell in col]
    pairing, first_end = list(range(len(cells))), {}
    for pos, (_, arc) in enumerate(cells):
        if arc is not None:
            other = first_end.setdefault(arc, pos)
            pairing[pos], pairing[other] = other, pos
    signs = tuple(None if arc is not None else "+" if sign > 0 else "-" for sign, arc in cells)
    return tuple(pairing), signs


def flatten_diagram(diagram: ColumnDiagram) -> SignedInvolution:
    """Concatenate the columns left to right, each in its stored order."""
    _cell_key(diagram.columns)  # refuses an arc without exactly two endpoints
    return SignedInvolution(diagram.n, *_flat_code(diagram.columns))


def psi_g(ms: Multisegment, lam: Sequence[int]) -> OrbitClass:
    """Orbit class of the flattened diagram of ``ms`` at support ``lam``."""
    return _psi(ms, _validate_integral_lambda(lam))


@lru_cache(maxsize=128)  # both orbit-map checks of one weight, up to 128 classes (DECISIONS.md)
def _psi(ms: Multisegment, lam: tuple[int, ...]) -> OrbitClass:
    diagram = _walk(lam, _segments_by_length(ms, lam))
    return OrbitClass(diagram.blocks(), _cell_key(diagram.columns))


# -- exhaustive choice sweeps --------------------------------------------------


def _all_final_diagrams(ms: Multisegment, lam: tuple[int, ...]) -> set[ColumnDiagram]:
    """The diagram of every segment order (within weakly decreasing length),
    each walked on the topmost fresh cells.

    The fresh cells of a column are equal, so picking another fresh cell
    only swaps two cells of its column: every other choice of endpoint and
    flip cells gives a per-column reordering of one of these diagrams.
    """
    segs = _segments_by_length(ms, lam)
    # every ordering of each tie group of lengths, longest group first
    groups = [list(g) for _, g in itertools.groupby(segs, key=lambda ab: ab[1] - ab[0])]
    return {
        _walk(lam, itertools.chain(*perms))
        for perms in itertools.product(*(set(itertools.permutations(g)) for g in groups))
    }


@dataclass
class WellPosedReport:
    lam: tuple[int, ...]
    entries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e["ok"] for e in self.entries)

    def to_json(self) -> dict:
        return {"lambda": list(self.lam), "ok": self.ok, "entries": self.entries}


def verify_psi_wellposed(lam: Sequence[int]) -> WellPosedReport:
    """For every multisegment class with support ``lam``, recompute the map
    under every choice path and every flattening and check all outputs land
    in a single orbit class.

    Every choice path ends in a per-column reordering of a diagram of
    :func:`_all_final_diagrams`, which leaves its count key as it is, so the
    check compares each walked diagram's key with that of ``psi_g``; the key
    also refuses an arc without exactly two endpoints.  ``outputs`` counts
    the flattenings of every choice path: each of the d = l!/∏(multiplicity)!
    distinct orderings of a column of length l is the column of some final
    diagram and flattens in l! ways, so the column adds the factor l!·d.
    """
    lam = _validate_integral_lambda(lam)
    report = WellPosedReport(lam=lam)
    for ms in enumerate_multisegments(lam):
        target, ok, outputs = psi_g(ms, lam).key, True, 0
        for diagram in _all_final_diagrams(ms, lam):
            ok = _cell_key(diagram.columns) == target and ok
            outputs += math.prod(
                math.factorial(len(col)) ** 2 // math.prod(math.factorial(col.count(c)) for c in set(col))
                for col in diagram.columns
            )
        report.entries.append({"tau": segments_str(ms), "outputs": outputs, "ok": ok})
    return report


@dataclass
class InjectivityReport:
    lam: tuple[int, ...]
    classes: int = 0
    collisions: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.collisions

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "classes": self.classes,
            "ok": self.ok,
            "collisions": self.collisions,
        }


def verify_injectivity(lam: Sequence[int]) -> InjectivityReport:
    """Check the orbit map separates the multisegment classes at ``lam``, by key."""
    lam = _validate_integral_lambda(lam)
    report = InjectivityReport(lam=lam)
    by_class: dict[OrbitClass, list[Multisegment]] = {}
    for ms in enumerate_multisegments(lam):
        by_class.setdefault(psi_g(ms, lam), []).append(ms)
    report.classes = len(by_class)
    for cls, members in by_class.items():
        if len(members) > 1:
            report.collisions.append(
                {
                    "involution": involution_to_json(cls.canonical),
                    "taus": [segments_str(ms) for ms in members],
                }
            )
    return report


# -- rendering and serialization ----------------------------------------------


def render_involution(sigma: SignedInvolution) -> str:
    """One-line form with arcs as paired numeric labels.

    >>> render_involution(make_involution(4, [(0, 3)], {1: '+', 2: '-'}))
    '1 + - 1'
    """
    label: dict[int, int] = {}  # by left end, numbered in order of appearance
    return " ".join(
        sign or str(label.setdefault(min(i, j), len(label) + 1))
        for i, (j, sign) in enumerate(zip(sigma.pairing, sigma.signs))
    )


def render_diagram(diagram: ColumnDiagram) -> str:
    """Fixed-width column picture: headers are the support values, cells show
    the sign or the arc label."""
    shown = [[str(arc or "+-"[sign < 0]) for sign, arc in col] for col in diagram.columns]
    width = max([len(str(v)) for v in diagram.values] + [len(cell) for col in shown for cell in col])
    lines = ["  ".join(str(v).rjust(width) for v in diagram.values)]
    for r in range(max(map(len, shown))):
        lines.append("  ".join((col[r] if r < len(col) else "").rjust(width) for col in shown).rstrip())
    return "\n".join(lines)


def involution_to_json(sigma: SignedInvolution) -> dict:
    """1-based positions; arcs sorted, signs keyed by position."""
    return {
        "n": sigma.n,
        "arcs": [[i + 1, j + 1] for i, j in sigma.arcs()],
        "signs": {str(i + 1): sign for i, sign in enumerate(sigma.signs) if sign is not None},
    }


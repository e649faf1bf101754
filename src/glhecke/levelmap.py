"""The level-k parameter map from real parameters to multisegments.

A factor of level zero (a sign GL(1) character) is dropped; a trivial GL(1)
character with twist ``nu`` becomes the singleton segment {nu}; a GL(2)
factor with lowest O(2)-type ``l`` and twist ``nu`` becomes the length-l
segment centered at ``nu``.  The map is defined on parameters of level >= k:
level > k maps to zero, level = k maps to the multisegment class above.

On the level = k locus the induced module has dimension k!/prod(level_i!),
its restriction to the symmetric group is induced-from-sign over the Young
subgroup of the nonzero levels, and the weight of the generating vector is
given position by position by a closed form, which
:func:`eigenvalue_identity` checks against the central character of the
image.

The bijection check stays on the integer keys of both enumerations: each
factor key maps straight to its image's segment key, and parameters and
multisegments are built only for the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .multisegments import (
    Multisegment,
    _built,
    _cover,
    _segment_from_key,
    _segment_pieces,
    dominant_representative,
    multisegment_to_json,
)
from .realparams import (
    RealParam,
    _factor_from_key,
    _factor_pieces,
    _level_bound,
    real_param_to_json,
)

__all__ = [
    "gamma",
    "factor_order_image",
    "dimension_std",
    "w_structure",
    "eigenvalue_identity",
    "BijectionReport",
    "verify_bijection_level_n",
]


def _require_level_at_least(param: RealParam, k: int) -> int:
    if k < 0:
        raise ValueError("k must be >= 0")
    lev = param.level
    if lev < k:
        raise ValueError(
            f"parameter has level {lev} < k={k}; the map is only defined for level >= k"
        )
    return lev


def factor_order_image(param: RealParam) -> Multisegment:
    """Image multisegment in factor order (no dominance reordering).

    Defined for any parameter; sign factors are dropped.  The result need
    not have weakly decreasing centers even when the input is dominant.
    Each factor's segment is built once, on first use.
    """
    return Multisegment(tuple(f._image for f in param.factors if f.level))


def gamma(param: RealParam, k: int) -> Optional[Multisegment]:
    """Level-k image of ``param``: ``None`` encodes the zero module.

    Raises if level < k (outside the domain of the correspondence).
    """
    lev = _require_level_at_least(param, k)
    if lev > k:
        return None
    return dominant_representative(factor_order_image(param))


def dimension_std(param: RealParam, k: int) -> int:
    """k!/prod(level_i!) on the level-k locus, 0 above it."""
    lev = _require_level_at_least(param, k)
    if lev > k:
        return 0
    denom = 1
    for f in param.factors:
        denom *= math.factorial(f.level)
    return math.factorial(k) // denom


def w_structure(param: RealParam, k: int) -> tuple[int, ...]:
    """Composition of the nonzero factor levels, in factor order.

    The symmetric-group restriction of the induced module is induced from
    the sign character of the corresponding Young subgroup.
    """
    lev = param.level
    if lev != k:
        raise ValueError(f"w_structure needs level == k, got level {lev} and k={k}")
    comp = tuple(f.level for f in param.factors if f.level > 0)
    assert sum(comp) == k
    return comp


def _scaled_eigenvalues(param: RealParam, k: int) -> tuple[int, list[tuple[int, int]]]:
    """Closed-form weight of the generating vector, one entry per position,
    as D and the integer pairs (D*re, D*im), with D = lcm(2, every
    denominator of every factor's nu).

    Position ``ell`` (1-based) inside the block of the p-th nonzero-level
    factor carries nu'_p - (level_p - 1)/2 + (ell - prec(ell) - 1), where
    prec(ell) is the number of positions in earlier blocks.  This is the one
    implementation of the formula; each factor's ``nu`` is read as integers
    once, through its cached ``_nu_grid``."""
    lev = param.level
    if lev != k:
        raise ValueError(f"eigenvalues need level == k, got level {lev} and k={k}")
    grids = [f._nu_grid for f in param.factors]
    scale = math.lcm(2, *(d for d, _, _ in grids))
    out: list[tuple[int, int]] = []
    for f, (d, re, im) in zip(param.factors, grids):
        level = f.level
        if level == 0:
            continue
        re, im = re * (scale // d) - (level - 1) * (scale // 2), im * (scale // d)
        # ell = prec + j + 1, so ell - prec - 1 = j
        out += [(re + j * scale, im) for j in range(level)]
    return scale, out


def eigenvalue_identity(param: RealParam, k: int) -> bool:
    """Check the closed-form weight against the central character of the
    factor-order image, coordinate by coordinate.

    Both sides are compared as integer pairs (D*re, D*im), where D is
    lcm(2, every denominator of every factor's nu); no Scalar arithmetic is
    done on the coordinates.  The two routes stay independent: the closed
    form reads each factor's ``nu`` and ``level``; the other side reads the
    segment starts and lengths that :func:`factor_order_image` builds (each
    start as integers once, through the segment's cached ``_start_grid``)
    and adds j*D for the j-th entry of each segment.  A start off the 1/D
    grid, where every closed-form coordinate lies, fails the identity.
    """
    scale, eig = _scaled_eigenvalues(param, k)
    image: list[tuple[int, int]] = []
    for seg in factor_order_image(param).segments:
        d, re, im = seg._start_grid
        if scale % d:
            return False
        re, im = re * (scale // d), im * (scale // d)
        image += [(re + j * scale, im) for j in range(seg.length)]
    return image == eig


@dataclass
class BijectionReport:
    """Outcome of matching level-n classes against multisegment classes.

    ``bijection`` is the literal verdict for the full level-n locus.  A
    parameter whose image has support different from ``lam`` (possible when
    a GL(2) factor's interior points are not matched by sign factors; such
    images carry a different central character) is listed in
    ``off_support``; ``bijection_on_support_matching`` is the verdict with
    those parameters excluded, which is the statement the functor actually
    supports block by block.
    """

    lam: tuple[int, ...]
    pairs: list[tuple[RealParam, Multisegment]]
    missing: list[Multisegment] = field(default_factory=list)
    collisions: list[tuple[Multisegment, list[RealParam]]] = field(default_factory=list)
    off_support: list[tuple[RealParam, Multisegment]] = field(default_factory=list)

    @property
    def bijection(self) -> bool:
        return not self.missing and not self.collisions and not self.off_support

    @property
    def bijection_on_support_matching(self) -> bool:
        return not self.missing and not self.collisions

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "pairs": [
                {"real": real_param_to_json(p), "hecke": multisegment_to_json(ms)}
                for p, ms in self.pairs
            ],
            "bijection": self.bijection,
            "bijection_on_support_matching": self.bijection_on_support_matching,
            "missing": [multisegment_to_json(ms) for ms in self.missing],
            "collisions": [
                {
                    "hecke": multisegment_to_json(ms),
                    "reals": [real_param_to_json(p) for p in ps],
                }
                for ms, ps in self.collisions
            ],
            "off_support": [
                {"real": real_param_to_json(p), "hecke": multisegment_to_json(ms)}
                for p, ms in self.off_support
            ],
        }


def _image_key(key: tuple) -> tuple:
    """Segment key (``multisegments._segment_pieces``) of the image of a
    factor key (``realparams._factor_pieces``) of nonzero level."""
    if key[3] == 1:  # triv at a, (-4a, -1, 0, 1): the segment {a}
        return (key[0] // 2, -1, key[0] // 4)
    # the pair a > b, (-(a+b), -(a-b+1), 0, 2): the segment b..a
    return (key[0], key[1], (key[0] - key[1] - 1) // 2)


def verify_bijection_level_n(lam: Sequence[int]) -> BijectionReport:
    """Match the level-n classes at ``lam`` against the multisegment classes
    with support ``lam`` through the level map; failures are reported, not
    raised.  An image is the sorted segment keys of a class's nonzero-level
    factor keys; each distinct factor and segment is built once per call."""
    lam = tuple(lam)
    params = _cover(lam, _factor_pieces, len(lam), _level_bound, exact=True)
    classes = _cover(lam, _segment_pieces)
    targets = set(classes)
    images = [tuple(sorted(_image_key(key) for key in keys if key[1])) for keys in params]
    hit: dict[tuple, list[int]] = {}
    for i, image in enumerate(images):
        if image in targets:
            hit.setdefault(image, []).append(i)
    missing = [keys for keys in classes if keys not in hit]
    reals = _built(params, _factor_from_key, RealParam)
    shown = _built(images + missing, _segment_from_key, Multisegment)
    pairs = list(zip(reals, shown))
    return BijectionReport(
        lam=lam,
        pairs=pairs,
        missing=shown[len(images) :],
        collisions=[(shown[ps[0]], [reals[i] for i in ps]) for ps in hit.values() if len(ps) > 1],
        off_support=[pair for pair, image in zip(pairs, images) if image not in targets],
    )

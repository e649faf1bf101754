"""The level-k parameter map from real parameters to multisegments.

A factor of level zero (a sign GL(1) character) is dropped; a trivial GL(1)
character with twist ``nu`` becomes the singleton segment {nu}; a GL(2)
factor with lowest O(2)-type ``l`` and twist ``nu`` becomes the length-l
segment centered at ``nu``.  The map is defined on parameters of level >= k:
level > k maps to zero, level = k maps to the multisegment class above.

On the level = k locus the induced module has dimension k!/prod(level_i!),
its restriction to the symmetric group is induced-from-sign over the Young
subgroup of the nonzero levels, and the weight of the generating vector is
given by a closed form: in the block of each nonzero-level factor, in factor
order, the run nu - (level - 1)/2 + j for j < level.  Since each image
segment is also a run of step 1, :func:`eigenvalue_identity` checks the
closed form against the central character of the image block by block, on
each block's length and start.

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
    return tuple(f.level for f in param.factors if f.level > 0)


def eigenvalue_identity(param: RealParam, k: int) -> bool:
    """Check the closed-form weight against the central character of the
    factor-order image, block by block.

    Inside the block of a nonzero-level factor both routes step by 1: the
    closed form gives nu - (level - 1)/2 + j and the image segment start + j.
    So the identity holds exactly when the image has one segment per
    nonzero-level factor, in factor order, each as long as the factor's
    level and starting where the closed form does.  The starts are compared
    as rationals by cross-multiplying the integer grids ``(d, d*re, d*im)``
    of the factor's cached ``_block_start`` and the segment's cached
    ``_start_grid``; no Scalar arithmetic is done.  The two routes stay
    independent: the closed form reads each factor's ``nu`` and ``level``,
    the other side the segments that :func:`factor_order_image` builds.
    """
    lev = param.level
    if lev != k:
        raise ValueError(f"eigenvalues need level == k, got level {lev} and k={k}")
    blocks = [f for f in param.factors if f.level]
    segments = factor_order_image(param).segments
    if len(segments) != len(blocks):
        return False
    for f, seg in zip(blocks, segments):
        if seg.length != f.level:
            return False
        d, re, im = f._block_start
        e, seg_re, seg_im = seg._start_grid
        if re * e != seg_re * d or im * e != seg_im * d:
            return False
    return True


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
    factor keys; the factors and segments come from memoised builders."""
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

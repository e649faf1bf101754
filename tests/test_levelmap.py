import math
from fractions import Fraction

import pytest

from glhecke import levelmap
from glhecke.branching import hom_multiplicity
from glhecke.levelmap import (
    dimension_std,
    eigenvalue_identity,
    factor_order_image,
    gamma,
    verify_bijection_level_n,
    w_structure,
)
from glhecke.multisegments import (
    Multisegment,
    Segment,
    _built,
    _cover,
    central_character,
    dominant_representative,
    enumerate_multisegments,
    segments_str,
    steinberg_param,
)
from glhecke.realparams import (
    GL1Factor,
    GL2Factor,
    RealParam,
    _factor_from_key,
    _factor_pieces,
    _level_bound,
    enumerate_real_params,
    parse_factors,
)
from glhecke.scalars import Scalar, _grid
from glhecke.sweeps import lambda_window
from linalg_oracle import q


def _position_eigenvalues(param, k):
    """Each nonzero-level factor's cached closed-form block start, expanded
    to its run start + j and lifted to Scalars with Fraction parts."""
    assert param.level == k
    out = []
    for f in param.factors:
        if f.level:
            d, re, im = f._block_start
            out.extend(Scalar(Fraction(re + j * d, d), Fraction(im, d)) for j in range(f.level))
    return tuple(out)


def _ref_position_eigenvalues(param, k):
    """Reference for the integer closed form: the same formula on Scalars."""
    assert param.level == k
    out = []
    for f in param.factors:
        half = Scalar(Fraction(f.level - 1, 2))
        out.extend(q(f.nu) - half + j for j in range(f.level))
    return tuple(out)


def _ref_eigenvalue_identity(param, k):
    """The Scalar identity: closed form against the central character of the
    factor-order image (looked up on the module, so a patch reaches it)."""
    image = levelmap.factor_order_image(param)
    return _ref_position_eigenvalues(param, k) == central_character(image)


def _ref_scaled_eigenvalues(param, k):
    """Closed-form weight of the generating vector, one entry per position,
    as D and the integer pairs (D*re, D*im), with D = lcm(2, every
    denominator of every factor's nu).

    Position ``ell`` (1-based) inside the block of the p-th nonzero-level
    factor carries nu'_p - (level_p - 1)/2 + (ell - prec(ell) - 1), where
    prec(ell) is the number of positions in earlier blocks."""
    lev = param.level
    if lev != k:
        raise ValueError(f"eigenvalues need level == k, got level {lev} and k={k}")
    grids = [_grid(f.nu) for f in param.factors]
    scale = math.lcm(2, *(d for d, _, _ in grids))
    out = []
    for f, (d, re, im) in zip(param.factors, grids):
        level = f.level
        if level == 0:
            continue
        re, im = re * (scale // d) - (level - 1) * (scale // 2), im * (scale // d)
        # ell = prec + j + 1, so ell - prec - 1 = j
        out += [(re + j * scale, im) for j in range(level)]
    return scale, out


def _ref_integer_eigenvalue_identity(param, k):
    """The position-by-position integer identity the block comparison
    replaced: both sides as pairs (D*re, D*im), the image side read from
    the segments of ``levelmap.factor_order_image`` (so a patch reaches it)
    with j*D added for the j-th entry of each segment."""
    scale, eig = _ref_scaled_eigenvalues(param, k)
    image = []
    for seg in levelmap.factor_order_image(param).segments:
        d, re, im = seg._start_grid
        if scale % d:
            return False
        re, im = re * (scale // d), im * (scale // d)
        image += [(re + j * scale, im) for j in range(seg.length)]
    return image == eig


def steinberg_real_param(n: int) -> RealParam:
    """Length-n block at 0 with sign characters at the interior points."""
    half = Fraction(n - 1, 2)
    factors = []
    inserted = False
    for j in range(n - 2):
        nu = Fraction(n - 3, 2) - j  # (n-1)/2 - 1 down to -(n-1)/2 + 1
        if not inserted and nu < 0:
            factors.append(GL2Factor(n, Scalar(0)))
            inserted = True
        factors.append(GL1Factor("sgn", Scalar(nu)))
    if not inserted:
        factors.append(GL2Factor(n, Scalar(0)))
    p = RealParam(tuple(factors))
    assert sorted(c.re for c in p.infinitesimal_character()) == [
        -half + j for j in range(n)
    ]
    return p


def test_gamma_spherical():
    p = parse_factors("gl1(triv,2);gl1(triv,1);gl1(triv,0)")
    assert segments_str(gamma(p, 3)) == "{2};{1};{0}"


def test_gamma_speh():
    p = parse_factors("gl2(2,1/2);gl2(2,-1/2)")
    img = gamma(p, 4)
    assert segments_str(img) == "{0,1};{-1,0}"


def test_gamma_steinberg():
    for n in (3, 4, 5, 6):
        p = steinberg_real_param(n)
        assert gamma(p, n) == steinberg_param(n)


def test_gamma_zero_and_domain():
    p = parse_factors("gl2(4,0)")
    assert gamma(p, 3) is None  # level 4 > 3
    with pytest.raises(ValueError):
        gamma(p, 5)  # level 4 < 5: outside the domain


def test_gamma_constant_on_classes():
    a = parse_factors("gl1(sgn,1);gl2(3,1)")
    b = parse_factors("gl2(3,1);gl1(sgn,1)")
    assert gamma(a, 3) == gamma(b, 3)


def test_dimension_examples():
    # all singleton levels: k!
    p = parse_factors("gl1(triv,2);gl1(triv,1);gl1(triv,0)")
    assert dimension_std(p, 3) == math.factorial(3) == hom_multiplicity(p, 3)
    # level > k vanishes
    assert dimension_std(parse_factors("gl2(4,0)"), 3) == 0
    assert hom_multiplicity(parse_factors("gl2(4,0)"), 3) == 0
    # two length-2 blocks at k = 4
    speh = parse_factors("gl2(2,1/2);gl2(2,-1/2)")
    assert dimension_std(speh, 4) == 6 == hom_multiplicity(speh, 4)


def test_w_structure():
    assert w_structure(parse_factors("gl1(triv,1);gl1(triv,0)"), 2) == (1, 1)
    assert w_structure(parse_factors("gl2(4,0)"), 4) == (4,)
    speh = parse_factors("gl2(2,1/2);gl2(2,-1/2)")
    comp = w_structure(speh, 4)
    assert comp == (2, 2)
    # induced-from-sign dimension agrees with the dimension formula
    assert math.factorial(4) // math.prod(math.factorial(c) for c in comp) == dimension_std(
        speh, 4
    )
    with pytest.raises(ValueError):
        w_structure(parse_factors("gl2(4,0)"), 3)


def test_eigenvalues_single_block():
    p = RealParam((GL2Factor(4, Scalar(0)),))
    assert _position_eigenvalues(p, 4) == tuple(
        Scalar(Fraction(2 * j - 3, 2)) for j in range(4)
    )
    assert eigenvalue_identity(p, 4)


def test_eigenvalues_singletons():
    p = parse_factors("gl1(triv,5);gl1(triv,-2)")
    assert _position_eigenvalues(p, 2) == (Scalar(5), Scalar(-2))
    assert eigenvalue_identity(p, 2)


def test_eigenvalues_speh():
    speh = parse_factors("gl2(2,1/2);gl2(2,-1/2)")
    assert _position_eigenvalues(speh, 4) == (Scalar(0), Scalar(1), Scalar(-1), Scalar(0))
    assert eigenvalue_identity(speh, 4)


def test_eigenvalue_identity_uses_factor_order():
    # dominant input whose image violates center-dominance in factor order
    p = parse_factors("gl1(triv,2);gl2(2,3)")
    assert eigenvalue_identity(p, 3)
    img = factor_order_image(p)
    assert _position_eigenvalues(p, 3) == central_character(img)
    # the dominant representative permutes the blocks here
    assert central_character(dominant_representative(img)) != central_character(img)


def test_negative_k_is_rejected():
    p = parse_factors("gl2(3,0)")
    for k in (-1, -2):
        with pytest.raises(ValueError, match="k must be >= 0"):
            gamma(p, k)
        with pytest.raises(ValueError, match="k must be >= 0"):
            dimension_std(p, k)


EXTRA_EIGEN_PARAMS = [
    "gl1(triv,1/3)",
    "gl2(3,1/2+1/3i)",
    f"gl1(triv,{2**40});gl2(2,{2**40}+1/3i);gl1(sgn,-{2**40})",
    "gl2(2,-5/6+7/4i);gl1(triv,1/2);gl1(sgn,1/5)",
]


def test_eigenvalue_identity_matches_scalar_reference():
    params = [
        p
        for n in range(1, 6)
        for lam in lambda_window(n, n)
        for p in enumerate_real_params(lam, 0)
        if 1 <= p.level <= 5
    ]
    params += [parse_factors(text) for text in EXTRA_EIGEN_PARAMS]
    for p in params:
        k = p.level
        assert _position_eigenvalues(p, k) == _ref_position_eigenvalues(p, k), p
        assert eigenvalue_identity(p, k) is _ref_integer_eigenvalue_identity(p, k) is True, p
        assert _ref_eigenvalue_identity(p, k) is True, p
        for wrong in (k - 1, k + 1):
            with pytest.raises(ValueError):
                eigenvalue_identity(p, wrong)


@pytest.mark.parametrize("shift", [Scalar(1), Scalar(0, 1), Scalar(Fraction(1, 7))])
def test_eigenvalue_identity_reads_the_image(monkeypatch, shift):
    # the second route must come from factor_order_image, not the closed form
    original = levelmap.factor_order_image

    def moved(param):
        segs = list(original(param).segments)
        last = segs[-1]
        segs[-1] = Segment(q(last.start) + shift, last.length)
        return Multisegment(tuple(segs))

    monkeypatch.setattr(levelmap, "factor_order_image", moved)
    for text in ["gl2(2,1/2);gl2(2,-1/2)", "gl1(triv,1/3)"] + EXTRA_EIGEN_PARAMS:
        p = parse_factors(text)
        assert not eigenvalue_identity(p, p.level), text
        assert not _ref_integer_eigenvalue_identity(p, p.level), text
        assert not _ref_eigenvalue_identity(p, p.level), text


def _lengthened(segs):
    return segs[:-1] + [Segment(segs[-1].start, segs[-1].length + 1)]


def _repeated(segs):
    return segs + segs[-1:]


def _split(segs):
    # the first length-2 segment {a, a+1} becomes {a};{a+1}: same coordinates
    i = next(i for i, seg in enumerate(segs) if seg.length == 2)
    a = segs[i].start
    return segs[:i] + [Segment(a, 1), Segment(q(a) + 1, 1)] + segs[i + 1 :]


@pytest.mark.parametrize("fault", [_lengthened, _repeated, _split])
def test_eigenvalue_identity_rejects_a_misaligned_image(monkeypatch, fault):
    # each image segment must be exactly one factor's block: a segment one
    # too long, or one segment too many, fails every route; a length-2
    # segment split into singletons keeps the coordinate list, so only the
    # block comparison rejects it
    original = levelmap.factor_order_image
    monkeypatch.setattr(
        levelmap,
        "factor_order_image",
        lambda param: Multisegment(tuple(fault(list(original(param).segments)))),
    )
    texts = ["gl2(2,1/2);gl2(2,-1/2)", "gl1(triv,1/3)"] + EXTRA_EIGEN_PARAMS
    if fault is _split:  # the three with a length-2 segment
        texts = [text for text in texts if "gl2(2," in text]
    for text in texts:
        p = parse_factors(text)
        assert not eigenvalue_identity(p, p.level), text
        same_coordinates = fault is _split
        assert _ref_integer_eigenvalue_identity(p, p.level) is same_coordinates, text
        assert _ref_eigenvalue_identity(p, p.level) is same_coordinates, text


def test_bijection_trivial_weight():
    report = verify_bijection_level_n((0,))
    assert report.bijection
    assert len(report.pairs) == 1
    assert segments_str(report.pairs[0][1]) == "{0}"


def test_bijection_at_2110():
    assert verify_bijection_level_n((2, 1, 1, 0)).bijection


def test_bijection_reports_off_support_parameters():
    # [gl2(3,1), gl1(sgn,0)] has weight (2,0,0) but its image has support
    # (2,1,0); the literal bijection fails while the support-matching part
    # still matches up perfectly.
    report = verify_bijection_level_n((2, 0, 0))
    assert not report.bijection
    assert report.bijection_on_support_matching
    assert len(report.off_support) == 1
    stray, image = report.off_support[0]
    assert segments_str(image) == "{0,1,2}"
    assert not report.missing and not report.collisions


def test_bijection_on_support_matching_holds_broadly():
    import itertools

    for n in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(n), n):
            lam = tuple(sorted(combo, reverse=True))
            report = verify_bijection_level_n(lam)
            assert report.bijection_on_support_matching, lam
            # every stray really does change the support
            for p, img in report.off_support:
                assert tuple(int(c.re) for c in img.support()) != lam


def test_image_support_is_endpoints_plus_interiors():
    for lam in [(2, 1, 0), (3, 2, 1, 0), (2, 0, 0)]:
        for p in enumerate_real_params(lam, len(lam)):
            if p.level != len(lam):
                continue
            img = gamma(p, len(lam))
            expected = []
            for f in p.factors:
                if isinstance(f, GL2Factor):
                    half = Scalar(Fraction(f.l - 1, 2))
                    expected.extend(q(f.nu) - half + j for j in range(f.l))
                elif f.eps == "triv":
                    expected.append(f.nu)
            assert sorted(img.support(), key=lambda s: s.re) == sorted(
                expected, key=lambda s: s.re
            )


# -- reference: the object route the integer-keyed verifier replaced -----------


def _ref_verify_bijection_level_n(lam):
    """Every class of level >= n filtered to level n, each image built by
    ``gamma`` and matched as a ``Multisegment``."""
    lam = tuple(lam)
    n = len(lam)
    params = [p for p in enumerate_real_params(lam, n) if p.level == n]
    classes = enumerate_multisegments(lam)
    targets = set(classes)
    hit, pairs, off_support = {}, [], []
    for p in params:
        ms = gamma(p, n)
        pairs.append((p, ms))
        if ms in targets:
            hit.setdefault(ms, []).append(p)
        else:
            off_support.append((p, ms))
    return levelmap.BijectionReport(
        lam=lam,
        pairs=pairs,
        missing=[ms for ms in classes if ms not in hit],
        collisions=[(ms, ps) for ms, ps in hit.items() if len(ps) > 1],
        off_support=off_support,
    )


REF_BIJECTION_WEIGHTS = (
    [lam for n in range(1, 6) for lam in lambda_window(n, n)]
    + [tuple(range(n - 1, -1, -1)) for n in range(1, 9)]
    + [(2, 0, 0)]
)


def test_bijection_matches_object_reference():
    for lam in REF_BIJECTION_WEIGHTS:
        report = verify_bijection_level_n(lam)
        assert report.to_json() == _ref_verify_bijection_level_n(lam).to_json(), lam


def test_exact_level_cover_is_the_level_filter():
    # the exact-level prune lists exactly the classes of level k, in the
    # order enumerate_real_params gives them, for every k up to one past the top
    for lam in REF_BIJECTION_WEIGHTS:
        n, everything = len(lam), enumerate_real_params(lam, 0)
        for k in range(max(p.level for p in everything) + 2):
            keys = _cover(lam, _factor_pieces, k, _level_bound, exact=True)
            got = _built(keys, _factor_from_key, RealParam)
            assert got == [p for p in everything if p.level == k], (lam, k)
            if k == n:
                assert got == [p for p in enumerate_real_params(lam, n) if p.level == n], lam

import itertools
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glhecke.multisegments import (
    Multisegment,
    Segment,
    _cover,
    _segment_key,
    _segment_pieces,
    central_character,
    dominant_representative,
    enumerate_multisegments,
    is_dominant_ms,
    multisegment_from_json,
    multisegment_to_json,
    parse_segments,
    segments_str,
    steinberg_param,
)
from glhecke.realparams import _factor_pieces, _level_bound, enumerate_real_params
from glhecke.scalars import Scalar, rat_str
from glhecke.sweeps import lambda_window
from linalg_oracle import q

starts = st.builds(Scalar, st.fractions(max_denominator=4), st.fractions(max_denominator=4))
segments = st.builds(Segment, starts, st.integers(min_value=1, max_value=5))
multisegments = st.builds(Multisegment, st.lists(segments, max_size=5).map(tuple))


def test_segment_derived_fields():
    s = Segment(Scalar(3), 2)
    assert s.entries()[-1] == Scalar(4)
    assert _segment_key(s)[0] == -7  # the doubled center
    assert s.entries() == (Scalar(3), Scalar(4))
    with pytest.raises(ValueError):
        Segment(Scalar(0), 0)


def test_segment_str_matches_fraction_entries():
    # each entry is formatted from the start's numerator and denominator
    for den in (2, 3):
        for num in range(-7, 8):
            for im in (Fraction(0), Fraction(2), Fraction(-1, 3)):
                seg = Segment(Scalar(Fraction(num, den), im), 4)
                tail = "" if im == 0 else f"{'+' if im > 0 else '-'}{rat_str(abs(im))}i"
                entries = [rat_str(seg.start.re + j) + tail for j in range(4)]
                assert str(seg) == "{" + ",".join(entries) + "}", seg


def test_segment_rejects_bool_length():
    # a bool is an int; accepted, it would serialize as "len": true
    for length in (True, False):
        with pytest.raises(ValueError, match="positive integer"):
            Segment(Scalar(0), length)


def _ref_segment_key(s):
    # the Scalar-center order the doubled integer center replaced
    center = q(s.start) + Fraction(s.length - 1, 2)
    return (-center.re, -s.length, -s.start.re, center.im)


@given(multisegments)
def test_segment_key_matches_scalar_center_reference(ms):
    ref = sorted(ms.segments, key=_ref_segment_key)
    assert dominant_representative(ms).segments == tuple(ref)
    centers = [_ref_segment_key(s)[0] for s in ms.segments]
    assert is_dominant_ms(ms) == all(a <= b for a, b in zip(centers, centers[1:]))
    assert parse_segments(segments_str(ms)) == ms


def test_support_counts_multiplicity():
    ms = parse_segments("{0,1};{1}")
    assert [str(x) for x in ms.support()] == ["1", "1", "0"]
    assert ms.k == 3


def test_dominant_representative_sorts_by_center():
    ms = Multisegment((Segment(Scalar(2), 1), Segment(Scalar(3), 2)))
    assert segments_str(dominant_representative(ms)) == "{3,4};{2}"
    single = parse_segments("{5,6,7}")
    assert dominant_representative(single) == single


def test_dominant_representative_full_segment_is_steinberg():
    n = 5
    full = parse_segments("{-2,-1,0,1,2}")
    assert dominant_representative(full) == steinberg_param(n)


@given(multisegments)
def test_dominant_representative_idempotent_and_class_constant(ms):
    rep = dominant_representative(ms)
    assert dominant_representative(rep) == rep
    assert is_dominant_ms(rep)
    rev = Multisegment(tuple(reversed(ms.segments)))
    assert dominant_representative(rev) == rep
    assert rep.support() == ms.support()


def test_central_character_blocks():
    # single block centered at zero lists -(k-1)/2 .. (k-1)/2
    for k in (1, 3, 6):
        cc = central_character(steinberg_param(k))
        assert cc == tuple(Scalar(Fraction(2 * j - (k - 1), 2)) for j in range(k))
    assert central_character(parse_segments("{1/2};{-1/2}")) == (
        Scalar(Fraction(1, 2)),
        Scalar(Fraction(-1, 2)),
    )
    assert central_character(parse_segments("{3,4};{2}")) == (Scalar(3), Scalar(4), Scalar(2))


@given(multisegments)
def test_central_character_multiset_is_support(ms):
    assert sorted(central_character(ms), key=lambda s: (s.re, s.im)) == sorted(
        ms.support(), key=lambda s: (s.re, s.im)
    )


def test_enumerate_counts():
    assert len(enumerate_multisegments((0,))) == 1
    assert [segments_str(m) for m in enumerate_multisegments((1, 1))] == ["{1};{1}"]
    for n in range(1, 11):
        lam = tuple(range(n - 1, -1, -1))
        assert len(enumerate_multisegments(lam)) == 2 ** (n - 1)


def test_enumerate_classes_have_support_lambda():
    lam = (3, 2, 2, 0)
    classes = enumerate_multisegments(lam)
    assert len(classes) == len(set(classes))
    for ms in classes:
        assert tuple(int(c.re) for c in ms.support()) == lam
        assert is_dominant_ms(ms)
    assert classes == enumerate_multisegments(lam)


def test_enumerate_rejects_non_integral():
    with pytest.raises(ValueError):
        enumerate_multisegments((Fraction(1, 2), Fraction(-1, 2)))


def test_steinberg_param():
    assert segments_str(steinberg_param(1)) == "{0}"
    assert segments_str(steinberg_param(3)) == "{-1,0,1}"
    assert central_character(steinberg_param(3)) == (Scalar(-1), Scalar(0), Scalar(1))


def test_json_round_trip_matches_schema():
    ms = parse_segments("{1/2,3/2};{-1}")
    obj = multisegment_to_json(ms)
    assert obj == {"segments": [{"start": "1/2", "len": 2}, {"start": "-1", "len": 1}]}
    assert multisegment_from_json(json.loads(json.dumps(obj))) == ms
    for bad, field in (({}, "segments"), ({"segments": [{"len": 1}]}, "start")):
        with pytest.raises(ValueError, match=f"^missing field '{field}'$"):
            multisegment_from_json(bad)


def test_parse_segments_forms():
    assert parse_segments("({0,1},{-1,0})") == parse_segments("{0,1};{-1,0}")
    with pytest.raises(ValueError):
        parse_segments("{0,2}")  # entries must step by one
    with pytest.raises(ValueError):
        parse_segments("{}")


def _ref_segment_multisets(counts):
    """(start, length) pairs of every segment multiset with the given support
    counts: the copies of the maximum all end segments, so they are assigned
    start values simultaneously."""
    counts = {v: c for v, c in counts.items() if c > 0}
    if not counts:
        yield ()
        return
    a = max(counts)
    mult = counts.pop(a)
    starts = sorted(counts) + [a]  # candidate lower endpoints
    for combo in itertools.combinations_with_replacement(sorted(starts, reverse=True), mult):
        used = {}
        for x in combo:
            for v in range(x, a):
                used[v] = used.get(v, 0) + 1
        if any(c > counts.get(v, 0) for v, c in used.items()):
            continue
        rest = dict(counts)
        for v, c in used.items():
            rest[v] -= c
        head = tuple((x, a - x + 1) for x in combo)
        for tail in _ref_segment_multisets(rest):
            yield head + tail


def _ref_enumerate_multisegments(lam):
    # the Fraction-keyed ordering the integer keys replaced
    counts = {}
    for x in lam:
        counts[x] = counts.get(x, 0) + 1
    out = []
    for pairs in _ref_segment_multisets(counts):
        segs = tuple(Segment(Scalar(x), ln) for x, ln in pairs)
        out.append(dominant_representative(Multisegment(segs)))
    out.sort(key=lambda ms: tuple(_segment_key(s) for s in ms.segments))
    return out


def test_enumerate_matches_fraction_keyed_reference():
    lams = [lam for n in range(1, 6) for lam in lambda_window(n, n)]
    lams += [(6, 0), (5, 5, 0), (7, 3, 3, 0), (4, 4, 4, 1, 1)]
    for lam in lams:
        ref = _ref_enumerate_multisegments(lam)
        got = enumerate_multisegments(lam)
        assert [segments_str(m) for m in got] == [segments_str(m) for m in ref], lam
        assert got == ref


def _ref_cover(lam, pieces, need=0, bound=None, exact=False):
    """The covering walk before its memo: the chosen keys sit on one stack,
    and each finished class goes straight into one output list."""
    out, head = [], []

    def walk(counts, need):
        if not counts:
            if need == 0 or (need < 0 and not exact):
                out.append(tuple(sorted(head)))
            return
        if (need < 0 and exact) or (need > 0 and bound is not None and bound(counts) < need):
            return
        a = max(counts)
        mult = counts.pop(a)
        options = pieces(a, sorted(counts, reverse=True))
        for combo in itertools.combinations_with_replacement(options, mult):
            rest, left = dict(counts), need
            for _, used, level in combo:
                left -= level
                for v in used:
                    rest[v] = rest.get(v, 0) - 1
            if any(c < 0 for c in rest.values()):
                continue
            head.extend(key for key, _, _ in combo)
            walk({v: c for v, c in rest.items() if c}, left)
            del head[-mult:]

    walk(Counter(lam), need)
    return sorted(out)


def test_memoised_walks_hand_out_fresh_lists():
    # the covering walk is memoised; a caller that edits the list it got must
    # not change what the next call returns
    lam = (3, 2, 1, 1, 0)
    for enumerate_ in (
        lambda: _cover(lam, _segment_pieces),
        lambda: _cover(lam, _factor_pieces, len(lam), _level_bound, exact=True),
        lambda: enumerate_multisegments(lam),
        lambda: enumerate_real_params(lam),
    ):
        got = enumerate_()
        kept = list(got)
        got.reverse()
        got.append(None)
        assert enumerate_() == kept


def test_memoised_cover_matches_reference_walk():
    # segment pieces; factor pieces at every level floor up to one past the
    # top level, pruned by the level bound; and the exact level-n mode.  For
    # the level floors the reference lists every factor class once and is
    # filtered on level (its bound only prunes); a factor key's second entry
    # is minus the factor's level.
    lams = [lam for n in range(1, 7) for lam in lambda_window(n, n)]
    lams += [(6, 0), (5, 5, 0), (7, 3, 3, 0), (4, 4, 4, 1, 1), tuple(range(8, -1, -1))]
    for lam in lams:
        assert _cover(lam, _segment_pieces) == _ref_cover(lam, _segment_pieces), lam
        graded = [(-sum(key[1] for key in keys), keys) for keys in _ref_cover(lam, _factor_pieces)]
        for need in range(max(level for level, _ in graded) + 2):
            expected = [keys for level, keys in graded if level >= need]
            assert _cover(lam, _factor_pieces, need, _level_bound) == expected, (lam, need)
        n = len(lam)
        expected = _ref_cover(lam, _factor_pieces, n, _level_bound, exact=True)
        assert expected == [keys for level, keys in graded if level == n], lam
        assert _cover(lam, _factor_pieces, n, _level_bound, exact=True) == expected, lam

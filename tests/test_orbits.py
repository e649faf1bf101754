import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest

from glhecke import orbits
from glhecke.multisegments import (
    Multisegment,
    Segment,
    _segment_from_key,
    enumerate_multisegments,
    multisegment_from_json,
    multisegment_to_json,
    parse_segments,
    segments_str,
)
from glhecke.orbits import (
    BlockStructure,
    ColumnDiagram,
    SignedInvolution,
    StructuralError,
    _apply_segment,
    _touched_columns,
    build_diagram,
    flatten_diagram,
    initial_diagram,
    involution_to_json,
    make_involution,
    orbit_class,
    psi_g,
    render_diagram,
    render_involution,
    verify_injectivity,
    verify_psi_wellposed,
)
from glhecke.scalars import Scalar
from glhecke.sweeps import lambda_window

WORKED_LAMBDA = (4, 4, 3, 3, 3, 3, 2, 2, 2, 1, 1, 0)
WORKED_TAU = "{0,1,2,3,4};{1,2,3};{2};{3};{3};{4}"


def _reordered(diagram, orders):
    """``diagram`` with the cells of each column permuted by ``orders``."""
    columns = tuple(tuple(col[t] for t in order) for col, order in zip(diagram.columns, orders))
    return ColumnDiagram(diagram.values, columns)


def test_signed_involution_validation():
    with pytest.raises(ValueError):
        make_involution(2, [(0, 1)], {0: "+"})  # sign on a paired point
    with pytest.raises(ValueError):
        make_involution(2, [], {0: "+"})  # missing sign
    sigma = make_involution(3, [(0, 2)], {1: "-"})
    assert sigma.arcs() == ((0, 2),)
    assert sigma.signature() == (1, 2)


def test_make_involution_rejects_malformed_arcs():
    # a loop, a repeated arc, two arcs sharing a position, and ends out of range
    for arcs, signs in [
        ([(1, 1)], {0: "+", 1: "+", 2: "-"}),
        ([(0, 1), (0, 1)], {2: "+"}),
        ([(0, 1), (1, 2)], {}),
        ([(0, 3)], {1: "+", 2: "-"}),
        ([(-1, 0)], {1: "+"}),
    ]:
        with pytest.raises(ValueError, match="arcs must join"):
            make_involution(3, arcs, signs)
    for arcs, signs in [([(1, 1)], {0: "+", 1: "+"}), ([(0, 1), (0, 1)], {}), ([(0, 2)], {1: "+"})]:
        with pytest.raises(ValueError, match="arcs must join"):
            make_involution(2, arcs, signs)


def test_block_structure():
    bs = BlockStructure((2, 3))
    assert bs.n == 5
    assert bs.block_of == (0, 0, 1, 1, 1)
    assert initial_diagram(WORKED_LAMBDA).blocks().sizes == (2, 4, 3, 2, 1)


def test_sequences_are_stored_as_tuples():
    sigma = SignedInvolution(2, [0, 1], ["+", "-"])
    built = make_involution(2, [], {0: "+", 1: "-"})
    assert sigma == built and hash(sigma) == hash(built)
    cls = orbit_class(sigma, BlockStructure([1, 1]))
    assert hash(cls) == hash(orbit_class(built, BlockStructure((1, 1))))
    for sizes in [(1.5,), (True,), ("2",), (0,)]:
        with pytest.raises(ValueError, match="positive integers"):
            BlockStructure(sizes)


def test_s_action_case1_opposite_signs_make_arc():
    sigma = make_involution(2, [], {0: "+", 1: "-"})
    moved = _ref_s_action(sigma, 0)
    assert moved.arcs() == ((0, 1),)


def test_s_action_case2_fixed():
    same = make_involution(2, [], {0: "+", 1: "+"})
    assert _ref_s_action(same, 0) == same
    arc = make_involution(2, [(0, 1)], {})
    assert _ref_s_action(arc, 0) == arc


def test_s_action_case3_conjugation():
    sigma = make_involution(3, [(0, 2)], {1: "-"})
    moved = _ref_s_action(sigma, 0)
    assert moved.arcs() == ((1, 2),)
    assert moved.signs[0] == "-"
    # conjugation is an involution
    assert _ref_s_action(moved, 0) == sigma


def test_orbit_class_singleton_blocks():
    sigma = make_involution(3, [(0, 1)], {2: "+"})
    bs = BlockStructure((1, 1, 1))
    assert _ref_orbit_class(sigma, bs) == frozenset({sigma})
    assert orbit_class(sigma, bs).size == 1


def test_orbit_class_undirected_closure():
    # starting from the arc, closure recovers both signed preimages
    bs = BlockStructure((2,))
    arc = make_involution(2, [(0, 1)], {})
    cls = orbit_class(arc, bs)
    assert make_involution(2, [], {0: "+", 1: "-"}) in cls
    assert make_involution(2, [], {0: "-", 1: "+"}) in cls
    assert make_involution(2, [], {0: "+", 1: "+"}) not in cls


def test_orbit_class_constant_on_members():
    sigma = make_involution(4, [(0, 3)], {1: "+", 2: "-"})
    cls = orbit_class(sigma, BlockStructure((2, 2)))
    members = _ref_orbit_class(sigma, cls.blocks)
    assert len(members) == cls.size
    for member in members:
        assert orbit_class(member, cls.blocks) == cls
    # classes hash on their blocks and key, not on the member they came from
    assert len({orbit_class(member, cls.blocks) for member in members}) == 1
    assert orbit_class(sigma, BlockStructure((1, 3))) != cls


@pytest.mark.parametrize(
    "sizes, key",
    [
        # P + Q = 10 on a block of 2 positions
        ((2,), (((5, 5),), ())),
        # a cross pair out of order, and one naming a block past the last
        ((1, 1), (((0, 0), (0, 0)), ((1, 0),))),
        ((1, 1), (((0, 0), (0, 0)), ((0, 5),))),
        # one (P, Q) per block: a missing block, a triple and a negative count
        ((1, 1), (((1, 0),), ())),
        ((1,), (((1, 0, 0),), ())),
        ((2,), (((3, -1),), ())),
    ],
)
def test_orbit_class_rejects_a_key_that_does_not_fit(sizes, key):
    blocks = BlockStructure(sizes)
    with pytest.raises(ValueError, match="does not fit the blocks"):
        orbits.OrbitClass(blocks, key)


def test_initial_diagram_parities():
    d = initial_diagram((2, 1, 1, 0))
    assert d.values == (2, 1, 0)
    assert [[c[0] for c in col] for col in d.columns] == [[1], [-1, -1], [1]]


def test_psi_all_singletons_keeps_parity_signs():
    lam = (2, 1, 1, 0)
    cls = psi_g(parse_segments("{2};{1};{1};{0}"), lam)
    expected = make_involution(4, [], {0: "+", 1: "-", 2: "-", 3: "+"})
    assert expected in cls


def test_psi_full_segment_signature():
    for n in (2, 3, 4, 5, 6):
        lam = tuple(range(n - 1, -1, -1))
        text = "{" + ",".join(str(j) for j in range(n)) + "}"
        cls = psi_g(parse_segments(text), lam)
        p, q = cls.canonical.signature()
        assert (p, q) == ((n + 1) // 2, n // 2)
        assert len(cls.canonical.arcs()) == 1


def test_psi_signature_matches_parity_counts():
    lam = (3, 2, 2, 1, 0)
    for ms_text in ["{3};{2};{2};{1};{0}", "{1,2,3};{2};{0}", "{0,1,2,3};{2}", "{2,3};{1,2};{0}"]:
        ms = parse_segments(ms_text)
        cls = psi_g(ms, lam)
        evens = sum(1 for x in lam if x % 2 == 0)
        odds = len(lam) - evens
        assert cls.canonical.signature() == (evens, odds)


def test_psi_arc_count_is_long_segment_count():
    lam = (3, 2, 2, 1, 0)
    for ms_text, arcs in [("{1,2,3};{2};{0}", 1), ("{2,3};{1,2};{0}", 2), ("{0,1,2,3};{2}", 1)]:
        cls = psi_g(parse_segments(ms_text), lam)
        assert len(cls.canonical.arcs()) == arcs


def test_psi_rejects_support_mismatch():
    with pytest.raises(ValueError):
        psi_g(parse_segments("{0,1}"), (1, 1))


def test_structural_error_surfaces():
    d = initial_diagram((2, 1, 0))
    touched = _touched_columns(d.values, 0, 2)
    assert touched == (0, 2, 1)
    cols = _apply_segment(d.values, d.columns, touched, 1)
    # every cell is now used or flipped; a second long segment finds no fresh cell
    with pytest.raises(StructuralError):
        _apply_segment(d.values, cols, touched, 2)


def test_worked_example_flattenings_are_equivalent():
    tau = parse_segments(WORKED_TAU)
    cls = psi_g(tau, WORKED_LAMBDA)
    first = make_involution(
        12, [(1, 11), (2, 10)], {0: "+", 3: "-", 4: "+", 5: "-", 6: "-", 7: "-", 8: "+", 9: "+"}
    )
    second = make_involution(
        12, [(0, 11), (5, 9)], {1: "+", 2: "+", 3: "-", 4: "-", 6: "-", 7: "-", 8: "+", 10: "+"}
    )
    assert first in cls
    assert second in cls
    assert render_involution(first) == "+ 1 2 - + - - - + + 2 1"
    assert render_involution(second) == "1 + + - - 2 - - + 2 + 1"
    assert first.signature() == (6, 6)
    # the two flattenings lie in one orbit also when computed from each other
    assert orbit_class(first, cls.blocks) == orbit_class(second, cls.blocks)


def test_worked_example_diagram_render():
    tau = parse_segments(WORKED_TAU)
    diagram = build_diagram(tau, WORKED_LAMBDA)
    assert render_diagram(diagram) == (
        "4  3  2  1  0\n"
        "1  +  -  +  1\n"
        "+  2  -  2\n"
        "   -  +\n"
        "   -"
    )
    sigma = flatten_diagram(diagram)
    assert render_involution(sigma) == "1 + + 2 - - - - + + 2 1"


def test_flatten_orders_change_positions_not_class():
    tau = parse_segments("{0,1,2}")
    lam = (2, 1, 0)
    diagram = build_diagram(tau, lam)
    base = flatten_diagram(diagram)
    cls = orbit_class(base, diagram.blocks())
    assert flatten_diagram(_reordered(diagram, [(0,), (0,), (0,)])) == base
    # single-cell columns admit only one order here, so use a fatter weight
    lam2 = (1, 1, 0, 0)
    diagram2 = build_diagram(parse_segments("{0,1};{1};{0}"), lam2)
    cls2 = orbit_class(flatten_diagram(diagram2), diagram2.blocks())
    for orders in [[(0, 1), (0, 1)], [(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 0)]]:
        assert flatten_diagram(_reordered(diagram2, orders)) in cls2


def test_flatten_rejects_malformed_input():
    arc = (0, 1)
    for cells in ((arc, arc, arc, arc), (arc, arc, arc, (1, None))):
        with pytest.raises(ValueError, match="more than two endpoints"):
            flatten_diagram(ColumnDiagram((1, 0), (cells[:2], cells[2:])))
    with pytest.raises(ValueError):  # one endpoint
        flatten_diagram(ColumnDiagram((0,), ((arc, (1, None)),)))


def test_wellposed_and_injective_small():
    for lam in [(0,), (1, 1, 0), (2, 1, 0), (2, 1, 1, 0), (2, 2, 1, 0)]:
        assert verify_psi_wellposed(lam).ok
        report = verify_injectivity(lam)
        assert report.ok
    assert verify_injectivity((2, 1, 0)).classes == 4


def test_injectivity_reports_a_collision(monkeypatch):
    # an orbit map sending every class at (1, 0) to the class of the first
    real = orbits.psi_g
    monkeypatch.setattr(orbits, "psi_g", lambda ms, lam: real(enumerate_multisegments(lam)[0], lam))
    report = verify_injectivity((1, 0))
    assert report.classes == 1
    assert not report.ok
    assert [c["taus"] for c in report.collisions] == [["{1};{0}", "{0,1}"]]


def test_a_patched_route_leaves_no_trace_in_the_memo(monkeypatch):
    # psi is memoised below the names a tamper test patches, so once a patch
    # is undone the verifiers see the honest map again
    real = orbits.psi_g
    with monkeypatch.context() as patch:
        patch.setattr(orbits, "psi_g", lambda ms, lam: real(enumerate_multisegments(lam)[0], lam))
        assert verify_injectivity((1, 0)).classes == 1
    report = verify_injectivity((1, 0))
    assert (report.classes, report.ok) == (2, True)
    with monkeypatch.context() as patch:
        # every class walked as if it had no segment: {0,1} loses its arc
        patch.setattr(orbits, "_all_final_diagrams", lambda ms, lam: {orbits._walk(lam, ())})
        assert not verify_psi_wellposed((1, 0)).ok
    assert verify_psi_wellposed((1, 0)).ok


@dataclass(frozen=True)
class _GeneratedHashSegment:
    """The fields of ``Segment`` under the hash ``@dataclass`` generates."""

    start: Scalar
    length: int


def test_segment_hash_agrees_with_equality_and_keys_one_psi_entry():
    # the same multisegment parsed, built from its integer keys and read back
    # from JSON: equal, hashing equal, and one psi memo entry for all three
    lam = (2, 1, 1, 0)
    parsed = parse_segments("{1,2};{0,1}")
    keyed = Multisegment((_segment_from_key((-3, -2, -1)), _segment_from_key((-1, -2, 0))))
    loaded = multisegment_from_json(json.loads(json.dumps(multisegment_to_json(parsed))))
    assert parsed == keyed == loaded and keyed.segments[0] is _segment_from_key((-3, -2, -1))
    assert hash(parsed) == hash(keyed) == hash(loaded)
    for ms in (keyed, loaded):
        assert all(a == b and hash(a) == hash(b) for a, b in zip(parsed.segments, ms.segments))
    # the hash is the generated one, for integral, half-integral and Gaussian starts
    for start in (Scalar(3), Scalar(-2), Scalar(Fraction(1, 2)), Scalar(Fraction(-1, 2), Fraction(3, 4))):
        for length in (1, 4):
            assert hash(Segment(start, length)) == hash(_GeneratedHashSegment(start, length))
    orbits._psi.cache_clear()
    target = psi_g(parsed, lam)
    assert psi_g(keyed, lam) == psi_g(loaded, list(lam)) == target
    info = orbits._psi.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    # psi_g still checks lambda before the memo is asked
    for bad in [(2, 1, 1, True), (2, 1, 1, 0.0), (0, 1, 1, 2)]:
        with pytest.raises(ValueError):
            psi_g(parsed, bad)
    assert orbits._psi.cache_info().currsize == 1


def test_worked_example_wellposed():
    report = verify_psi_wellposed(WORKED_LAMBDA[:0] + (2, 1, 1, 0))
    assert report.ok


def test_involution_json_round_trip():
    sigma = make_involution(4, [(0, 3)], {1: "+", 2: "-"})
    obj = involution_to_json(sigma)
    assert obj == {"n": 4, "arcs": [[1, 4]], "signs": {"2": "+", "3": "-"}}
    obj = json.loads(json.dumps(obj))
    arcs = [(i - 1, j - 1) for i, j in obj["arcs"]]
    signs = {int(pos) - 1: sign for pos, sign in obj["signs"].items()}
    assert make_involution(obj["n"], arcs, signs) == sigma


WEIGHTS_POOL = Path(__file__).resolve().parents[1] / "bench" / "pools" / "weights.json"


def test_orbit_counts_match_weights_pool():
    # the flattening count, the class count and both verdicts of every
    # weight with n <= 6 in the weights benchmark pool, as recorded there
    items = json.loads(WEIGHTS_POOL.read_text())["items"]
    lams = {
        tuple(int(x) for x in item["input"].split(",")): item["expect"]
        for item in items
        if item["input"].count(",") < 6
    }
    assert len(lams) == 175 + 462
    for lam, expect in lams.items():
        wellposed, injective = verify_psi_wellposed(lam), verify_injectivity(lam)
        assert (
            sum(entry["outputs"] for entry in wellposed.entries),
            injective.classes,
            wellposed.ok,
            injective.ok,
        ) == (
            expect["flattenings"],
            expect["orbit_classes"],
            expect["psi_wellposed"],
            expect["psi_injective"],
        ), lam


# -- reference routes: closure and flattenings on validated involutions ---------


def _ref_s_action(sigma, i):
    a, b = i, i + 1
    if sigma.pairing[a] == a and sigma.pairing[b] == b:
        if sigma.signs[a] != sigma.signs[b]:
            pairing, signs = list(sigma.pairing), list(sigma.signs)
            pairing[a], pairing[b] = b, a
            signs[a] = signs[b] = None
            return SignedInvolution(sigma.n, tuple(pairing), tuple(signs))
        return sigma
    if sigma.pairing[a] == b:
        return sigma
    t = list(range(sigma.n))
    t[a], t[b] = b, a
    pairing, signs = [0] * sigma.n, [None] * sigma.n
    for j in range(sigma.n):
        pairing[t[j]] = t[sigma.pairing[j]]
        signs[t[j]] = sigma.signs[j]
    return SignedInvolution(sigma.n, tuple(pairing), tuple(signs))


def _ref_neighbors(sigma, i):
    yield _ref_s_action(sigma, i)
    if sigma.pairing[i] == i + 1:
        for sa, sb in (("+", "-"), ("-", "+")):
            pairing, signs = list(sigma.pairing), list(sigma.signs)
            pairing[i], pairing[i + 1] = i, i + 1
            signs[i], signs[i + 1] = sa, sb
            yield SignedInvolution(sigma.n, tuple(pairing), tuple(signs))


def _ref_orbit_class(sigma, bs):
    """The members of the class of ``sigma``, by breadth-first closure."""
    in_block = [i for i in range(sigma.n - 1) if bs.block_of[i] == bs.block_of[i + 1]]
    seen, frontier = {sigma}, [sigma]
    while frontier:
        nxt = []
        for cur in frontier:
            for i in in_block:
                for other in _ref_neighbors(cur, i):
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
        frontier = nxt
    return frozenset(seen)


def _signed_involutions(n):
    """Every involution of range(n) with signed fixed points."""

    def pairings(free):
        if not free:
            yield {}
            return
        i, rest = free[0], free[1:]
        yield from ({i: i, **p} for p in pairings(rest))
        for k, j in enumerate(rest):
            yield from ({i: j, j: i, **p} for p in pairings(rest[:k] + rest[k + 1 :]))

    for p in pairings(tuple(range(n))):
        fixed = [i for i in range(n) if p[i] == i]
        for chosen in itertools.product("+-", repeat=len(fixed)):
            signs = dict(zip(fixed, chosen))
            yield SignedInvolution(n, tuple(p[i] for i in range(n)), tuple(map(signs.get, range(n))))


def _block_structures(n):
    """Every composition of n, as a block structure."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        ends = [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
        yield BlockStructure(tuple(b - a for a, b in zip([0] + ends, ends)))


def _encode(sigma):
    """Position by position, the partner and then the sign: '+' before '-'."""
    code = {None: 0, "+": 1, "-": 2}
    return tuple((j, code[s]) for j, s in zip(sigma.pairing, sigma.signs))


def _key_partition_mismatch(key, max_n):
    """The first ``(n, sizes)`` whose grouping of the signed involutions by
    ``key(sigma, blocks)`` is not the partition into closure classes, or
    with a closure class whose ``orbit_class`` has another size or least
    member."""
    for n in range(1, max_n + 1):
        sigmas = list(_signed_involutions(n))
        for bs in _block_structures(n):
            groups = {}
            for sigma in sigmas:
                groups.setdefault(key(sigma, bs), set()).add(sigma)
            seen, classes = set(), set()
            for sigma in sigmas:
                if sigma not in seen:
                    cls = _ref_orbit_class(sigma, bs)
                    seen |= cls
                    classes.add(cls)
            if classes != {frozenset(g) for g in groups.values()}:
                return n, bs.sizes
            for ref in classes:
                cls = orbit_class(next(iter(ref)), bs)
                if cls.size != len(ref) or cls.canonical != min(ref, key=_encode):
                    return n, bs.sizes
    return None


def test_signed_involutions_are_all_enumerated():
    # a(n) = 2 a(n-1) + (n-1) a(n-2): one point is a signed fixed point or is
    # joined to one of the n-1 others
    assert [len(set(_signed_involutions(n))) for n in range(1, 8)] == [2, 5, 14, 43, 142, 499, 1850]
    assert [len(list(_block_structures(n))) for n in range(1, 8)] == [1, 2, 4, 8, 16, 32, 64]


def test_count_key_partition_is_the_closure_partition():
    # every signed involution and every block structure with n <= 7, and
    # the closed-form size and least member of every class
    assert _key_partition_mismatch(lambda sigma, bs: orbit_class(sigma, bs).key, 7) is None


def _without_in_block_arcs(sigma, bs):
    counts, cross = orbit_class(sigma, bs).key
    block = bs.block_of
    inner = [sum(1 for i, j in sigma.arcs() if block[i] == block[j] == b) for b in range(len(counts))]
    return tuple((p - a, q - a) for (p, q), a in zip(counts, inner)), cross


def _unsigned(sigma, bs):
    counts, cross = orbit_class(sigma, bs).key
    return tuple(p + q for p, q in counts), cross


@pytest.mark.parametrize("key", [_without_in_block_arcs, _unsigned])
def test_count_key_needs_inner_arcs_and_signs(key):
    assert _key_partition_mismatch(key, 4) is not None


def _ref_fresh(value):
    """The cell of a fixed point that still has the parity sign of ``value``."""
    return (1 if value % 2 == 0 else -1, None)


def _ref_apply_picks(values, columns, touched, picks, arc_id):
    new_cols = list(columns)
    for i, (c, t) in enumerate(zip(touched, picks)):
        col = list(new_cols[c])
        sign, _ = col[t]
        assert col[t] == _ref_fresh(values[c])
        col[t] = (0, arc_id) if i < 2 else (-sign, None)
        new_cols[c] = tuple(col)
    return tuple(new_cols)


def _ref_all_final_diagrams(ms, lam):
    """Every final diagram over all segment orders (within weakly decreasing
    length), endpoint choices and flip choices, built pick by pick."""
    base = initial_diagram(lam)
    segs = orbits._segments_by_length(ms, tuple(lam))
    groups = [list(g) for _, g in itertools.groupby(segs, key=lambda ab: ab[1] - ab[0])]
    fresh = [_ref_fresh(v) for v in base.values]
    finals = set()
    for perms in itertools.product(*(set(itertools.permutations(g)) for g in groups)):
        states = {base.columns}
        for arc_id, (x, y) in enumerate(itertools.chain(*perms), start=1):
            touched = _touched_columns(base.values, x, y)
            states = {
                _ref_apply_picks(base.values, columns, touched, picks, arc_id)
                for columns in states
                for picks in itertools.product(
                    *([t for t, cell in enumerate(columns[c]) if cell == fresh[c]] for c in touched)
                )
            }
        finals.update(ColumnDiagram(base.values, columns) for columns in states)
    return finals


def _ref_verify_psi_wellposed(lam):
    report = orbits.WellPosedReport(lam=tuple(lam))
    for ms in enumerate_multisegments(lam):
        diagram = build_diagram(ms, lam)
        target = _ref_orbit_class(flatten_diagram(diagram), diagram.blocks())
        ok, outputs = True, 0
        for d in _ref_all_final_diagrams(ms, lam):
            for orders in itertools.product(
                *(itertools.permutations(range(len(col))) for col in d.columns)
            ):
                outputs += 1
                ok &= flatten_diagram(_reordered(d, orders)) in target
        report.entries.append({"tau": segments_str(ms), "outputs": outputs, "ok": ok})
    return report


ORACLE_N6 = [(5, 4, 3, 2, 1, 0), (3, 3, 2, 2, 1, 1), (2, 2, 1, 1, 0, 0), (3, 2, 2, 1, 1, 0)]
# columns of length >= 3, where the sweep's keys merge the most flattenings
ORACLE_N7 = [(1, 1, 1, 1, 0, 0, 0), (2, 2, 1, 1, 1, 0, 0)]


def test_code_routes_match_reference_routes():
    lams = [lam for n in range(1, 6) for lam in lambda_window(n, n)] + ORACLE_N6 + ORACLE_N7
    for lam in lams:
        for ms in enumerate_multisegments(lam):
            diagram = build_diagram(ms, lam)
            sigma, bs = flatten_diagram(diagram), diagram.blocks()
            cls, ref = orbit_class(sigma, bs), _ref_orbit_class(sigma, bs)
            assert cls.size == len(ref), (lam, ms)
            assert cls.canonical == min(ref, key=_encode), (lam, ms)
        got, want = verify_psi_wellposed(lam).to_json(), _ref_verify_psi_wellposed(lam).to_json()
        assert got == want, lam


def _sorted_keys(diagrams):
    return [tuple(tuple(sorted(col)) for col in d.columns) for d in diagrams]


def test_walked_diagrams_reach_every_pick_by_pick_key():
    # every final diagram of every choice of cells is a per-column reordering
    # of exactly one walked diagram
    for lam in [lam for n in range(1, 7) for lam in lambda_window(n, n)] + ORACLE_N7:
        for ms in enumerate_multisegments(lam):
            walked = _sorted_keys(orbits._all_final_diagrams(ms, lam))
            assert len(set(walked)) == len(walked), (lam, segments_str(ms))
            assert set(walked) == set(_sorted_keys(_ref_all_final_diagrams(ms, lam))), (
                lam,
                segments_str(ms),
            )


# -- doctored final diagrams: the code loop must still see bad flattenings -----


def _doctor_first_diagram(monkeypatch, tau, edit):
    """Replace one final diagram of ``tau`` by ``edit`` of it."""
    real = orbits._all_final_diagrams

    def doctored(ms, lam):
        finals = real(ms, lam)
        if segments_str(ms) != tau:
            return finals
        first = min(finals, key=lambda d: d.columns)
        return (finals - {first}) | {edit(first)}

    monkeypatch.setattr(orbits, "_all_final_diagrams", doctored)


def _edit_cell(diagram, pick, cell):
    """``diagram`` with the first cell satisfying ``pick`` replaced by
    ``cell(old)``."""
    columns = [list(col) for col in diagram.columns]
    c, t = next((c, t) for c, col in enumerate(columns) for t, x in enumerate(col) if pick(x))
    columns[c][t] = cell(columns[c][t])
    return ColumnDiagram(diagram.values, tuple(map(tuple, columns)))


DOCTOR_LAMBDA, DOCTOR_TAU = (2, 1, 1, 0), "{1,2};{1};{0}"


def test_wellposed_checks_every_ordering_of_a_column(monkeypatch):
    # every ordering of the columns keeps the walked diagram's key and
    # flattens into its closure class, so one key per walked diagram covers
    # them all; a final diagram whose cross arc moved to another column has
    # another key, and fails its entry with the same flattening count
    ms = parse_segments(DOCTOR_TAU)
    real_finals = orbits._all_final_diagrams
    (walked,) = real_finals(ms, DOCTOR_LAMBDA)
    target = psi_g(ms, DOCTOR_LAMBDA)
    closure = _ref_orbit_class(flatten_diagram(walked), walked.blocks())
    for orders in itertools.product(*(itertools.permutations(range(len(c))) for c in walked.columns)):
        reordered = _reordered(walked, orders)
        assert orbits._cell_key(reordered.columns) == target.key
        assert flatten_diagram(reordered) in closure
    # the arc end in the column of 1 trades places with the '+' of the column of 0
    columns = [list(col) for col in walked.columns]
    assert columns[1][0][1] == 1 and columns[2] == [(1, None)]
    columns[1][0], columns[2][0] = columns[2][0], columns[1][0]
    moved = ColumnDiagram(walked.values, tuple(map(tuple, columns)))
    assert orbits._cell_key(moved.columns) != target.key

    def one_final(m, lam):
        return {moved} if segments_str(m) == DOCTOR_TAU else real_finals(m, lam)

    honest = verify_psi_wellposed(DOCTOR_LAMBDA).to_json()
    assert honest["ok"]
    monkeypatch.setattr(orbits, "_all_final_diagrams", one_final)
    entries = verify_psi_wellposed(DOCTOR_LAMBDA).to_json()["entries"]
    expected = [
        dict(e, ok=False) if e["tau"] == DOCTOR_TAU else e for e in honest["entries"]
    ]
    assert entries == expected
    # the walked diagram stands for the 2 orderings of its column of 1, each
    # flattened in 2! ways
    assert {"tau": DOCTOR_TAU, "outputs": 4, "ok": False} in entries


def test_flipped_fixed_point_sign_fails_the_entry(monkeypatch):
    honest = verify_psi_wellposed(DOCTOR_LAMBDA).to_json()
    flip = lambda d: _edit_cell(d, lambda x: x[1] is None, lambda x: (-x[0], None))
    _doctor_first_diagram(monkeypatch, DOCTOR_TAU, flip)
    entries = verify_psi_wellposed(DOCTOR_LAMBDA).to_json()["entries"]
    expected = [
        dict(e, ok=False) if e["tau"] == DOCTOR_TAU else e for e in honest["entries"]
    ]
    assert entries == expected
    assert DOCTOR_TAU in [e["tau"] for e in entries]


@pytest.mark.parametrize(
    "edit, match",
    [
        # an arc cell moved to a new arc id: two arcs with one endpoint each
        (lambda d: _edit_cell(d, lambda x: x[1], lambda x: (0, 99)), "fixed points"),
        # a fixed point joined to arc 1: three endpoints
        (
            lambda d: _edit_cell(d, lambda x: x[1] is None, lambda x: (0, 1)),
            "more than two endpoints",
        ),
    ],
    ids=["one-endpoint", "three-endpoints"],
)
def test_malformed_final_diagram_raises(monkeypatch, edit, match):
    _doctor_first_diagram(monkeypatch, DOCTOR_TAU, edit)
    with pytest.raises(ValueError, match=match):
        verify_psi_wellposed(DOCTOR_LAMBDA)

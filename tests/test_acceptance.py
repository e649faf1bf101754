"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact
arithmetic, so every tolerance is zero.  The weight sweeps realize "every
parameter with n <= N" as every weakly decreasing integer vector with
entries in {0..n-1} (all shapes are invariant under shifting the window);
consecutive-entry weights stand in for the half-integral centered ones.

Criterion 5 is asserted exactly as stated and is expected to fail: the
level-n locus at fixed weight contains classes whose image has a different
support (see the off-support discussion in levelmap).  The companion test
verifies the support-matching form of the statement, which is the one the
construction actually supports; nothing is hidden.
"""

import json
import math
import subprocess
import sys

import pytest

from glhecke.levelmap import verify_bijection_level_n
from glhecke.multisegments import enumerate_multisegments, parse_segments
from glhecke.orbits import (
    build_diagram,
    flatten_diagram,
    initial_diagram,
    make_involution,
    orbit_class,
    psi_g,
    render_diagram,
    render_involution,
)
from glhecke.sweeps import (
    lambda_window,
    sweep_dimensions,
    sweep_eigenvalues,
    sweep_psi,
    sweep_relations,
)

DATA = __file__.rsplit("/", 1)[0] + "/data"

WORKED_LAMBDA = (4, 4, 3, 3, 3, 3, 2, 2, 2, 1, 1, 0)
WORKED_TAU = "{0,1,2,3,4};{1,2,3};{2};{3};{3};{4}"


def _rho(n: int) -> tuple[int, ...]:
    """n distinct consecutive integers (n-1, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def _report(number: int, ok: bool, detail: str = ""):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


@pytest.fixture(scope="module")
def relations_report():
    return sweep_relations(5)


def test_criterion_1_dimension_formula_vs_oracle():
    report = sweep_dimensions(6, 6)
    _report(1, report["ok"], f"{report['checked']} parameter/k pairs, exact")
    assert report["ok"], report["failures"][:5]


def test_criterion_2_relations(relations_report):
    ok = relations_report["relations_ok"]
    _report(2, ok, f"{relations_report['checked']} modules over the 5-window, k <= 5")
    assert ok, relations_report["failures"][:5]


def test_criterion_3_central_characters(relations_report):
    ok = relations_report["center_ok"]
    _report(3, ok, "every elementary symmetric polynomial scalar, exact")
    assert ok, relations_report["failures"][:5]


def test_criterion_4_eigenvalue_identity():
    report = sweep_eigenvalues(6, 6)
    _report(4, report["ok"], f"{report['checked']} level-k parameters, exact")
    assert report["ok"], report["failures"][:5]


@pytest.fixture(scope="module")
def bijection_reports():
    return {lam: verify_bijection_level_n(lam) for n in range(1, 7) for lam in lambda_window(n, n)}


@pytest.fixture(scope="module")
def rho_reports():
    return {n: verify_bijection_level_n(_rho(n)) for n in range(1, 11)}


def test_criterion_5_bijection_as_stated(bijection_reports, rho_reports):
    bad = [lam for lam, report in bijection_reports.items() if not report.bijection]
    checked = len(bijection_reports)
    counts_ok = True
    for n in range(1, 11):
        lam = _rho(n)
        hecke = len(enumerate_multisegments(lam))
        real = len(rho_reports[n].pairs)  # the level-n classes at lam
        if not (hecke == 2 ** (n - 1) == real):
            counts_ok = False
    ok = not bad and counts_ok
    _report(
        5,
        ok,
        f"literal statement; {checked} weights, first failures: {bad[:3]}; "
        "see the support-matching companion test and the decisions ledger",
    )
    assert ok, (
        "level-n classes whose image leaves the weight's block break the "
        f"literal bijection at {len(bad)} weights, e.g. {bad[:3]}"
    )


def test_criterion_5_companion_support_matching_bijection(bijection_reports, rho_reports):
    ok = True
    for lam, report in bijection_reports.items():
        if not report.bijection_on_support_matching:
            ok = False
        for _, image in report.off_support:
            if tuple(int(c.re) for c in image.support()) == lam:
                ok = False  # off-support list must be exactly the strays
    for n in range(1, 11):
        lam = _rho(n)
        report = rho_reports[n]
        if len(report.pairs) - len(report.off_support) != 2 ** (n - 1):
            ok = False
        if len(enumerate_multisegments(lam)) != 2 ** (n - 1):
            ok = False
    _report(5, ok, "support-matching form, incl. 2^(n-1) counts at rho_n, n <= 10")
    assert ok


def test_criterion_5_off_support_images_hit_at_own_support(bijection_reports):
    # the decisions ledger's shadow property: each off-support pair (p, ms)
    # at lam has ms among the support-matching images at ms's own support
    def support_matching_images(report):
        off = set(report.off_support)
        return {ms for p, ms in report.pairs if (p, ms) not in off}

    matched = {lam: support_matching_images(r) for lam, r in bijection_reports.items()}
    strays = [ms for report in bijection_reports.values() for _, ms in report.off_support]
    missed = [ms for ms in strays if ms not in matched[tuple(int(c.re) for c in ms.support())]]
    _report(5, not missed, f"{len(strays)} off-support images hit at their own support")
    assert strays and not missed, missed[:3]


def test_criterion_6_worked_example_golden():
    tau = parse_segments(WORKED_TAU)
    diagram = build_diagram(tau, WORKED_LAMBDA)
    first = make_involution(
        12, [(1, 11), (2, 10)], {0: "+", 3: "-", 4: "+", 5: "-", 6: "-", 7: "-", 8: "+", 9: "+"}
    )
    second = make_involution(
        12, [(0, 11), (5, 9)], {1: "+", 2: "+", 3: "-", 4: "-", 6: "-", 7: "-", 8: "+", 10: "+"}
    )
    emitted = {
        "worked_example_columns_initial.txt": render_diagram(initial_diagram(WORKED_LAMBDA)) + "\n",
        "worked_example_columns_final.txt": render_diagram(diagram) + "\n",
        "worked_example_flattenings.txt": (
            "default:  " + render_involution(flatten_diagram(diagram)) + "\n"
            "display1: " + render_involution(first) + "\n"
            "display2: " + render_involution(second) + "\n"
        ),
    }
    golden_ok = True
    for name, text in emitted.items():
        with open(f"{DATA}/{name}") as fh:
            if fh.read() != text:
                golden_ok = False
    cls = psi_g(tau, WORKED_LAMBDA)
    equiv_ok = (
        first in cls
        and second in cls
        and orbit_class(first, cls.blocks) == orbit_class(second, cls.blocks)
    )
    ok = golden_ok and equiv_ok
    _report(6, ok, "12-point worked example, byte-exact diagrams, flattenings equivalent")
    assert golden_ok
    assert equiv_ok


def test_criterion_7_psi_wellposed_and_injective():
    report = sweep_psi(6)
    _report(7, report["ok"], f"{report['checked']} weights, exhaustive choice sweep")
    assert report["ok"], report["failures"][:5]


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "glhecke", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_named_examples_end_to_end():
    ok = True

    # spherical: all-singleton parameter maps to the all-singleton multisegment
    out = json.loads(_cli("gamma", "--factors", "gl1(triv,2);gl1(triv,1);gl1(triv,0)", "--k", "3"))
    ok &= out["hecke"]["segments"] == [
        {"start": "2", "len": 1},
        {"start": "1", "len": 1},
        {"start": "0", "len": 1},
    ]
    ok &= out["central_character"] == ["2", "1", "0"]
    out = json.loads(_cli("dim", "--factors", "gl1(triv,2);gl1(triv,1);gl1(triv,0)", "--k", "3"))
    ok &= out["dim"] == math.factorial(3)

    # two length-2 blocks (m = d = 2): dimension 6 through every route
    speh = "gl2(2,1/2);gl2(2,-1/2)"
    ok &= json.loads(_cli("dim", "--factors", speh, "--k", "4"))["dim"] == 6
    ok &= json.loads(_cli("oracle", "--factors", speh, "--k", "4"))["multiplicity"] == 6
    out = json.loads(_cli("module", "--segments", "{0,1};{-1,0}"))
    ok &= out["dim"] == 6

    # Steinberg: length-n block at 0 with interior sign characters
    stein = "gl1(sgn,1/2);gl2(4,0);gl1(sgn,-1/2)"
    out = json.loads(_cli("gamma", "--factors", stein, "--k", "4"))
    ok &= out["hecke"] == {"segments": [{"start": "-3/2", "len": 4}]}
    out = json.loads(_cli("module", "--steinberg", "4", "--quotient"))
    ok &= out["dim"] == 1 and out["quotient_dim"] == 1

    _report(8, ok, "spherical, two-block, and Steinberg examples via the CLI")
    assert ok

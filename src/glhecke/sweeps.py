"""Batched verification sweeps over windows of integral weights.

Desk-scale exhaustive checks: each sweep walks every weakly decreasing
integer vector with entries in a fixed window (patterns are invariant under
shifting the window, so {0..w-1} loses nothing), runs one of the module-level
verifiers on everything it finds, and returns a plain-dict report with a
list of failures.  All arithmetic is exact, so a failure is a genuine
counterexample or a bug, never noise.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from . import branching, heckemod, levelmap, multisegments, orbits, realparams

__all__ = [
    "lambda_window",
    "consecutive_lambda",
    "sweep_dimensions",
    "sweep_relations",
    "sweep_bijection",
    "sweep_eigenvalues",
    "sweep_psi",
    "SUITES",
    "run_suite",
]


def lambda_window(n: int, width: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing n-vectors with entries in {0, ..., width-1}."""
    for combo in itertools.combinations_with_replacement(range(width), n):
        yield tuple(sorted(combo, reverse=True))


def consecutive_lambda(n: int) -> tuple[int, ...]:
    """n distinct consecutive integers (n-1, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


def sweep_dimensions(max_n: int, max_k: int) -> dict:
    """Dimension formula against the branching oracle, plus the vanishing
    above level k, for every parameter in the window sweeps."""
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        for lam in lambda_window(n, n):
            for param in realparams.enumerate_real_params(lam, 0):
                lev = param.level
                for k in range(0, max_k + 1):
                    if lev < k:
                        continue
                    checked += 1
                    oracle = branching.hom_multiplicity(param, k)
                    formula = levelmap.dimension_std(param, k)
                    expected_zero = lev > k
                    if formula != oracle or (expected_zero and oracle != 0):
                        failures.append(
                            {
                                "param": realparams.factors_str(param),
                                "k": k,
                                "formula": formula,
                                "oracle": oracle,
                            }
                        )
    return {"suite": "dims", "checked": checked, "failures": failures, "ok": not failures}


def sweep_relations(max_k: int, window: int = 5) -> dict:
    """Build every induced module over supports from a value window and check
    the defining relations and the central character action exactly.

    Failures are tagged ``relations`` or ``center``/``center-multiset`` so the
    two halves can be judged separately from a single sweep.
    """
    failures = []
    checked = 0
    for k in range(1, max_k + 1):
        for lam in lambda_window(k, window):
            for ms in multisegments.enumerate_multisegments(lam):
                checked += 1
                module = heckemod.build_standard_module(ms)
                if not heckemod.verify_relations(module):
                    failures.append({"tau": multisegments.segments_str(ms), "check": "relations"})
                    continue
                try:
                    chi = heckemod.central_character_of_module(module)
                except ValueError as exc:
                    failures.append(
                        {"tau": multisegments.segments_str(ms), "check": "center", "error": str(exc)}
                    )
                    continue
                if tuple(chi) != tuple(ms.support()):
                    failures.append(
                        {"tau": multisegments.segments_str(ms), "check": "center-multiset"}
                    )
    relations_ok = not any(f["check"] == "relations" for f in failures)
    center_ok = not any(f["check"].startswith("center") for f in failures)
    return {
        "suite": "relations",
        "checked": checked,
        "failures": failures,
        "relations_ok": relations_ok,
        "center_ok": center_ok,
        "ok": not failures,
    }


def sweep_bijection(max_n: int, lam: "Sequence[int] | None" = None) -> dict:
    """Level-n classes against multisegment classes, via the level map."""
    failures = []
    checked = 0
    if lam is not None:
        lams = [tuple(lam)]
    else:
        lams = [l for n in range(1, max_n + 1) for l in lambda_window(n, n)]
    for lam_ in lams:
        checked += 1
        report = levelmap.verify_bijection_level_n(lam_)
        if not report.bijection:
            failures.append(report.to_json())
    return {"suite": "bijection", "checked": checked, "failures": failures, "ok": not failures}


def sweep_eigenvalues(max_n: int, max_k: int) -> dict:
    """Closed-form weight coordinates against the central character of the
    image, for every level-k parameter in the window sweeps."""
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        for lam in lambda_window(n, n):
            for param in realparams.enumerate_real_params(lam, 0):
                k = param.level
                if k == 0 or k > max_k:
                    continue
                checked += 1
                if not levelmap.eigenvalue_identity(param, k):
                    failures.append({"param": realparams.factors_str(param), "k": k})
    return {"suite": "eigenvalues", "checked": checked, "failures": failures, "ok": not failures}


def sweep_psi(max_n: int) -> dict:
    """Choice-independence and injectivity of the orbit map."""
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        for lam in lambda_window(n, n):
            checked += 1
            wp = orbits.verify_psi_wellposed(lam)
            if not wp.ok:
                failures.append({"lambda": list(lam), "check": "wellposed", "report": wp.to_json()})
            inj = orbits.verify_injectivity(lam)
            if not inj.ok:
                failures.append({"lambda": list(lam), "check": "injective", "report": inj.to_json()})
    return {"suite": "psi", "checked": checked, "failures": failures, "ok": not failures}


SUITES = ("dims", "relations", "bijection", "psi", "eigenvalues")


def run_suite(
    suite: str, max_n: int, max_k: int, lam: "Sequence[int] | None" = None
) -> dict:
    if suite == "dims":
        return sweep_dimensions(max_n, max_k)
    if suite == "relations":
        return sweep_relations(max_k)
    if suite == "bijection":
        return sweep_bijection(max_n, lam)
    if suite == "psi":
        return sweep_psi(max_n)
    if suite == "eigenvalues":
        return sweep_eigenvalues(max_n, max_k)
    raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")

"""Batched verification sweeps over windows of integral weights.

Desk-scale exhaustive checks: each sweep walks every weakly decreasing
integer vector with entries in a fixed window (patterns are invariant under
shifting the window, so {0..w-1} loses nothing), runs one of the module-level
verifiers on everything it finds, and returns a plain-dict report with a
list of failures.  All arithmetic is exact, so a failure is a genuine
counterexample or a bug, never noise.  :data:`SUITES` names each sweep with
the bounds it reads; ``run_suite`` and ``glhecke verify`` both read it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

from . import branching, heckemod, levelmap, multisegments, orbits, realparams

__all__ = [
    "lambda_window",
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


def _windows(max_n: int) -> Iterator[tuple[int, ...]]:
    """Every weight of the {0..n-1} windows, n <= max_n."""
    for n in range(1, max_n + 1):
        yield from lambda_window(n, n)


def _report(suite: str, outcomes: Iterable[list], verdicts: Sequence[str] = ()) -> dict:
    """The report of a sweep whose ``outcomes`` hold one list of failure
    records per object checked; each tag in ``verdicts`` adds a
    ``<tag>_ok`` verdict over the failures whose ``check`` starts with it."""
    checked, failures = 0, []
    for found in outcomes:
        checked += 1
        failures += found
    report = {"suite": suite, "checked": checked, "failures": failures, "ok": not failures}
    for tag in verdicts:
        report[f"{tag}_ok"] = not any(f["check"].startswith(tag) for f in failures)
    return report


def sweep_dimensions(max_n: int, max_k: int) -> dict:
    """Dimension formula against the branching oracle, plus the vanishing
    above level k, for every parameter in the window sweeps."""

    def check(param, k):
        oracle = branching.hom_multiplicity(param, k)
        formula = levelmap.dimension_std(param, k)
        if formula == oracle and (oracle == 0 or param.level == k):
            return []
        return [
            {"param": realparams.factors_str(param), "k": k, "formula": formula, "oracle": oracle}
        ]

    params = (p for lam in _windows(max_n) for p in realparams.enumerate_real_params(lam))
    return _report("dims", (check(p, k) for p in params for k in range(min(p.level, max_k) + 1)))


def sweep_relations(max_k: int) -> dict:
    """Build every induced module over supports from the {0..4} window and
    check the defining relations and the central character action exactly.

    Failures are tagged ``relations`` or ``center``/``center-multiset`` so the
    two halves can be judged separately from a single sweep.
    """

    def check(ms):
        tau = multisegments.segments_str(ms)
        module = heckemod.build_standard_module(ms)
        if not heckemod.verify_relations(module):
            return [{"tau": tau, "check": "relations"}]
        try:
            chi = heckemod.central_character_of_module(module)
        except ValueError as exc:
            return [{"tau": tau, "check": "center", "error": str(exc)}]
        if tuple(chi) != tuple(ms.support()):
            return [{"tau": tau, "check": "center-multiset"}]
        return []

    modules = (
        ms
        for k in range(1, max_k + 1)
        for lam in lambda_window(k, 5)
        for ms in multisegments.enumerate_multisegments(lam)
    )
    return _report("relations", map(check, modules), ("relations", "center"))


def sweep_bijection(max_n: int, lam: "Sequence[int] | None" = None) -> dict:
    """Level-n classes against multisegment classes, via the level map."""

    def check(weight):
        report = levelmap.verify_bijection_level_n(weight)
        return [] if report.bijection else [report.to_json()]

    lams = _windows(max_n) if lam is None else [tuple(lam)]
    return _report("bijection", map(check, lams))


def sweep_eigenvalues(max_n: int, max_k: int) -> dict:
    """Closed-form weight coordinates against the central character of the
    image, for every level-k parameter in the window sweeps."""

    def check(param):
        if levelmap.eigenvalue_identity(param, param.level):
            return []
        return [{"param": realparams.factors_str(param), "k": param.level}]

    params = (p for lam in _windows(max_n) for p in realparams.enumerate_real_params(lam))
    return _report("eigenvalues", (check(p) for p in params if 0 < p.level <= max_k))


def sweep_psi(max_n: int) -> dict:
    """Choice-independence and injectivity of the orbit map."""

    def check(lam):
        reports = (
            ("wellposed", orbits.verify_psi_wellposed(lam)),
            ("injective", orbits.verify_injectivity(lam)),
        )
        return [
            {"lambda": list(lam), "check": name, "report": r.to_json()}
            for name, r in reports
            if not r.ok
        ]

    return _report("psi", map(check, _windows(max_n)))


# suite -> (sweep, the bound flags it reads in argument order, their text)
SUITES = {
    "dims": (sweep_dimensions, ("--max-n", "--max-k"), "--max-n and --max-k"),
    "relations": (sweep_relations, ("--max-k",), "--max-k"),
    "bijection": (sweep_bijection, ("--max-n", "--lambda"), "--max-n or --lambda"),
    "psi": (sweep_psi, ("--max-n",), "--max-n"),
    "eigenvalues": (sweep_eigenvalues, ("--max-n", "--max-k"), "--max-n and --max-k"),
}


def run_suite(
    suite: str, max_n: int, max_k: int, lam: "Sequence[int] | None" = None
) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    sweep, bounds, _ = SUITES[suite]
    values = {"--max-n": max_n, "--max-k": max_k, "--lambda": lam}
    return sweep(*(values[flag] for flag in bounds))

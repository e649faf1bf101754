"""The three benchmark workloads: input pools, seeded sampling and item code.

Each workload has a committed pool (``pools/<name>.json``): every item is an
input in compact string form plus the output recorded for it.  A seed turns
the pool into one *pass*, an ordered list of pool indices whose total work
does not depend on the seed.  An item is run by ``run(inp, call)``, which
reaches glhecke only through its public names and only through
``call(span, fn, *args)``; the traced mode passes a ``call`` that times each
span, the untraced mode one that just calls.  ``summarize`` turns the raw
results into the output compared with the pool and the exact work counts;
it runs outside the timed region.

Why these workloads: ``modules`` loads ``heckemod`` module construction,
relation checks and central characters across four arithmetic paths;
``quotients`` loads the ``heckemod`` intertwiner nullspace, which module
construction barely touches; ``weights`` loads ``realparams``,
``multisegments``, ``levelmap``, ``branching`` and ``orbits`` and never
``heckemod``.  Each optimisation the roadmap names is exercised by one of
them and bypassed by another.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from glhecke import branching, heckemod, levelmap, multisegments, orbits, realparams
from glhecke.scalars import scalar_str

if not heckemod.__file__.startswith(SRC + os.sep):
    raise ImportError(f"glhecke was imported from {heckemod.__file__}, not from {SRC}")

POOL_DIR = os.path.join(ROOT, "bench", "pools")

# Layers whose failures are counted; an exception is charged to the glhecke
# module the benchmark called, a mismatch to the module owning the field.
LAYERS = ("heckemod", "realparams", "multisegments", "levelmap", "branching", "orbits")

# Every span the benchmark records, one per public entry point it calls.
SPANS = (
    "heckemod.build",
    "heckemod.verify",
    "heckemod.center",
    "heckemod.quotient",
    "realparams",
    "multisegments",
    "levelmap.bijection",
    "levelmap.eigen",
    "levelmap.dim",
    "branching",
    "orbits.wellposed",
    "orbits.injectivity",
)

STRATA = ("small_int", "half_int", "large_int", "gaussian")

# Additive exact counts; ``heckemod.max_dim`` is a maximum and
# ``heckemod.compositions`` a set, both merged separately.
ADDITIVE_COUNTS = (
    "heckemod.modules",
    "heckemod.dim_sum",
    "heckemod.entries",
    "heckemod.quotient.unknowns",
    "heckemod.quotient.dim_sum",
    "realparams.calls",
    "realparams.classes",
    "realparams.level_n",
    "multisegments.classes",
    "levelmap.pairs",
    "levelmap.off_support",
    "branching.calls",
    "orbits.flattenings",
    "orbits.classes",
)


def untraced_call(span: str, fn: Callable, *args):
    return fn(*args)


def new_counts() -> dict:
    counts = {name: 0 for name in ADDITIVE_COUNTS}
    counts["heckemod.max_dim"] = 0
    counts["heckemod.compositions"] = set()
    return counts


def merge_counts(total: dict, part: dict) -> None:
    for name in ADDITIVE_COUNTS:
        total[name] += part[name]
    total["heckemod.max_dim"] = max(total["heckemod.max_dim"], part["heckemod.max_dim"])
    total["heckemod.compositions"] |= set(map(tuple, part["heckemod.compositions"]))


def derived_counts(counts: dict) -> dict:
    """The reported work counts of one pass, ratios included."""
    out = {name: counts[name] for name in ADDITIVE_COUNTS if name != "realparams.level_n"}
    out["heckemod.max_dim"] = counts["heckemod.max_dim"]
    compositions = len(counts["heckemod.compositions"])
    out["heckemod.modules_per_composition"] = (
        counts["heckemod.modules"] / compositions if compositions else 0.0
    )
    classes = counts["realparams.classes"]
    out["realparams.level_n_share"] = counts["realparams.level_n"] / classes if classes else 0.0
    return out


def _count_module(counts: dict, module) -> None:
    counts["heckemod.modules"] += 1
    counts["heckemod.dim_sum"] += module.dim
    counts["heckemod.entries"] += (2 * module.k - 1) * module.dim**2
    counts["heckemod.max_dim"] = max(counts["heckemod.max_dim"], module.dim)
    counts["heckemod.compositions"].add(module.blocks)


def _composition(text: str) -> tuple[int, ...]:
    return tuple(seg.count(",") + 1 for seg in text.split(";"))


# -- modules ------------------------------------------------------------------

# Items drawn from each (stratum, block composition) cell per pass.  Module
# cost is fixed by the cell, so equal draws keep a pass's work seed-independent.
MODULES_PER_CELL = 6


def modules_plan(pool: list[dict], rng: random.Random) -> list[int]:
    cells: dict[tuple, list[int]] = {}
    for i, item in enumerate(pool):
        cells.setdefault((item["stratum"], _composition(item["input"])), []).append(i)
    plan = []
    for key in sorted(cells):
        members = cells[key]
        plan.extend(rng.sample(members, min(MODULES_PER_CELL, len(members))))
    rng.shuffle(plan)
    return plan


def modules_run(ms, call):
    module = call("heckemod.build", heckemod.build_standard_module, ms)
    relations = call("heckemod.verify", heckemod.verify_relations, module)
    center = call("heckemod.center", heckemod.central_character_of_module, module)
    return module, relations, center


def modules_summarize(raw, counts: dict) -> dict:
    module, relations, center = raw
    _count_module(counts, module)
    return {
        "dim": module.dim,
        "relations": bool(relations),
        "center": [scalar_str(x) for x in center],
    }


# -- quotients ----------------------------------------------------------------


def quotients_plan(pool: list[dict], rng: random.Random) -> list[int]:
    plan = list(range(len(pool)))
    rng.shuffle(plan)
    return plan


def quotients_run(ms, call):
    module = call("heckemod.build", heckemod.build_standard_module, ms)
    quotient = call("heckemod.quotient", heckemod.irreducible_quotient, ms)
    return module, quotient


def quotients_summarize(raw, counts: dict) -> dict:
    module, quotient = raw
    _count_module(counts, module)
    counts["heckemod.quotient.unknowns"] += module.dim**2
    counts["heckemod.quotient.dim_sum"] += quotient.dim
    return {"std_dim": module.dim, "quotient_dim": quotient.dim}


# -- weights ------------------------------------------------------------------

# Weights drawn per pass from the n = 6 and n = 7 windows; every n <= 5
# weight is in every pass.
WEIGHTS_SAMPLED = {6: 60, 7: 120}


def _weights_cost_key(item: dict):
    # enumeration and level-map work grow with the parameter classes, the
    # orbit sweep with the flattenings; a least-squares fit of n = 7 item
    # times on the two weighs one class like 24 flattenings
    expect = item["expect"]
    return (24 * expect["real"] + expect["flattenings"], item["input"])


def weights_plan(pool: list[dict], rng: random.Random) -> list[int]:
    by_n: dict[int, list[int]] = {}
    for i, item in enumerate(pool):
        by_n.setdefault(item["input"].count(",") + 1, []).append(i)
    plan = []
    for n in sorted(by_n):
        members = by_n[n]
        draws = WEIGHTS_SAMPLED.get(n)
        if draws is None:
            plan.extend(members)
            continue
        # one draw from each of ``draws`` equal bins of the window sorted by
        # recorded work, so every pass gets the same spread of costs
        members = sorted(members, key=lambda i: _weights_cost_key(pool[i]))
        for b in range(draws):
            lo, hi = b * len(members) // draws, (b + 1) * len(members) // draws
            plan.append(members[rng.randrange(lo, hi)])
    rng.shuffle(plan)
    return plan


def weights_run(lam, call):
    n = len(lam)
    params = call("realparams", realparams.enumerate_real_params, lam)
    classes = call("multisegments", multisegments.enumerate_multisegments, lam)
    report = call("levelmap.bijection", levelmap.verify_bijection_level_n, lam)
    graded = [p for p in params if 1 <= p.level <= n]
    eigen = [call("levelmap.eigen", levelmap.eigenvalue_identity, p, p.level) for p in graded]
    dims = [call("levelmap.dim", levelmap.dimension_std, p, p.level) for p in graded]
    homs = [call("branching", branching.hom_multiplicity, p, p.level) for p in graded]
    wellposed = call("orbits.wellposed", orbits.verify_psi_wellposed, lam)
    injective = call("orbits.injectivity", orbits.verify_injectivity, lam)
    return n, params, classes, report, eigen, dims, homs, wellposed, injective


def _digest(pairs) -> str:
    text = "\n".join(
        f"{realparams.factors_str(p)}->{multisegments.segments_str(ms)}" for p, ms in pairs
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def weights_summarize(raw, counts: dict) -> dict:
    n, params, classes, report, eigen, dims, homs, wellposed, injective = raw
    level_n = sum(1 for p in params if p.level == n)
    flattenings = sum(entry["outputs"] for entry in wellposed.entries)
    counts["realparams.calls"] += 1
    counts["realparams.classes"] += len(params)
    counts["realparams.level_n"] += level_n
    counts["multisegments.classes"] += len(classes)
    counts["levelmap.pairs"] += len(report.pairs)
    counts["levelmap.off_support"] += len(report.off_support)
    counts["branching.calls"] += len(homs)
    counts["orbits.flattenings"] += flattenings
    counts["orbits.classes"] += injective.classes
    return {
        "real": len(params),
        "level_n": level_n,
        "hecke": len(classes),
        "n_pairs": len(report.pairs),
        "pairs": _digest(report.pairs),
        "n_off_support": len(report.off_support),
        "off_support": _digest(report.off_support),
        "bijection": report.bijection,
        "bijection_on_support_matching": report.bijection_on_support_matching,
        "eigen": all(eigen),
        "dim_formula": sum(dims),
        "dim_oracle": sum(homs),
        "dim": dims == homs,
        "psi_wellposed": wellposed.ok,
        "flattenings": flattenings,
        "psi_injective": injective.ok,
        "orbit_classes": injective.classes,
    }


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    plan: Callable[[list[dict], random.Random], list[int]]
    parse: Callable[[str], object]
    run: Callable
    summarize: Callable[[object, dict], dict]
    # output field -> layer charged when that field differs from the pool
    field_layer: dict


def _parse_lambda(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


WORKLOADS = {
    "modules": Workload(
        modules_plan,
        multisegments.parse_segments,
        modules_run,
        modules_summarize,
        {"dim": "heckemod", "relations": "heckemod", "center": "heckemod"},
    ),
    "quotients": Workload(
        quotients_plan,
        multisegments.parse_segments,
        quotients_run,
        quotients_summarize,
        {"std_dim": "heckemod", "quotient_dim": "heckemod"},
    ),
    "weights": Workload(
        weights_plan,
        _parse_lambda,
        weights_run,
        weights_summarize,
        {
            "real": "realparams",
            "level_n": "realparams",
            "hecke": "multisegments",
            "n_pairs": "levelmap",
            "pairs": "levelmap",
            "n_off_support": "levelmap",
            "off_support": "levelmap",
            "bijection": "levelmap",
            "bijection_on_support_matching": "levelmap",
            "eigen": "levelmap",
            "dim_formula": "levelmap",
            "dim_oracle": "branching",
            "dim": "levelmap",
            "psi_wellposed": "orbits",
            "flattenings": "orbits",
            "psi_injective": "orbits",
            "orbit_classes": "orbits",
        },
    ),
}


def pool_path(name: str) -> str:
    return os.path.join(POOL_DIR, f"{name}.json")


def load_pool(name: str) -> list[dict]:
    with open(pool_path(name)) as fh:
        return json.load(fh)["items"]


def plan_pass(name: str, pool: list[dict], seed: int) -> list[int]:
    """Pool indices of one pass, in order; a function of the seed alone."""
    return WORKLOADS[name].plan(pool, random.Random(seed))


def mismatched_layers(name: str, expect: dict, got: dict) -> set[str]:
    field_layer = WORKLOADS[name].field_layer
    return {field_layer[key] for key in field_layer if expect.get(key) != got.get(key)}

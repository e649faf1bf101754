#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one JSON record.

    python3 scripts/bench_pairs.py --parent ../parent-checkout \\
        --pairs modules=10 quotients=5 weights=5 --tier1-pairs 3 --out BENCH.json

``--parent`` and ``--change`` (default: this checkout) are two source trees.
For every base seed S and workload, pair p runs ``bench/run.py --workload
W --seed S+p --seconds T`` once in each tree, the parent first in even pairs
and the change first in odd ones, and keeps the end-to-end metrics of both
runs.  After the pairs, one ``--trace 1`` run in each tree at seed S keeps
the workload's per-layer busy times and exact work counts under
``traced``, so the record shows which layer a change comes from.
``--seed`` takes one or more base seeds: with one, the record holds its
``workloads``; with several (say a claim's seed and an unused one), it
holds one ``{"workloads": ...}`` block per base seed under ``seeds``.
``--tier1-pairs`` runs ``tests/test_acceptance.py`` in each tree the same way
and times every acceptance criterion as the set-up plus call time pytest
reports for its test (a module-scoped fixture counts towards the first test
that uses it), plus their total.  A failing test is timed like a passing
one; the known criterion-5 failure does not stop the run.  A failing
``bench/run.py`` stops the script with an error that names the tree, the
workload and the seed and shows the end of its stderr.
The record names the machine and summarises each metric by the median and
quartiles of each side and the number of pairs the change won.  Which way
is better, and the bound of each end-to-end metric, come from this
checkout's ``BENCHMARK.json`` (read only); a workload metric listed there
gets ``within_bound``: whether the change's median is no worse than the
parent's by more than the bound, a fraction of the parent's median.
Acceptance times are lower-is-better and get no verdict.  ``src_lines``
counts the lines of ``src/**/*.py`` in each tree.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
ACCEPTANCE = "tests/test_acceptance.py"


def _bench(tree: str, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise RuntimeError(
            f"bench/run.py exited {proc.returncode} in {tree}"
            f" (workload {workload}, seed {seed}); last lines of stderr:\n{tail}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _acceptance_s(tree: str) -> dict:
    """Set-up plus call seconds of each acceptance test, run in one session."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", ACCEPTANCE]
    cmd += ["--durations=0", "--durations-min=0"]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    times: dict = {}
    pattern = rf"([\d.]+)s (setup|call)\s+{re.escape(ACCEPTANCE)}::(\w+)"
    for seconds, _, test in re.findall(pattern, proc.stdout):
        times[test] = times.get(test, 0.0) + float(seconds)
    if proc.returncode not in (0, 1) or not times:
        raise RuntimeError(f"acceptance run failed in {tree}:\n{proc.stdout}\n{proc.stderr}")
    times["total_s"] = sum(times.values())
    return times


def _src_lines(tree: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _end_to_end() -> dict:
    """Name -> (higher is better, bound) of each end-to-end metric."""
    with open(BENCHMARK) as fh:
        metrics = json.load(fh)["end_to_end"]
    return {m["name"]: (m["better"] == "higher", m["bound"]) for m in metrics}


def _summary(pairs: list[dict], end_to_end: "dict | None" = None) -> dict:
    out = {}
    for name in pairs[0]["parent"]:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        higher, bound = (end_to_end or {}).get(name, (False, None))
        sign = 1 if higher else -1
        entry = {
            "parent": _quartiles(parent),
            "change": _quartiles(change),
            "change_better_pairs": sum(sign * (c - a) > 0 for a, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        if bound is not None:
            a, c = entry["parent"]["median"], entry["change"]["median"]
            entry["within_bound"] = sign * (c - a) >= -bound * abs(a)
        out[name] = entry
    return out


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _alternate(p: int, run) -> dict:
    sides = ("parent", "change") if p % 2 == 0 else ("change", "parent")
    return {"first": sides[0], **{side: run(side) for side in sides}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=ROOT)
    parser.add_argument("--pairs", nargs="+", default=["modules=10", "quotients=5", "weights=5"])
    parser.add_argument("--seed", type=int, nargs="+", default=[101])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--tier1-pairs", type=int, default=3)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    command = (
        f"python3 scripts/bench_pairs.py --parent <parent checkout> --pairs {' '.join(args.pairs)}"
        f" --seed {' '.join(map(str, args.seed))} --seconds {args.seconds}"
        f" --tier1-pairs {args.tier1_pairs}"
    )
    record = {"command": command, "machine": _machine(), "seconds": args.seconds}
    record["src_lines"] = {side: _src_lines(tree) for side, tree in trees.items()}
    end_to_end = _end_to_end()
    blocks = {}
    for base in args.seed:
        workloads = blocks[str(base)] = {}
        for spec in args.pairs:
            workload, count = spec.split("=")
            pairs = []
            for p in range(int(count)):
                seed = base + p
                pair = _alternate(p, lambda side: _bench(trees[side], workload, seed, args.seconds))
                pairs.append({"seed": seed, **pair})
                print(f"{workload} pair {p} (seed {seed}): {pair}", file=sys.stderr)
            traced = {"seed": base}
            for side in ("parent", "change"):
                traced[side] = _bench(trees[side], workload, base, args.seconds, trace=1)
            print(f"{workload} traced (seed {base}): {traced}", file=sys.stderr)
            workloads[workload] = {
                "pairs": pairs,
                "summary": _summary(pairs, end_to_end),
                "traced": traced,
            }
    if len(blocks) == 1:
        record["workloads"] = blocks[str(args.seed[0])]
    else:
        record["seeds"] = {base: {"workloads": block} for base, block in blocks.items()}

    acceptance = []
    for p in range(args.tier1_pairs):
        pair = _alternate(p, lambda side: _acceptance_s(trees[side]))
        acceptance.append(pair)
        print(f"acceptance pair {p}: {pair}", file=sys.stderr)
    if acceptance:
        record["tier1_acceptance"] = {"pairs": acceptance, "summary": _summary(acceptance)}

    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""One measured process: set up, run one slice of a pass, report as JSON.

    python3 bench/worker.py --workload modules --seed 1 --part 0 --parts 5 --trace 0

run.py starts a fresh interpreter for every slice and does no warm-up, so
every slice pays glhecke's cold per-process caches, as a separate
``glhecke`` invocation would.  Set-up (imports, loading the pool and its
recorded outputs, seeded sampling, parsing the inputs) ends at
``first_item_at``, a ``time.monotonic`` reading the parent compares with
its own.  Between items the worker times a fixed calibration kernel, which
run.py uses to scale times to a reference host speed.  With ``--trace 1`` every public call is wrapped in a span kept in
memory and summed per span name when the slice ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction

# A calibration kernel runs whenever this much item time has passed since it
# last ran, and after the last item, outside every item's timing.
CAL_EVERY_S = 0.1


def calibration_kernel() -> int:
    """Fixed interpreter work of the kind glhecke does (rationals, tuples,
    dicts, sorting) that uses no glhecke code, so its time tracks the host's
    current speed and nothing else."""
    table: dict = {}
    for i in range(1000):
        x = Fraction(i % 97 + 1, i % 89 + 1) * Fraction(i % 13 + 1, 7)
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        table[key] = table.get(key, 0) + x.numerator % 11
    return sum(table.values())


def _failing_layer(exc: BaseException, package_dir: str) -> str:
    """The glhecke module the benchmark called when ``exc`` was raised."""
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        path = frame.f_code.co_filename
        if path.startswith(package_dir):
            return os.path.splitext(os.path.basename(path))[0]
    return "bench"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import numpy

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    pool = workloads.load_pool(args.workload)
    plan = workloads.plan_pass(args.workload, pool, args.seed)
    lo = args.part * len(plan) // args.parts
    hi = (args.part + 1) * len(plan) // args.parts
    items = [pool[j] for j in plan[lo:hi]]
    inputs = [wl.parse(item["input"]) for item in items]
    package_dir = os.path.dirname(workloads.heckemod.__file__) + os.sep

    spans: list[tuple[int, str, float, float]] = []
    current = 0
    clock = time.perf_counter
    if args.trace:

        def call(span, fn, *fn_args):
            start = clock()
            try:
                return fn(*fn_args)
            finally:
                spans.append((current, span, start, clock()))

    else:
        call = workloads.untraced_call

    counts = workloads.new_counts()
    item_s: list[float] = []
    cpu_s = 0.0
    failed = 0
    layer_failed = {layer: 0 for layer in workloads.LAYERS}
    failures: list[str] = []
    cal_s: list[float] = []
    since_cal = 0.0
    first_item_at = time.monotonic()
    for current, (item, inp) in enumerate(zip(items, inputs)):
        if since_cal >= CAL_EVERY_S:
            t0 = clock()
            calibration_kernel()
            cal_s.append(clock() - t0)
            since_cal = 0.0
        cpu0, t0 = time.process_time(), clock()
        try:
            raw = wl.run(inp, call)
            error = None
        except Exception as exc:  # an item that raises counts as failed
            error = exc
        item_s.append(clock() - t0)
        cpu_s += time.process_time() - cpu0
        since_cal += item_s[-1]
        if error is not None:
            layers = {_failing_layer(error, package_dir)}
            detail = f"{type(error).__name__}: {error}"
        else:
            got = wl.summarize(raw, counts)
            del raw  # free this item's matrices before the next item starts
            layers = workloads.mismatched_layers(args.workload, item["expect"], got)
            detail = f"got {got}, expected {item['expect']}"
        if layers:
            failed += 1
            for layer in layers:
                layer_failed[layer] = layer_failed.get(layer, 0) + 1
            if len(failures) < 5:
                failures.append(f"{item['input']}: {detail}")

    t0 = clock()
    calibration_kernel()
    cal_s.append(clock() - t0)

    busy = dict.fromkeys(workloads.SPANS, 0.0)
    busy_strata = dict.fromkeys(workloads.STRATA, 0.0)
    for index, span, start, end in spans:
        busy[span] += end - start
        if span.startswith("heckemod."):
            busy_strata[items[index]["stratum"]] += end - start

    counts["heckemod.compositions"] = sorted(counts["heckemod.compositions"])
    result = {
        "first_item_at": first_item_at,
        "item_s": item_s,
        "cpu_s": cpu_s,
        "cal_s": cal_s,
        "failed": failed,
        "layer_failed": layer_failed,
        "failures": failures,
        "counts": counts,
        "busy": busy,
        "busy_strata": busy_strata,
        "spans": len(spans),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()

"""glhecke benchmark: one measured run of one workload.

    python3 bench/run.py --workload modules --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; glhecke is imported from ``src/``.
Workloads (closed loop, one single-threaded process, one item at a time):
``modules``, ``quotients`` and ``weights``, described in workloads.py.

A run repeats whole passes (the seeded sample of the workload's pool) while
another pass still fits in ``--seconds``, and makes at least one.  Each pass
is split into ``PARTS`` slices, each run by worker.py in a fresh interpreter
with the BLAS/OpenMP thread counts pinned to 1.  With ``--trace 1`` every
untraced pass is followed by a traced pass of the same items, and the run
reports per-layer times, the exact work counts and the tracing overhead
instead of the end-to-end metrics.

End-to-end metrics, over the untraced passes:

* ``setup_s``: median over slices of the time from starting the interpreter
  to the first item (``import glhecke``, loading the pool and its recorded
  outputs, seeded sampling, parsing the inputs);
* ``items_per_s``: items over the summed item times;
* ``item_p50_ms``, ``item_p90_ms``: percentiles of the item times, over
  ``latency_samples`` items (at least 100 per pass);
* ``cpu_per_item_ms``: user plus system CPU time of the items per item (the
  workers start no processes of their own);
* ``peak_rss_mb``: the largest peak resident set of any worker;
* ``ok_frac``: items whose output matched, over items attempted, all passes.

All times are scaled per slice to a reference host speed (``CAL_REF_S``);
the unscaled sums are kept in the record as ``raw_*``.

Every item's output is checked against the output recorded in the pool.
The last line of stdout is the result; the line before it records the
machine, versions, commit, per-pass figures, ``failed_frac`` and the exact
work counts, in untraced runs too.
Exits 2 without a result when glhecke cannot be imported from ``src/``,
and 1 if a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

try:
    import workloads
except ImportError as exc:
    print(f"error: cannot import glhecke from this checkout's src/: {exc}", file=sys.stderr)
    sys.exit(2)

ROOT = workloads.ROOT
WORKER = os.path.join(ROOT, "bench", "worker.py")

PARTS = 10
# Mean time of worker.calibration_kernel on a quiet 2-vCPU Intel Xeon host
# under Python 3.11.  Every measured time of a slice is multiplied by this
# over the kernel's mean time in that slice, which removes the minutes-long
# swings in host speed seen on shared machines (both wall and CPU time move
# by up to a third between runs) while keeping the reported units.
CAL_REF_S = 0.0045
# Every run must end well inside three minutes; a worker still running at
# this many seconds after the start is killed and the run fails.
HARD_LIMIT_S = 170.0

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_slice(args, part: int, traced: bool, env: dict, started: float) -> dict:
    cmd = [
        sys.executable,
        WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--part", str(part),
        "--parts", str(PARTS),
        "--trace", "1" if traced else "0",
    ]
    timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - started))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for part {part} exceeded the {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker for part {part} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["first_item_at"] - spawned
    return result


def _run_pass(args, traced: bool, env: dict, started: float) -> dict:
    """Run the slices of one pass and pool them, times scaled per slice to
    the reference host speed (``raw_*`` keep the unscaled sums)."""
    slices = [_run_slice(args, part, traced, env, started) for part in range(PARTS)]
    counts = workloads.new_counts()
    item_s = []
    for s in slices:
        workloads.merge_counts(counts, s["counts"])
        s["scale"] = CAL_REF_S / statistics.fmean(s["cal_s"])
        item_s.extend(t * s["scale"] for t in s["item_s"])
    return {
        "traced": traced,
        "item_s": item_s,
        "items": len(item_s),
        "loop_s": sum(item_s),
        "raw_loop_s": sum(sum(s["item_s"]) for s in slices),
        "cpu_s": sum(s["cpu_s"] * s["scale"] for s in slices),
        "raw_cpu_s": sum(s["cpu_s"] for s in slices),
        "scale": [s["scale"] for s in slices],
        "failed": sum(s["failed"] for s in slices),
        "layer_failed": {
            layer: sum(s["layer_failed"].get(layer, 0) for s in slices)
            for layer in workloads.LAYERS
        },
        "failures": [f for s in slices for f in s["failures"]][:5],
        "counts": workloads.derived_counts(counts),
        "busy": {
            span: sum(s["busy"][span] * s["scale"] for s in slices) for span in workloads.SPANS
        },
        "busy_strata": {
            st: sum(s["busy_strata"][st] * s["scale"] for s in slices) for st in workloads.STRATA
        },
        "setup_s": [s["setup_s"] * s["scale"] for s in slices],
        "raw_setup_s": [s["setup_s"] for s in slices],
        "peak_rss_mb": max(s["maxrss_kb"] for s in slices) / 1024.0,
        "versions": {"python": slices[0]["python"], "numpy": slices[0]["numpy"]},
    }


def _environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(), "commit": commit}


def _end_to_end(untraced: list[dict], attempted: int, failed: int) -> dict:
    item_s = [t for p in untraced for t in p["item_s"]]
    items = len(item_s)
    loop_s = sum(p["loop_s"] for p in untraced)
    return {
        "setup_s": (statistics.median(s for p in untraced for s in p["setup_s"]), "s"),
        "items_per_s": (items / loop_s, "items/s"),
        "item_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(item_s, n=10)[8] * 1e3, "ms"),
        "cpu_per_item_ms": (sum(p["cpu_s"] for p in untraced) / items * 1e3, "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in untraced), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(untraced: list[dict], traced: list[dict], passes: list[dict]) -> dict:
    metrics = {}
    for span in workloads.SPANS:
        metrics[f"{span}.busy_s"] = (statistics.median(p["busy"][span] for p in traced), "s")
    for stratum in workloads.STRATA:
        metrics[f"heckemod.busy_s.{stratum}"] = (
            statistics.median(p["busy_strata"][stratum] for p in traced),
            "s",
        )
    for name, value in traced[0]["counts"].items():
        unit = "ratio" if name.endswith(("_share", "_per_composition")) else "count"
        metrics[name] = (value, unit)
    for layer in workloads.LAYERS:
        metrics[f"{layer}.failed"] = (sum(p["layer_failed"][layer] for p in passes), "count")
    overhead = statistics.median(p["loop_s"] for p in traced) / statistics.median(
        p["loop_s"] for p in untraced
    )
    metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = _worker_env()
    started = time.monotonic()
    cycle = (False, True) if args.trace else (False,)
    passes: list[dict] = []
    try:
        while True:
            cycle_start = time.monotonic()
            for traced in cycle:
                passes.append(_run_pass(args, traced, env, started))
            now = time.monotonic()
            if now + (now - cycle_start) > started + args.seconds:
                break
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    counts_repeat = all(p["counts"] == passes[0]["counts"] for p in passes)
    correct = failed == 0 and counts_repeat

    if args.trace:
        metrics = _per_layer(untraced, traced, passes)
    else:
        metrics = _end_to_end(untraced, attempted, failed)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(_environment(), **passes[0]["versions"]),
        "latency_samples": sum(p["items"] for p in untraced),
        "failed_frac": failed / attempted,
        "counts_repeat": counts_repeat,
        "counts": passes[0]["counts"],
        "passes": [
            {
                k: p[k]
                for k in (
                    "traced", "items", "failed", "loop_s", "raw_loop_s", "cpu_s", "raw_cpu_s",
                    "setup_s", "raw_setup_s", "scale", "peak_rss_mb",
                )
            }
            for p in passes
        ],
        "failures": [f for p in passes for f in p["failures"]][:5],
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>9} {name:<36} {value:>14.6g} {unit}", file=sys.stderr)
    if not correct:
        print(f"error: outputs or counts wrong: {record['failures']}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

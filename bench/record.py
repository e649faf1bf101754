"""Regenerate the benchmark's input pools and their recorded outputs.

    python3 bench/record.py --workload modules

Enumerates the pool of one workload, runs every item once and writes
``bench/pools/<workload>.json``.  The recorded outputs are the reference a
measured run is checked against, so run this only at a commit whose outputs
are trusted, and only when a workload's pool itself changes.  Measured runs
never write these files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import workloads
from glhecke.multisegments import Multisegment, Segment, enumerate_multisegments, segments_str
from glhecke.scalars import Scalar
from glhecke.sweeps import lambda_window

# (shift, largest k) per stratum: each shift sends the module checks down a
# different exact arithmetic path.  Gaussian weights stop at k = 4 and large
# integers start at k = 5 because that is where the path changes (object
# arrays) without one item costing seconds.
STRATUM_SHIFTS = {
    "small_int": (Scalar(0), range(1, 6)),
    "half_int": (Scalar(Fraction(1, 2)), range(1, 6)),
    "large_int": (Scalar(1000), range(5, 6)),
    "gaussian": (Scalar(0, 1), range(1, 5)),
}


def _window_classes(max_k: int):
    for k in range(1, max_k + 1):
        for lam in lambda_window(k, 5):
            yield from enumerate_multisegments(lam)


def _shift(ms: Multisegment, by: Scalar) -> Multisegment:
    return Multisegment(tuple(Segment(s.start + by, s.length) for s in ms.segments))


def modules_inputs():
    for stratum, (shift, ks) in STRATUM_SHIFTS.items():
        for ms in _window_classes(5):
            if ms.k in ks:
                yield {"input": segments_str(_shift(ms, shift)), "stratum": stratum}


def quotients_inputs():
    for ms in _window_classes(4):
        dim = math.factorial(ms.k) // math.prod(math.factorial(s.length) for s in ms.segments)
        if dim <= 6:
            yield {"input": segments_str(ms), "stratum": "small_int"}


def weights_inputs():
    for n in range(1, 8):
        for lam in lambda_window(n, n):
            yield {"input": ",".join(map(str, lam))}


INPUTS = {"modules": modules_inputs, "quotients": quotients_inputs, "weights": weights_inputs}


def _commit() -> str:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def record(name: str) -> None:
    wl = workloads.WORKLOADS[name]
    items = []
    for item in INPUTS[name]():
        raw = wl.run(wl.parse(item["input"]), workloads.untraced_call)
        item["expect"] = wl.summarize(raw, workloads.new_counts())
        items.append(item)
    header = json.dumps({"workload": name, "recorded_at": _commit()})[:-1]
    body = ",\n".join(json.dumps(item, sort_keys=True) for item in items)
    os.makedirs(workloads.POOL_DIR, exist_ok=True)
    with open(workloads.pool_path(name), "w") as fh:
        fh.write(f'{header}, "items": [\n{body}\n]}}\n')
    print(f"{name}: {len(items)} items", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    record(parser.parse_args().workload)


if __name__ == "__main__":
    main()

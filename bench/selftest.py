"""The benchmark's own tests.

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: the full-pool check runs every pool item once and takes about
ten minutes on two cores.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def _traced_call(spans: list):
    def call(span, fn, *args):
        spans.append(span)
        return fn(*args)

    return call


@pytest.mark.parametrize("name", NAMES)
def test_every_pool_item_matches_its_recorded_output(name):
    wl = workloads.WORKLOADS[name]
    wrong = []
    for item in workloads.load_pool(name):
        got = wl.summarize(wl.run(wl.parse(item["input"]), workloads.untraced_call), workloads.new_counts())
        if got != item["expect"]:
            wrong.append((item["input"], got, item["expect"]))
    assert not wrong, wrong[:3]


@pytest.mark.parametrize("name", NAMES)
def test_seeded_sampling_is_deterministic(name):
    pool = workloads.load_pool(name)
    first = workloads.plan_pass(name, pool, 7)
    assert first == workloads.plan_pass(name, pool, 7)
    assert len(set(first)) == len(first) >= 100
    other = workloads.plan_pass(name, pool, 8)
    assert other != first
    # the seed changes which items and their order, never how many of each kind
    assert len(other) == len(first)
    if name == "modules":
        kinds = lambda plan: sorted(  # noqa: E731
            (pool[i]["stratum"], workloads._composition(pool[i]["input"])) for i in plan
        )
        assert kinds(first) == kinds(other)
    if name == "quotients":
        assert sorted(first) == sorted(other) == list(range(len(pool)))


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_items_agree(name):
    wl = workloads.WORKLOADS[name]
    pool = workloads.load_pool(name)
    plan = workloads.plan_pass(name, pool, 3)[:40]
    plain, traced, spans = workloads.new_counts(), workloads.new_counts(), []
    for i in plan:
        inp = wl.parse(pool[i]["input"])
        a = wl.summarize(wl.run(inp, workloads.untraced_call), plain)
        b = wl.summarize(wl.run(inp, _traced_call(spans)), traced)
        assert a == b == pool[i]["expect"]
    assert plain == traced
    assert spans and set(spans) <= set(workloads.SPANS)


def test_benchmark_uses_only_public_names():
    modules = "branching|heckemod|levelmap|multisegments|orbits|realparams|scalars|sweeps"
    # skip names quoted in strings and comments, such as the span "heckemod.build"
    attribute = re.compile(rf"(?<![\"'`\w.])({modules})\.(?!__)(\w+)")
    imported = re.compile(rf"^from glhecke\.({modules}) import (.+)$", re.M)
    for name in ("workloads.py", "record.py"):
        with open(os.path.join(workloads.ROOT, "bench", name)) as fh:
            text = fh.read()
        uses = attribute.findall(text)
        for module, names in imported.findall(text):
            uses += [(module, n.strip()) for n in names.split(",")]
        assert uses
        for module, attr in uses:
            public = importlib.import_module(f"glhecke.{module}").__all__
            assert attr in public, f"{name} uses glhecke.{module}.{attr}, which is not public"


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _run(workloads.ROOT, "--workload", "weights", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert record["counts_repeat"] and [p["traced"] for p in record["passes"]] == [False, True]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["realparams.classes"]["value"] == record["counts"]["realparams.classes"] > 0
    assert record["environment"]["nproc"] >= 1 and record["seed"] == 5


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(os.path.join(workloads.ROOT, "bench"), tmp_path / "bench")
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "weights", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""

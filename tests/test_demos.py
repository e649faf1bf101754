import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the sha256 of each demo's stdout
DEMO_DIGESTS = {
    "branching_dimension_check.py": "441ae3340babde087b9b4f8cd16e0c15b7951db75181bcdb7d54a1c954c25a29",
    "orbit_map_walkthrough.py": "40424efb3c6a01e212e0c40edd06c58fd5d0bd52d1f132f7a8dce34bcf3f4bea",
    "parameter_enumeration.py": "e0854e80399802c85761bc60206155d8c74e68dc6b30f4601439900e882095bb",
    "standard_module_tour.py": "f84bbbc6d450c90f09696cbf194ed132dd4653120e3d6d7394193a04f9e7a3be",
}


def test_demos_are_found():
    assert [demo.name for demo in DEMOS] == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_DIGESTS[demo.name]

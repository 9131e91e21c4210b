"""Fixed-seed scenario artifacts are the behaviour contract: a refactor keeps them
byte-identical. The scenarios in ``scenarios/digests.json`` are pinned by digest, in
CSV and in JSON, because no BLAS or SIMD build has been seen to move them; the other
scenarios are checked against goldens of a reference checkout by
``scripts/run_all_scenarios.py --check``, and ``--digests`` checks the pinned ones.
"""

import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

from diracmech.cli import main

from test_cli import child_env

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

# (scenario, subcommand, format, sha256 of the artifact, its length in bytes)
PINNED = [(pin["scenario"], pin["command"], pin["format"], pin["sha256"], pin["bytes"])
          for pin in json.loads((SCENARIOS / "digests.json").read_text())]


@pytest.mark.parametrize("scenario, command, fmt, sha256, size", PINNED,
                         ids=[p[0] if p[2] == "csv" else f"{p[0]}-{p[2]}" for p in PINNED])
def test_scenario_artifact_keeps_its_bytes(tmp_path, scenario, command, fmt, sha256, size):
    out = tmp_path / f"{scenario}.{fmt}"
    assert main([command, "--config", str(SCENARIOS / f"{scenario}.json"),
                 "--out", str(out), "--format", fmt]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


def test_dirac_orbit_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # ramped k puts p_r != 0 and so two products in a correction entry, the sum that a
    # fused multiply-add rounds differently; 300 steps at dt 0.01 reach most rows with it
    config = json.loads((SCENARIOS / "ramped_k_orbit.json").read_text())
    config["integrator"] = {"dt": 0.01, "steps": 300}
    (tmp_path / "orbit.json").write_text(json.dumps(config))
    env = {key: value for key, value in child_env().items() if key != "OPENBLAS_CORETYPE"}
    children = {}
    for kernel, extra in (("default", {}), ("nehalem", {"OPENBLAS_CORETYPE": "Nehalem"})):
        children[kernel] = subprocess.Popen(
            [sys.executable, "-m", "diracmech", "evolve", "--config", str(tmp_path / "orbit.json"),
             "--out", str(tmp_path / f"{kernel}.csv"), "--format", "csv"],
            env={**env, **extra}, stdout=subprocess.DEVNULL)
    for child in children.values():
        assert child.wait(timeout=60) == 0
    default, nehalem = ((tmp_path / f"{kernel}.csv").read_bytes() for kernel in children)
    assert default.count(b"\n") == 301 + 3  # header, 301 states, two drift rows
    assert default == nehalem

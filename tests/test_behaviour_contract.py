"""Fixed-seed scenario artifacts are the behaviour contract: a refactor keeps them
byte-identical. These two scenarios are pinned here by digest, in CSV and in JSON,
because no BLAS or SIMD build has been seen to move them; the other scenarios are
checked against goldens of a reference checkout by ``scripts/run_all_scenarios.py --check``.
"""

import hashlib
import pathlib

import pytest

from diracmech.cli import main

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"

# (scenario, subcommand, format, sha256 of the artifact, its length in bytes)
PINNED = [
    ("gauge_orbit", "evolve", "csv",
     "f0bf9dda8cfe85a064d61d90a82c7947b09bc03720ae4a4f85de6ec834efad8d", 64486),
    ("particle_flight", "evolve", "csv",
     "9494758e3d471a7e2d176dc6dbe05c5a3d7fe284ca138a8721732bd08e2d0911", 49903),
    ("gauge_orbit", "evolve", "json",
     "1907c7e4c8d9e88f5b3b1e17f06cfbefb57d050b179973e7b4d857ca739335e9", 97425),
    ("particle_flight", "evolve", "json",
     "e38bd8ec34e86616c5e362aea558331124719e34c307b6eb4ad9c713c8768968", 90252),
]


@pytest.mark.parametrize("scenario, command, fmt, sha256, size", PINNED,
                         ids=[p[0] if p[2] == "csv" else f"{p[0]}-{p[2]}" for p in PINNED])
def test_scenario_artifact_keeps_its_bytes(tmp_path, scenario, command, fmt, sha256, size):
    out = tmp_path / f"{scenario}.{fmt}"
    assert main([command, "--config", str(SCENARIOS / f"{scenario}.json"),
                 "--out", str(out), "--format", fmt]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)

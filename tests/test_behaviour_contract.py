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

from conftest import fresh_models
from test_cli import child_env
from test_scripts import load_runner

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


def test_a_repeated_run_writes_the_bytes_of_the_first(tmp_path, monkeypatch):
    # every scenario twice in one process, in CSV and in JSON: the second run reuses the
    # first's model, its traces and bound kernels, and a pinned artifact keeps its pin
    fresh_models(monkeypatch)
    pins, checked = {(p[0], p[2]): (p[3], p[4]) for p in PINNED}, []
    for name, command in load_runner().COMMANDS.items():
        scenario = name.removesuffix(".json")
        for fmt in ("csv", "json"):
            runs = []
            for run in range(2):
                out = tmp_path / f"{scenario}-{run}.{fmt}"
                assert main([command, "--config", str(SCENARIOS / name), "--out", str(out),
                             "--format", fmt]) == 0
                runs.append(out.read_bytes())
            assert runs[0] == runs[1], (scenario, fmt)
            if (scenario, fmt) in pins:
                checked.append(scenario)
                assert (hashlib.sha256(runs[1]).hexdigest(), len(runs[1])) == pins[scenario, fmt]
    assert len(checked) == len(PINNED) and len(set(checked)) == 14


@pytest.mark.parametrize("scenario, command, lines", [
    # ramped k puts p_r != 0 and so two products in a correction entry, the sum that a
    # fused multiply-add rounds differently; 300 steps at dt 0.01 reach most rows with it.
    # Header, 301 states, two drift rows
    ("ramped_k_orbit", "evolve", 1 + 301 + 2),
    # S^T M^-1 S of dirac_tensor sums two products wherever both constraints move p1.
    # Header, 40 points of 6 pairs
    ("custom_second_class_brackets", "brackets", 1 + 40 * 6),
    # chi and C both move r and p_r, so {r, p_r} of S^T M^-1 S sums two products; a fused
    # kernel wrote -2.2e-16 there in 20 rows, where the unfused sum writes 0 exactly.
    # Header, 200 points of 6 pairs
    ("klauder_brackets", "brackets", 1 + 200 * 6),
    # a ramped k's constraint set (one KRamp) through the same S^T M^-1 S. Header, 100
    # points of 6 pairs
    ("klauder_ramped_brackets", "brackets", 1 + 100 * 6),
    # four constraints take the float elimination of M, where numpy's LU moved 77 rows
    # under Nehalem. Header, 301 states, four drift rows
    ("custom_four_orbit", "evolve", 1 + 301 + 4),
], ids=["ramped_k_orbit", "custom_second_class_brackets", "klauder_brackets",
        "klauder_ramped_brackets", "custom_four_orbit"])
def test_dirac_orbit_bytes_do_not_depend_on_the_blas_kernel(tmp_path, scenario, command, lines):
    config = json.loads((SCENARIOS / f"{scenario}.json").read_text())
    if command == "evolve":
        config["integrator"] = {"dt": 0.01, "steps": 300}
    (tmp_path / "scenario.json").write_text(json.dumps(config))
    env = {key: value for key, value in child_env().items() if key != "OPENBLAS_CORETYPE"}
    children = {}
    for kernel, extra in (("default", {}), ("nehalem", {"OPENBLAS_CORETYPE": "Nehalem"})):
        children[kernel] = subprocess.Popen(
            [sys.executable, "-m", "diracmech", command, "--config",
             str(tmp_path / "scenario.json"), "--out", str(tmp_path / f"{kernel}.csv"),
             "--format", "csv"],
            env={**env, **extra}, stdout=subprocess.DEVNULL)
    for child in children.values():
        assert child.wait(timeout=60) == 0
    default, nehalem = ((tmp_path / f"{kernel}.csv").read_bytes() for kernel in children)
    assert default.count(b"\n") == lines
    assert default == nehalem

"""Fixed-seed scenario artifacts are the behaviour contract: a refactor keeps them
byte-identical. These two scenarios are pinned by digest in ``scenarios/digests.json``,
in CSV and in JSON, because no BLAS or SIMD build has been seen to move them; the other
scenarios are checked against goldens of a reference checkout by
``scripts/run_all_scenarios.py --check``, and ``--digests`` checks the pinned ones.
"""

import hashlib
import json
import pathlib

import pytest

from diracmech.cli import main

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

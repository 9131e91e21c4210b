"""Tests of the benchmark itself: negative controls, tracer and result contract.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import diracmech.cli as cli  # noqa: E402
import diracmech.constraints as constraints  # noqa: E402
import diracmech.verify as verify  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402

SHIFT = 1e-3
CLI_KINDS = [kind for kinds in inputs.KINDS.values() for kind in kinds]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.mark.parametrize("kind", CLI_KINDS)
def test_clean_op_passes_and_shifted_oracle_fails(kind, workdir):
    config = inputs.scenario(kind, inputs.stream("test", 3))
    path = inputs.write_scenario(workdir, kind, config)
    assert run_cli([inputs.COMMAND[kind], "--config", str(path)]) == 0
    artifact = workdir / config["output"]["path"]
    passed, measured, detail = oracles.CHECKS[kind](config, artifact)
    assert passed and measured < 1.0, detail
    passed, measured, _ = oracles.CHECKS[kind](config, artifact, SHIFT)
    assert not passed and measured >= 1.0


def test_bracket_table_op_against_shifted_oracle_counts_as_failed(workdir):
    clean = session.CliRunner(cli, "bracket_table", 5, workdir).cycle()
    shifted = session.CliRunner(cli, "bracket_table", 5, workdir, shift=SHIFT).cycle()
    assert [op.passed for op in clean] == [True, True]
    assert [op.passed for op in shifted] == [False, False]
    result = {"ops": [session.asdict(op) for op in clean + shifted], "warmup_ops": [],
              "setup_s": 0.5, "cycles": 2, "peak_rss_mb": 60.0}
    rows = run.end_to_end(result, [])
    assert rows["ops_failed_frac"][0] == 0.5
    assert rows["ops_failed_frac"][2] == 4
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {name: rows[name][1] for name in rows if name != "ops_failed_frac"}


def test_verify_op_with_injected_fault_counts_as_failed():
    runner = session.VerifyRunner(verify, 1, inject_fault="core.canonical_relations")
    try:
        ops = runner.cycle()
    finally:
        runner.close()
    failed = [op.kind for op in ops if not op.passed]
    assert failed == ["core.canonical_relations"]
    assert len(ops) == sum(len(checks) for checks in verify.SUITES.values())
    assert verify.SUITES["core"][0] is verify.check_canonical_relations


def test_install_reaches_every_binding_and_uninstall_restores():
    original = constraints.dirac_bracket
    rec = tracer.Recorder()
    installed = tracer.install(rec)
    try:
        assert cli.dirac_bracket is constraints.dirac_bracket is not original
        assert cli.dirac_bracket.__wrapped__ is original
        check = verify.SUITES["klauder"][0]
        assert check is verify._CHECK_IDS["klauder.bracket_table"]
    finally:
        installed.uninstall()
    assert cli.dirac_bracket is constraints.dirac_bracket is original
    assert not hasattr(verify.SUITES["klauder"][0], "__wrapped__")


def traced_op(config, workdir, command):
    path = inputs.write_scenario(workdir, "op", config)
    rec = tracer.Recorder()
    installed = tracer.install(rec)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = rec.span(tracer.ROOT, cli.main, [command, "--config", str(path)])
    finally:
        installed.uninstall()
    assert code == 0
    return tracer.Spans(rec)


def test_traced_bracket_op_counts_and_self_times(workdir):
    config = inputs.scenario("klauder_table", inputs.stream("test", 1))
    config["samples"]["count"] = 5
    spans = traced_op(config, workdir, "brackets")
    assert spans.count("constraints.dirac_bracket") == 30
    assert spans.count("models.klauder.KlauderModel.dirac_oracle") == 30
    assert spans.count("models.klauder.KlauderModel.sample_points") == 1
    assert spans.tag_sum("cli.write_table") == 30
    root = spans.ids(tracer.ROOT)
    assert root.size == 1
    assert spans.self_time.sum() == pytest.approx(spans.dur[root].sum(), rel=1e-9)
    shares = layers.self_time_table(spans, 1)
    assert sum(row["share"] for row in shares) == pytest.approx(1.0, rel=1e-9)


def test_traced_dirac_orbit_counts_steps_rhs_and_solves(workdir):
    config = inputs.scenario("static_orbit", inputs.stream("test", 1))
    config["integrator"]["steps"] = 10
    spans = traced_op(config, workdir, "evolve")
    metrics = layers.per_layer(spans, 1, {}, 1.0, 1.0, 0)
    assert metrics["dynamics.rk4_steps"] == 10
    assert metrics["dynamics.rhs_evals"] == 40
    assert metrics["constraints.pairing_solves"] == 40
    assert metrics["dynamics.step_us.dirac"] > 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(metrics)


def test_tail_latency_keeps_ten_ops_beyond():
    values = [float(i) for i in range(40)]
    assert run.tail_latency(values) == (29.0, 75.0, 10)
    assert run.tail_latency(values[:5]) == (4.0, 100.0, 0)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "bracket_table",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

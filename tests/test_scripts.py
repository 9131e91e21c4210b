import hashlib
import importlib.util
import inspect
import json
import os
import pathlib
import runpy
import shutil
import subprocess
import sys

import pytest

from diracmech import cli
from diracmech.models import KlauderModel, RadialPotential

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "run_all_scenarios.py"


def load_runner():
    spec = importlib.util.spec_from_file_location("run_all_scenarios", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_scenario_file_has_a_command_and_every_command_a_file(tmp_path):
    runner = load_runner()
    assert runner.unmatched_scenarios(SCRIPT.parent.parent / "scenarios") == []
    for name in ("a.json", "b.json", "notes.txt"):
        (tmp_path / name).write_text("{}")
    assert runner.unmatched_scenarios(tmp_path, {"a.json": "brackets", "c.json": "evolve"}) == [
        "b.json: no COMMANDS entry", "c.json: COMMANDS entry has no file"]


def test_unmatched_scenario_exits_1_before_running_anything(monkeypatch, capsys):
    runner = load_runner()

    def refuse(*args, **kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(runner.subprocess, "run", refuse)
    monkeypatch.setitem(runner.COMMANDS, "absent.json", "brackets")
    assert runner.main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scenarios/absent.json: COMMANDS entry has no file\n"


@pytest.mark.parametrize("inherited", [None, "elsewhere"])
def test_scenarios_run_the_checkout_src_first(monkeypatch, capsys, inherited):
    runner = load_runner()
    seen = []

    def record(argv, **kwargs):
        seen.append(kwargs["env"]["PYTHONPATH"])
        return subprocess.CompletedProcess(argv, 2, "", "")

    monkeypatch.setattr(runner.subprocess, "run", record)
    if inherited is None:
        monkeypatch.delenv("PYTHONPATH", raising=False)
    else:
        monkeypatch.setenv("PYTHONPATH", inherited)
    assert runner.main([]) == 1
    capsys.readouterr()
    src = str(SCRIPT.parent.parent / "src")
    assert seen == [os.pathsep.join(filter(None, [src, inherited]))] * len(runner.COMMANDS)


def test_digests_flag_checks_each_pinned_artifact(monkeypatch, capsys, tmp_path):
    runner = load_runner()

    def write(argv, **kwargs):  # each pinned artifact reads "x"; the bad scenario exits 3
        if "--format" in argv and "bad.json" not in argv[argv.index("--config") + 1]:
            pathlib.Path(argv[argv.index("--out") + 1]).write_bytes(b"x")
        return subprocess.CompletedProcess(argv, 3 if "bad.json" in str(argv) else 0, "", "")

    monkeypatch.setattr(runner.subprocess, "run", write)
    x = hashlib.sha256(b"x").hexdigest()
    pins = [{"scenario": "good", "command": "evolve", "format": "csv", "sha256": x, "bytes": 1},
            {"scenario": "good", "command": "evolve", "format": "json", "sha256": x, "bytes": 2},
            {"scenario": "bad", "command": "brackets", "format": "csv", "sha256": x, "bytes": 1}]
    (tmp_path / runner.DIGESTS).write_text(json.dumps(pins))
    assert runner.digest_statuses(tmp_path, tmp_path, {}) == [
        ("evolve", "good.csv", "ok"),
        ("evolve", "good.json", f"sha256 {x} of 1 bytes, pinned {x} of 2"),
        ("brackets", "bad.csv", "exit 3")]
    # the committed pins: every scenario runs, then each pin, and "x" matches none of them
    committed = json.loads((SCRIPT.parent.parent / "scenarios" / runner.DIGESTS).read_text())
    assert runner.main(["--digests"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(runner.COMMANDS) + len(committed)
    assert [line.split()[:2] for line in lines[len(runner.COMMANDS):]] == [
        [pin["command"], f"{pin['scenario']}.{pin['format']}"] for pin in committed]
    assert all(" sha256 " in line for line in lines[len(runner.COMMANDS):])


def test_check_compares_the_csv_and_the_json_form_of_each_scenario(monkeypatch, capsys,
                                                                    tmp_path):
    runner = load_runner()
    root, goldens = tmp_path / "checkout", tmp_path / "goldens"
    shutil.copytree(SCRIPT.parent.parent / "scenarios", root / "scenarios")
    goldens.mkdir()
    monkeypatch.setattr(runner, "ROOT", root)
    runs = []

    def write(argv, **kwargs):  # each artifact reads "<scenario>,<format>"
        config = pathlib.Path(argv[argv.index("--config") + 1])
        out = (pathlib.Path(argv[argv.index("--out") + 1]) if "--out" in argv
               else root / json.loads(config.read_text())["output"]["path"])
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        out.parent.mkdir(exist_ok=True)
        out.write_text(f"{config.stem},{fmt}\r\n")
        runs.append((config.name, out.name, fmt))
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(runner.subprocess, "run", write)
    stems = [name.removesuffix(".json") for name in runner.COMMANDS]
    for stem in stems:
        for fmt in ("csv", "json"):
            (goldens / f"{stem}.{fmt}").write_text(f"{stem},{fmt}\r\n")
    (goldens / f"{stems[1]}.json").write_text("moved")
    (goldens / f"{stems[2]}.csv").write_text(f"{stems[2]},tsv\r\n")
    (goldens / f"{stems[3]}.json").unlink()
    assert runner.main(["--check", str(goldens)]) == 1
    assert runs == [(name, f"{stem}.{fmt}", fmt)
                    for name, stem in zip(runner.COMMANDS, stems) for fmt in ("csv", "json")]
    lines = capsys.readouterr().out.splitlines()
    statuses = [line.split(None, 2)[2] for line in lines if not line.startswith(" ")]
    assert statuses == ["ok", f"differs from {goldens / stems[1]}.json",
                        f"differs from {goldens / stems[2]}.csv",
                        f"no golden {goldens / stems[3]}.json", *["ok"] * (len(stems) - 4)]
    # the one CSV that differs, in its one row (the golden's header names its column)
    assert [line.strip() for line in lines if line.startswith(" ")] == [
        "1 of 1 rows differ", "max |diff| tsv: text"]


def test_csv_difference_counts_rows_and_bounds_each_column(tmp_path):
    golden, written = tmp_path / "golden.csv", tmp_path / "written.csv"
    golden.write_text("t,a,b\n0,1.0,x\n1,2.0,y\n2,nan,z\n3,4.0,z\n")
    written.write_text("t,a,b\n0,1.0,x\n1,2.5,w\n2,3.0,z\n3,4.25,z\n4,0,0\n")
    assert load_runner().csv_difference(golden, written) == [
        "4 of 6 rows differ (5 golden, 6 written)",
        "max |diff| a: inf",
        "max |diff| b: text",
    ]
    written.write_text("t,a,b\n0,1.0,x\n1,2.5,y\n2,nan,z\n3,4.25,z\n")
    assert load_runner().csv_difference(golden, written) == [
        "2 of 5 rows differ", "max |diff| a: 5.000e-01"]


def load_script(name):
    path = SCRIPT.parent / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_flow_routes_agree():
    routes = load_script("compare_flow_routes.py")
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.harmonic())
    for p_phi in (-2.0, 1.5):
        rates = (routes.dirac_rate(model, p_phi, steps=200), model.phi_rate(p_phi),
                 routes.reduced_rate(model, p_phi, steps=200))
        assert max(rates) - min(rates) < 1e-12, rates


def test_classical_vs_quantum_prints_its_table(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["classical_vs_quantum.py", "--t-max", "1"])
    runpy.run_path(str(SCRIPT.parent / "classical_vs_quantum.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:1] == ["t"])
    rows = [line.split() for line in lines[header + 1:]]
    assert len(rows) == 11 and all(len(row) == 5 for row in rows)
    assert float(rows[-1][0]) == 1.0


def test_line_census_lists_a_never_run_raise_and_not_cli_main(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", [str(SCRIPT.parent), *sys.path])  # for run_all_scenarios
    census = load_script("line_census.py")
    scenario = str(SCRIPT.parent.parent / "scenarios" / "klauder_brackets.json")
    report, failed = census.never_run([["brackets", "--config", scenario,
                                        "--out", str(tmp_path / "t.csv")]])
    assert failed == []
    count, listed = report[pathlib.Path(inspect.getsourcefile(cli)).resolve()]
    unreadable = 1 + next(i for i, line in enumerate(inspect.getsource(cli).splitlines())
                          if 'raise ConfigError(f"cannot read config' in line)
    main_start = inspect.getsourcelines(cli.main)[1]
    assert unreadable in listed and len(listed) < count
    assert not set(listed) & {main_start, main_start + 1}  # def main and its parse_args

import csv
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from jsonschema.validators import validator_for

from diracmech.brackets import poisson_bracket
from diracmech.circle import (CircleState, SpectrumTable, evolve_time_dependent,
                              expect_phi, expect_reduced)
from diracmech import cli
from diracmech.cli import COMMANDS, SCENARIO_SCHEMA, build_model, main
from diracmech.constraints import dirac_bracket
from diracmech.errors import ConfigError
from diracmech.fields import coordinate_field
from diracmech.phase import PhaseSpacePoint
from diracmech.models import KlauderModel, KRamp, RadialPotential
from diracmech.dynamics import gauge_orbit_closed_form
from diracmech import verify
from diracmech.verify import available_suites


def run_cli(*argv):
    return main(list(argv))


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def child_env():
    """The environment of a child interpreter that imports this checkout's src first."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def read_csv(path):
    with open(path) as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# -- brackets -------------------------------------------------------------------

def test_brackets_klauder_table(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "seed": 7,
        "model": {"kind": "klauder", "alpha": 1.0, "k": 1.0},
        "samples": {"count": 20},
    })
    out = tmp_path / "table.csv"
    assert run_cli("brackets", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["pair", "r", "phi", "p_r", "p_phi",
                      "poisson", "dirac", "oracle", "abs_diff"]
    assert len(rows) == 20 * 6
    assert max(float(r[-1]) for r in rows) < 1e-9


def test_brackets_deterministic_for_fixed_seed(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder"}, "samples": {"count": 5}})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("brackets", "--config", config, "--seed", "123", "--out", str(a)) == 0
    assert run_cli("brackets", "--config", config, "--seed", "123", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run_cli("brackets", "--config", config, "--seed", "124", "--out", str(c)) == 0
    assert a.read_bytes() != c.read_bytes()


def test_brackets_reads_one_dirac_tensor_per_table_and_one_oracle_per_pair(tmp_path,
                                                                          monkeypatch):
    calls = {"dirac_tensor": 0, "dirac_oracle": 0}
    written = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    write_table = cli.write_table

    def recording_write_table(path, fmt, columns, rows, footer_rows=None):
        written.append(len(rows))
        return write_table(path, fmt, columns, rows, footer_rows)

    # cmd_brackets reads D on the batch's columns, through the binding dirac_tensor,
    # once for the table; the oracle answers each of the 6 pairs for all 5 rows at once
    monkeypatch.setattr(cli, "dirac_tensor", counted("dirac_tensor", cli.dirac_tensor))
    monkeypatch.setattr(KlauderModel, "dirac_oracle",
                        counted("dirac_oracle", KlauderModel.dirac_oracle))
    monkeypatch.setattr(cli, "write_table", recording_write_table)
    config = write_config(tmp_path / "cfg.json", {
        "seed": 3, "model": {"kind": "klauder", "alpha": 1.0, "k": 1.0},
        "samples": {"count": 5, "r_range": [0.1, 5.0], "momentum_range": [-5.0, 5.0]}})
    assert run_cli("brackets", "--config", config, "--out", str(tmp_path / "t.csv")) == 0
    assert calls == {"dirac_tensor": 1, "dirac_oracle": 6}
    assert written == [30]


def test_brackets_custom_unconstrained_dirac_equals_poisson(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "custom", "labels": ["q1", "q2", "p1", "p2"]},
        "samples": {"count": 10},
    })
    out = tmp_path / "custom.csv"
    assert run_cli("brackets", "--config", config, "--out", str(out)) == 0
    _, rows = read_csv(out)
    for row in rows:
        assert row[5] == row[6]  # poisson column equals dirac column


SECOND_CLASS_CUSTOM = {
    "kind": "custom", "labels": ["q1", "q2", "p1", "p2"],
    "constraints": [{"name": "q2", "terms": [{"coeff": 1.0, "powers": [0, 1, 0, 0]}]},
                    {"name": "p2", "terms": [{"coeff": 1.0, "powers": [0, 0, 0, 1]}]}],
}


@pytest.mark.parametrize("model", [{"kind": "klauder", "alpha": 1.3, "k": 0.7},
                                   {"kind": "particle", "mass": 2.0, "spatial_dim": 2},
                                   SECOND_CLASS_CUSTOM])
def test_brackets_builds_no_point_per_sampled_row(tmp_path, monkeypatch, model):
    # the table reads the sampled batch as columns: one validation of the whole draw, and
    # no point per row
    built = []
    post_init = PhaseSpacePoint.__post_init__
    monkeypatch.setattr(PhaseSpacePoint, "__post_init__",
                        lambda self: built.append(post_init(self)))
    config = write_config(tmp_path / "cfg.json", {"model": model, "samples": {"count": 40}})
    assert run_cli("brackets", "--config", config, "--out", str(tmp_path / "t.csv")) == 0
    assert len(built) == 1


def test_brackets_custom_second_class_pair_has_no_oracle(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": SECOND_CLASS_CUSTOM, "samples": {"count": 4}})
    out = tmp_path / "custom.csv"
    assert run_cli("brackets", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert len(rows) == 4 * 6
    dirac = {row[0]: float(row[header.index("dirac")]) for row in rows}
    assert dirac["{q1,p1}"] == 1.0
    assert dirac["{q2,p2}"] == 0.0  # the Dirac bracket removes the constrained pair
    assert all(row[-2] == "" and row[-1] == "" for row in rows)


@pytest.mark.parametrize("model", [{"kind": "klauder", "alpha": 1.3, "k": 0.7},
                                   {"kind": "particle", "mass": 2.0, "spatial_dim": 2},
                                   SECOND_CLASS_CUSTOM])
def test_brackets_poisson_column_equals_the_engine_bracket(tmp_path, model):
    config = {"seed": 3, "model": model, "samples": {"count": 6}}
    out = tmp_path / "table.csv"
    assert run_cli("brackets", "--config", write_config(tmp_path / "cfg.json", config),
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    chart = build_model(config, "brackets").bracket_chart
    column = header.index("poisson")
    assert header[1:column] == list(chart.labels) and rows
    for row in rows:
        a, b = row[0][1:-1].split(",")
        x = chart.point([float(v) for v in row[1:column]])
        expected = poisson_bracket(coordinate_field(chart, a), coordinate_field(chart, b), x)
        assert row[column] == f"{expected:.17g}", row


@pytest.mark.parametrize("model", [{"kind": "klauder", "alpha": 1.3, "k": 0.7},
                                   {"kind": "particle", "mass": 2.0, "spatial_dim": 2},
                                   SECOND_CLASS_CUSTOM])
def test_brackets_dirac_column_equals_the_engine_bracket(tmp_path, model):
    # the table reads D_ab; dirac_bracket contracts D with the two coordinate gradients
    config = {"seed": 3, "model": model, "samples": {"count": 6}}
    out = tmp_path / "table.csv"
    assert run_cli("brackets", "--config", write_config(tmp_path / "cfg.json", config),
                   "--out", str(out)) == 0
    header, rows = read_csv(out)
    built = build_model(config, "brackets")
    chart = built.bracket_chart
    column = header.index("dirac")
    assert header[1:column - 1] == list(chart.labels) and rows
    for row in rows:
        a, b = row[0][1:-1].split(",")
        x = chart.point([float(v) for v in row[1:column - 1]])
        expected = dirac_bracket(coordinate_field(chart, a), coordinate_field(chart, b),
                                 built.constraint_set, x)
        assert row[column] == f"{expected:.17g}", row


def test_brackets_particle_oracle(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "particle", "mass": 2.0, "spatial_dim": 2},
        "samples": {"count": 5},
    })
    out = tmp_path / "particle.csv"
    assert run_cli("brackets", "--config", config, "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert max(float(r[-1]) for r in rows) < 1e-9


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("brackets", "--config", str(bad)) == 2


def test_unknown_keys_rejected(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder"}, "surprise": True})
    assert run_cli("brackets", "--config", config) == 2


def test_scenario_schema_is_valid():
    validator_for(SCENARIO_SCHEMA).check_schema(SCENARIO_SCHEMA)


@pytest.mark.parametrize("config, message", [
    ({"model": {"kind": "klauder"}, "samples": {"count": 0}},
     "invalid config at samples/count: 0 is less than the minimum of 1"),
    ({"model": {"kind": "klauder"}, "surprise": True},
     "invalid config at <root>: Additional properties are not allowed ('surprise' was unexpected)"),
    # JSON Schema's "integer" admits 2.0; these used to end in a TypeError traceback
    ({"model": {"kind": "klauder"}, "samples": {"count": 3.0}},
     "invalid config at samples/count: 3.0 is not of type 'integer'"),
    ({"model": {"kind": "maxwell", "side": 2.0}},
     "invalid config at model/side: 2.0 is not of type 'integer'"),
    ({"model": {"kind": "klauder"}, "integrator": {"dt": 0.1, "steps": 5.0}},
     "invalid config at integrator/steps: 5.0 is not of type 'integer'"),
    # RK4 is the one scheme, so the schema has no key that names one
    ({"model": {"kind": "klauder"}, "integrator": {"dt": 0.1, "steps": 5, "scheme": "euler"}},
     "invalid config at integrator: Additional properties are not allowed "
     "('scheme' was unexpected)"),
    # the quantum route follows the model's k: a ramped k is the time-dependent one
    ({"model": {"kind": "klauder", "k": [0.5, -1.0]},
      "quantum": {"single_mode": 0, "times": [0.0], "time_dependent": True}},
     "invalid config at quantum: Additional properties are not allowed "
     "('time_dependent' was unexpected)"),
    # the Dirac flow stays on the surface by construction, so no step is corrected
    ({"model": {"kind": "klauder"},
      "integrator": {"dt": 0.1, "steps": 5, "projection": {"tol": 1e-12, "max_iter": 10}}},
     "invalid config at integrator: Additional properties are not allowed "
     "('projection' was unexpected)"),
])
def test_invalid_config_message(tmp_path, capsys, config, message):
    assert run_cli("brackets", "--config", write_config(tmp_path / "cfg.json", config)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integrator_scheme_rk4_is_an_unknown_key(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": 0.0}, "flow": {"kind": "gauge"},
        "integrator": {"dt": 0.01, "steps": 3, "scheme": "rk4"},
        "initial": {"coords": [1.0, 0.0, 1.0, 0.0]}})
    out = tmp_path / "traj.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err == ("error: invalid config at integrator: Additional "
                                       "properties are not allowed ('scheme' was unexpected)\n")
    assert not out.exists()


def test_missing_file_exits_2(tmp_path):
    assert run_cli("brackets", "--config", str(tmp_path / "absent.json")) == 2


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_nonfinite_json_literal_exits_2(tmp_path, capsys, literal):
    # Python's json parses these; a table of nan rows would otherwise exit 0
    path = tmp_path / "cfg.json"
    path.write_text('{"model": {"kind": "klauder", "alpha": %s}, "samples": {"count": 2}}'
                    % literal)
    out = tmp_path / "table.csv"
    assert run_cli("brackets", "--config", str(path), "--out", str(out)) == 2
    assert f"{literal} is not a JSON number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
@pytest.mark.parametrize("command, payload, location", [
    ("brackets", '{"model": {"kind": "klauder", "alpha": %s}, "samples": {"count": 2}}',
     "model/alpha"),
    ("evolve", '{"model": {"kind": "custom", "labels": ["q", "p"]}, "flow": {"kind": "poisson", '
     '"hamiltonian": [{"coeff": 1.0, "powers": [0, 2]}]}, "integrator": {"dt": %s, "steps": 2}, '
     '"initial": {"coords": [0.0, 1.0]}}', "integrator/dt"),
    ("quantum", '{"model": {"kind": "klauder"}, "quantum": {"m_max": 2, "single_mode": 1, '
     '"times": {"start": %s, "stop": 1.0, "count": 3}}}', "quantum/times/start"),
])
def test_number_beyond_the_float_range_exits_2(tmp_path, capsys, literal, command, payload,
                                               location):
    # json reads 1e400 as inf and the 401-digit integer as an int no float holds; either
    # ended in a traceback or a table of inf rows
    path = tmp_path / "cfg.json"
    path.write_text(payload % literal)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid config at {location}: number is beyond the float range"]
    assert not out.exists()


def test_undecodable_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"model": "\xff\xfe"}')
    assert run_cli("brackets", "--config", str(bad)) == 2


@pytest.mark.parametrize("command, model, extra", [
    ("brackets", {"kind": "klauder", "alpha": 1e200}, {"samples": {"count": 2}}),
    ("brackets", {"kind": "particle", "mass": 1e200}, {"samples": {"count": 2}}),
    ("quantum", {"kind": "klauder", "alpha": 1e200},
     {"quantum": {"m_max": 1, "single_mode": 0, "times": [0.0]}}),
])
def test_overflowing_model_parameter_exits_2(tmp_path, capsys, command, model, extra):
    config = write_config(tmp_path / "cfg.json", {"model": model, **extra})
    assert run_cli(command, "--config", config, "--out", str(tmp_path / "out.csv")) == 2
    assert "is not finite" in capsys.readouterr().err


def test_brackets_nonfinite_pairing_matrix_exits_3(tmp_path, capsys):
    # M = [[nan, inf], [-inf, 0]]; the unscaled pair (q p, p^2) gives {q, p}_D = 0.
    # alpha = 1e154 keeps alpha^2 finite, but the constraint gradients overflow.
    custom = {"kind": "custom", "labels": ["q", "p"], "constraints": [
        {"name": "A", "terms": [{"coeff": 1e300, "powers": [1, 1]}]},
        {"name": "B", "terms": [{"coeff": 1e300, "powers": [0, 2]}]}]}
    for model in (custom, {"kind": "klauder", "alpha": 1e154}):
        config = write_config(tmp_path / "cfg.json", {"model": model, "samples": {"count": 3}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy overflow warnings would reach stderr
            code = run_cli("brackets", "--config", config, "--out", str(tmp_path / "t.csv"))
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: constraint pairing matrix has a non-finite entry; "
            "system is not Second Class here"]


def test_brackets_klauder_oracle_at_huge_radii_writes_its_table(tmp_path, capsys):
    # (alpha r r)^2 overflows to inf in the oracle's denominator, as a product; as a
    # Python power it raised OverflowError out of the command
    config = write_config(tmp_path / "cfg.json", {
        "seed": 3, "model": {"kind": "klauder"},
        "samples": {"count": 9, "r_range": [1e100, 1e101], "momentum_range": [-1, 1]}})
    out = tmp_path / "t.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would reach stderr
        assert run_cli("brackets", "--config", config, "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len(rows) == 9 * 6 and max(float(row[-1]) for row in rows) < 1e-9
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("k, ramped", [([1.0, 1e308], True), (1e200, False)])
def test_quantum_overflowing_spectrum_exits_3(tmp_path, capsys, k, ramped):
    # k^2 overflows although k(t) is finite on the sweep
    payload = {
        "model": {"kind": "klauder", "k": k, "potential": {"type": "poly", "coeffs": [0, 1]}},
        "quantum": {"m_max": 2, "single_mode": 1, "times": [0.0, 0.5]}}
    assert build_model(payload, "quantum").time_dependent == ramped  # the route k picks
    config = write_config(tmp_path / "cfg.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would reach stderr
        code = run_cli("quantum", "--config", config, "--out", str(tmp_path / "q.csv"))
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite reduced spectrum: r*^4 or U(r*) overflows"]


RAMPED_DIRAC = {"model": {"kind": "klauder", "alpha": 1.0, "k": [1.0, 0.5],
                          "potential": {"type": "poly", "coeffs": [0, 0, 0.5]}},
                "flow": {"kind": "dirac"}, "initial": {"surface": {"phi": 0.0, "p_phi": 2.0}}}
GAUGE = {"model": {"kind": "klauder", "alpha": 1.0, "k": 0.0}, "flow": {"kind": "gauge"},
         "initial": {"coords": [1.0, 0.0, 1.0, 0.0]}}
KLAUDER_SAMPLES = {"model": {"kind": "klauder", "alpha": 1.0, "k": 1.0}}
SINGLE_MODE_SWEEP = {"m_max": 2, "single_mode": 1, "times": [0.0, 0.5]}
SHORT_RUN = {"dt": 0.01, "steps": 2}
PARTICLE_REST = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]  # x0, x, p0 = m = 1, p = 0
# a key that another key of the scenario leaves unread: (command, payload, message)
UNREAD_KEY_CASES = [
    ("evolve", {**RAMPED_DIRAC, "flow": {"kind": "dirac", "multiplier": 5.0},
                "integrator": SHORT_RUN},
     "flow/multiplier is read by gauge flows only, not by 'dirac'"),
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"]},
                "flow": {"kind": "poisson", "hamiltonian": [{"coeff": 0.5, "powers": [0, 2]}],
                         "multiplier": {"type": "poly", "coeffs": [1.0, 2.0]}},
                "integrator": SHORT_RUN, "initial": {"coords": [1.0, 0.0]}},
     "flow/multiplier is read by gauge flows only, not by 'poisson'"),
    ("quantum", {"model": {"kind": "klauder"},
                 "quantum": {**SINGLE_MODE_SWEEP, "coeffs": [[0, 0], [1, 0], [0, 0], [0, 0],
                                                             [0, 0]]}},
     "quantum/single_mode is read without quantum/coeffs only, not with it"),
    ("evolve", {**GAUGE, "initial": {**GAUGE["initial"], "surface": {"p_phi": 1.0}},
                "integrator": SHORT_RUN},
     "initial/surface is read without initial/coords only, not with it"),
    ("evolve", {"model": {"kind": "particle"}, "flow": {"kind": "dirac"}, "integrator": SHORT_RUN,
                "initial": {"coords": PARTICLE_REST, "x": [1.0, 0.0, 0.0]}},
     "initial/x is read without initial/coords only, not with it"),
    ("evolve", {"model": {"kind": "particle"}, "flow": {"kind": "dirac"}, "integrator": SHORT_RUN,
                "initial": {"coords": PARTICLE_REST, "p": [1.0, 0.0, 0.0]}},
     "initial/p is read without initial/coords only, not with it"),
]


@pytest.mark.parametrize("command, payload, code, message", [
    # RK4 stages that overflow end in the blow-up check or the pairing guard
    ("maxwell", {"model": {"kind": "maxwell", "side": 2}, "integrator": {"dt": 1e100, "steps": 3}},
     3, "trajectory blew up at t=1e+100 (|z| > 1e+12 or NaN)"),
    ("evolve", {**GAUGE, "model": {"kind": "klauder", "alpha": 1e-8, "k": 0.0},
                "integrator": {"dt": 1e160, "steps": 3}},
     3, "trajectory blew up at t=1e+160 (|z| > 1e+12 or NaN)"),
    ("evolve", {**RAMPED_DIRAC, "model": {**RAMPED_DIRAC["model"],
                                          "potential": {"type": "poly", "coeffs": [0, 0, 1e160]}},
                "integrator": {"dt": 0.001, "steps": 5}},
     3, "constraint pairing matrix has a non-finite entry; system is not Second Class here"),
    # a sampling range that holds no point
    ("brackets", {**KLAUDER_SAMPLES, "samples": {"count": 3, "momentum_range": [7, 5.0]}},
     2, "samples/momentum_range [7, 5.0] needs low <= high with a finite width"),
    ("brackets", {**KLAUDER_SAMPLES, "samples": {"count": 3, "momentum_range": [-1e308, 1e308]}},
     2, "samples/momentum_range [-1e+308, 1e+308] needs low <= high with a finite width"),
    ("brackets", {**KLAUDER_SAMPLES, "samples": {"count": 3, "r_range": [5.0, 0.1]}},
     2, "samples/r_range [5.0, 0.1] needs low <= high with a finite width "
        "once low is raised to the floor 0.05"),
    ("brackets", {**KLAUDER_SAMPLES, "samples": {"count": 3, "r_range": [0.01, 0.02]}},
     2, "samples/r_range [0.01, 0.02] needs low <= high with a finite width "
        "once low is raised to the floor 0.05"),
    # alpha^2 underflows to 0
    ("evolve", {**RAMPED_DIRAC, "model": {**RAMPED_DIRAC["model"], "alpha": 5e-324},
                "integrator": {"dt": 0.001, "steps": 5}},
     2, "alpha^2 is not finite or underflows to 0 for alpha = 5e-324"),
    # U t / hbar overflows, static and ramped
    ("quantum", {"model": {"kind": "klauder", "hbar": 5e-324,
                           "potential": {"type": "poly", "coeffs": [0, 1]}},
                 "quantum": SINGLE_MODE_SWEEP},
     3, "non-finite phase: U t / hbar overflows"),
    ("quantum", {"model": {"kind": "klauder", "hbar": 5e-324, "k": [1.0, 0.5],
                           "potential": {"type": "poly", "coeffs": [0, 1]}},
                 "quantum": SINGLE_MODE_SWEEP},
     3, "non-finite phase: U t / hbar overflows"),
    # sizes whose arrays exceed 2^60 bytes, which no host can map
    ("quantum", {"model": {"kind": "klauder"}, "quantum": {**SINGLE_MODE_SWEEP, "m_max": 10 ** 18}},
     2, "quantum/m_max is too large: its arrays cannot be allocated"),
    ("quantum", {"model": {"kind": "klauder"},
                 "quantum": {**SINGLE_MODE_SWEEP,
                             "times": {"start": 0, "stop": 1, "count": 10 ** 18}}},
     2, "quantum/times is too large: its arrays cannot be allocated"),
    ("quantum", {"model": {"kind": "klauder", "k": [1.0, 0.5]},
                 "quantum": {**SINGLE_MODE_SWEEP, "quadrature_steps": 10 ** 18}},
     2, "quantum/quadrature_steps is too large: its arrays cannot be allocated"),
    ("maxwell", {"model": {"kind": "maxwell", "side": 10 ** 6},
                 "integrator": {"dt": 0.1, "steps": 2}},
     2, "model/side is too large: its arrays cannot be allocated"),
    # the FFT projector of so large a random E overflows
    ("maxwell", {"model": {"kind": "maxwell", "side": 2}, "integrator": {"dt": 0.1, "steps": 2},
                 "maxwell": {"e_scale": 1e308}},
     2, "maxwell/e_scale 1e+308 overflows the projected initial E"),
    # an initial field beyond the blow-up limit, with no step taken: the start is checked
    # like every step, before its energy overflows
    ("maxwell", {"model": {"kind": "maxwell", "side": 2}, "integrator": {"dt": 0.1, "steps": 0},
                 "maxwell": {"e_scale": 1e200}},
     3, "trajectory blew up at t=0 (|z| > 1e+12 or NaN)"),
    ("maxwell", {"model": {"kind": "maxwell", "side": 2}, "integrator": {"dt": 0.1, "steps": 0},
                 "maxwell": {"e_scale": 1e100}},
     3, "trajectory blew up at t=0 (|z| > 1e+12 or NaN)"),
    # a bounded start whose generator overflows
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"]},
                "flow": {"kind": "poisson", "hamiltonian": [{"coeff": 1e300, "powers": [4, 0]}]},
                "integrator": {"dt": 0.1, "steps": 0}, "initial": {"coords": [1000.0, 0.0]}},
     3, "trajectory blew up at t=0 (H = inf)"),
    # q^40 at q = 1e11: the gradient's power overflows, which on Python floats raises
    # OverflowError unless it is taken as the inf a numpy scalar gives
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"]},
                "flow": {"kind": "poisson", "hamiltonian": [{"coeff": 1.0, "powers": [40, 0]}]},
                "integrator": {"dt": 0.001, "steps": 3}, "initial": {"coords": [1e11, 0.0]}},
     3, "trajectory blew up at t=0.001 (|z| > 1e+12 or NaN)"),
    # U t, m hbar and the Simpson sum of U overflow before the phases are taken
    ("quantum", {"model": {"kind": "klauder", "potential": {"type": "poly", "coeffs": [1e308, 1]}},
                 "quantum": {**SINGLE_MODE_SWEEP, "times": [0.0, 10.0]}},
     3, "non-finite phase: U t / hbar overflows"),
    ("quantum", {"model": {"kind": "klauder", "hbar": 1e308,
                           "potential": {"type": "poly", "coeffs": [0, 1]}},
                 "quantum": SINGLE_MODE_SWEEP},
     3, "non-finite reduced spectrum: r*^4 or U(r*) overflows"),
    ("quantum", {"model": {"kind": "klauder", "hbar": 1e308, "k": [0.5, -1.0],
                           "potential": {"type": "poly", "coeffs": [0, 1]}},
                 "quantum": SINGLE_MODE_SWEEP},
     3, "non-finite reduced spectrum: r*^4 or U(r*) overflows"),
    ("quantum", {"model": {"kind": "klauder", "k": [0.5, -1.0],
                           "potential": {"type": "poly", "coeffs": [0, 1e308]}},
                 "quantum": {**SINGLE_MODE_SWEEP, "times": [0.0, 1.5]}},
     3, "non-finite phase: U t / hbar overflows"),
    # a key the scenario leaves unread is a config error, not ignored
    *((command, payload, 2, message) for command, payload, message in UNREAD_KEY_CASES),
    # 1e160 q0^2 overflows at q0 = 1e160: the residual is inf, so the start is off the surface
    ("evolve", {"model": {"kind": "custom", "labels": ["q0", "p0"], "constraints": [
        {"name": "A", "terms": [{"coeff": 1e160, "powers": [2, 0]}]},
        {"name": "B", "terms": [{"coeff": 1.0, "powers": [0, 1]}]}]},
        "flow": {"kind": "dirac", "hamiltonian": [{"coeff": 1.0, "powers": [0, 2]}]},
        "integrator": SHORT_RUN, "initial": {"coords": [1e160, 0.0]}},
     2, "initial point of a Dirac flow is off the constraint surface: |A| = inf, "
        "tolerance 1e-08"),
    # linear constraints whose constant M mixes entries near 1e161 with subnormal ones: the
    # elimination's det is subnormal, near the exact det Pf(M)^2 = 1.6e-320
    ("brackets", {"model": {"kind": "custom", "labels": ["q1", "q2", "p1", "p2"],
                            "constraints": [
        {"name": "A", "terms": [{"coeff": 1.0, "powers": [1, 0, 0, 0]}]},
        {"name": "B", "terms": [{"coeff": 1.0, "powers": [0, 1, 0, 0]}]},
        {"name": "C", "terms": [{"coeff": 5.4e-323, "powers": [0, 1, 0, 0]},
                                {"coeff": 6.872e-162, "powers": [0, 0, 1, 0]},
                                {"coeff": -7.806e-322, "powers": [0, 0, 0, 1]}]},
        {"name": "D", "terms": [{"coeff": 5.076e161, "powers": [0, 0, 1, 0]},
                                {"coeff": -39.17, "powers": [0, 0, 0, 1]}]}]},
                  "samples": {"count": 3}},
     3, "constraint pairing matrix is singular (det=1.279e-320); system is not Second Class here"),
    # a quantum block with no initial state, or with coefficients of the wrong length
    ("quantum", {"model": {"kind": "klauder"}, "quantum": {"m_max": 1, "times": [0.0]}},
     2, "quantum block needs 'coeffs' or 'single_mode'"),
    ("quantum", {"model": {"kind": "klauder"},
                 "quantum": {"m_max": 1, "coeffs": [[1.0, 0.0]], "times": [0.0]}},
     2, "need 3 coefficients for m_max=1"),
    # a Klauder orbit with no starting point, and a custom flow with no Hamiltonian
    ("evolve", {"model": {"kind": "klauder"}, "flow": {"kind": "dirac"}, "integrator": SHORT_RUN},
     2, "scenario needs an 'initial' block matching the model"),
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"]}, "flow": {"kind": "poisson"},
                "integrator": SHORT_RUN, "initial": {"coords": [0.0, 1.0]}},
     2, "custom flows need a polynomial 'hamiltonian'"),
    # a start beyond the blow-up limit fails before the first step
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"]},
                "flow": {"kind": "poisson", "hamiltonian": [{"coeff": 0.5, "powers": [0, 2]}]},
                "integrator": SHORT_RUN, "initial": {"coords": [1e13, 0.0]}},
     3, "trajectory blew up at t=0 (|z| > 1e+12 or NaN)"),
    # a JSON integer that no float holds, read as a time
    ("quantum", {"model": {"kind": "klauder"},
                 "quantum": {**SINGLE_MODE_SWEEP, "times": [0.0, 10 ** 400]}},
     2, "invalid config at quantum/times/1: number is beyond the float range"),
])
def test_extreme_valid_config_ends_in_one_error_line(tmp_path, capsys, command, payload, code,
                                                     message):
    config = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warnings would reach stderr
        assert run_cli(command, "--config", config, "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("error:")] == [f"error: {message}"]
    # an evolve that meets a degeneracy mid-run writes its good steps; no other error
    # leaves an artifact (no NaN rows)
    assert out.exists() == (command == "evolve" and "not Second Class" in message), message


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflowing_watched_residual_exits_3(tmp_path, capsys, fmt):
    # q moves 4e7, 5e7, 6e7 while H = 1e7 p stays finite, and the watched q^40 overflows
    # at t = 2: no inf residual, nan drift row or JSON Infinity reaches an artifact
    payload = {"model": {"kind": "custom", "labels": ["q", "p"], "constraints": [
                   {"name": "C", "terms": [{"coeff": 1.0, "powers": [40, 0]}]}]},
               "flow": {"kind": "poisson", "hamiltonian": [{"coeff": 1e7, "powers": [0, 1]}]},
               "integrator": {"dt": 1.0, "steps": 3}, "initial": {"coords": [4e7, 0.0]}}
    config = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / f"out.{fmt}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would reach stderr
        code = run_cli("evolve", "--config", config, "--out", str(out), "--format", fmt)
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: trajectory blew up at t=2 (|C| = inf)"]
    assert not out.exists()


def capped_brackets_run(tmp_path, payload):
    """``brackets`` on ``payload`` in a child under a 1 GiB address space, where an
    unguarded size ends in a MemoryError within seconds; returns the finished process."""
    config = write_config(tmp_path / "cfg.json", payload)
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30)); "
            "from diracmech.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, "brackets", "--config", config,
                           "--out", str(tmp_path / "out.csv")],
                          env={**child_env(), "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=120)
    assert not (tmp_path / "out.csv").exists()
    return done


def test_unallocatable_spatial_dim_exits_2_in_a_capped_child(tmp_path):
    # 2(d + 1) labels for d = 10^12 would grow until the host ran out of memory
    done = capped_brackets_run(tmp_path, {"model": {"kind": "particle", "spatial_dim": 10 ** 12}})
    assert (done.returncode, done.stderr) == (
        2, "error: model/spatial_dim is too large: its arrays cannot be allocated\n")


def test_unallocatable_sample_count_exits_2_in_a_capped_child(tmp_path):
    # 10^9 points of 6 bracket rows each: the sampler and the rows would grow for tens of
    # seconds and end in a MemoryError with no error line
    payload = json.loads((ROOT / "scenarios" / "klauder_brackets.json").read_text())
    payload["samples"]["count"] = 10 ** 9
    done = capped_brackets_run(tmp_path, payload)
    assert (done.returncode, done.stderr) == (
        2, "error: samples/count is too large: its arrays cannot be allocated\n")


@pytest.mark.parametrize("name", ["PhiGrid.build", "expect_phi"])
def test_quantum_window_too_large_for_its_mode_arrays_is_a_config_error(
        tmp_path, capsys, monkeypatch, name):
    # the phi grid holds (nodes + 1) x (2 m_max + 1) values and expect_phi (2 m_max + 1)^2;
    # an m_max that allocates its state but not these would take gigabytes to reach here
    def unallocatable(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"diracmech.circle.{name}", unallocatable)
    config = write_config(tmp_path / "cfg.json",
                          {"model": {"kind": "klauder"}, "quantum": SINGLE_MODE_SWEEP})
    assert run_cli("quantum", "--config", config, "--out", str(tmp_path / "q.csv")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: quantum/m_max is too large: its arrays cannot be allocated"]


@pytest.mark.parametrize("payload", [GAUGE, RAMPED_DIRAC])
@pytest.mark.parametrize("dt", [1e-200, 5e-324])
def test_evolve_subnormal_dt_fits_the_drift_without_a_warning(tmp_path, payload, dt):
    # t^2 underflows at these steps; the drift fit runs on rescaled times
    config = write_config(tmp_path / "cfg.json", {**payload,
                                                  "integrator": {"dt": dt, "steps": 3}})
    out = tmp_path / "traj.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    _, rows = read_csv(out)
    drift = [row for row in rows if row[0] == "drift"]
    assert drift and not any(math.isnan(float(row[3])) for row in drift)


@pytest.mark.parametrize("samples", [{"r_range": [1, 1]}, {"momentum_range": [2, 2]}])
def test_brackets_equal_sampling_bounds_are_valid(tmp_path, samples):
    config = write_config(tmp_path / "cfg.json", {**KLAUDER_SAMPLES,
                                                  "samples": {"count": 3, **samples}})
    out = tmp_path / "table.csv"
    assert run_cli("brackets", "--config", config, "--out", str(out)) == 0
    assert len(read_csv(out)[1]) == 18


# -- evolve ---------------------------------------------------------------------

def test_evolve_dirac_flow_constant_radius(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": 0.0,
                  "potential": {"type": "poly", "coeffs": [0, 0, 0.5]}},
        "flow": {"kind": "dirac"},
        "integrator": {"dt": 0.001, "steps": 500},
        "initial": {"surface": {"phi": 0.0, "p_phi": 2.0}},
    })
    out = tmp_path / "traj.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header[:5] == ["t", "r", "phi", "p_r", "p_phi"]
    data = [r for r in rows if r[0] != "drift"]
    radii = np.array([float(r[1]) for r in data])
    assert np.max(np.abs(radii - radii[0])) < 1e-8
    footer = [r for r in rows if r[0] == "drift"]
    assert {r[1] for r in footer} == {"chi", "C"}


def test_evolve_gauge_flow_residual(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": 0.0},
        "flow": {"kind": "gauge", "multiplier": 1.0},
        "integrator": {"dt": 0.001, "steps": 1000},
        "initial": {"coords": [1.0, 0.0, 1.0, 0.0]},
    })
    out = tmp_path / "gauge.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    data = [r for r in rows if r[0] != "drift"]
    res_col = header.index("res_C")
    assert max(float(r[res_col]) for r in data) < 1e-10
    q1_final = float(data[-1][1])
    assert q1_final == pytest.approx(math.e, abs=1e-8)


def test_evolve_gauge_flow_polynomial_multiplier(tmp_path):
    # lambda(t) = 1 + t/2 accumulates T = t + t^2/4 along the cosh/sinh orbit
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": 0.0},
        "flow": {"kind": "gauge", "multiplier": {"type": "poly", "coeffs": [1.0, 0.5]}},
        "integrator": {"dt": 0.001, "steps": 1000},
        "initial": {"coords": [1.0, 0.0, 1.0, 0.0]},
    })
    out = tmp_path / "gauge.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    _, rows = read_csv(out)
    final = [float(v) for v in [r for r in rows if r[0] != "drift"][-1][1:5]]
    q, p = gauge_orbit_closed_form([1.0, 0.0], [1.0, 0.0], 1.0, 1.25)
    assert final == pytest.approx([*q, *p], abs=1e-8)


def test_evolve_custom_dirac_flow_stays_on_surface(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": SECOND_CLASS_CUSTOM,
        "flow": {"kind": "dirac",
                 "hamiltonian": [{"coeff": 0.5, "powers": [2, 0, 0, 0]},
                                 {"coeff": 0.5, "powers": [0, 0, 2, 0]},
                                 {"coeff": 1.0, "powers": [0, 1, 0, 1]}]},
        "integrator": {"dt": 0.001, "steps": 500},
        "initial": {"coords": [1.0, 0.0, 0.0, 0.0]},
    })
    out = tmp_path / "custom.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t", "q1", "q2", "p1", "p2", "res_q2", "res_p2", "H"]
    data = [[float(v) for v in r] for r in rows if r[0] != "drift"]
    assert max(max(abs(r[2]), abs(r[4])) for r in data) == 0.0
    assert data[-1][1] == pytest.approx(math.cos(0.5), abs=1e-10)


def test_evolve_rejects_two_constraints_of_one_name(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "custom", "labels": ["q1", "q2", "p1", "p2"],
                  "constraints": [{"name": "C", "terms": [{"coeff": 1.0, "powers": [1, 0, 0, 0]}]},
                                  {"name": "C", "terms": [{"coeff": 1.0, "powers": [0, 0, 1, 0]}]}]},
        "flow": {"kind": "poisson", "hamiltonian": [{"coeff": 0.5, "powers": [0, 0, 2, 0]}]},
        "integrator": {"dt": 0.01, "steps": 20},
        "initial": {"coords": [1.0, 0.5, 0.3, 0.25]},
    })
    out = tmp_path / "dup.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: constraint names must be distinct\n"
    assert not out.exists()


@pytest.mark.parametrize("command, model, flow", [
    ("evolve", {"kind": "particle", "mass": 1.0}, {"kind": "dirac"}),
    ("brackets", {"kind": "maxwell", "side": 2}, None),
    ("evolve", {"kind": "maxwell", "side": 2}, {"kind": "poisson"}),
    ("quantum", {"kind": "particle", "mass": 1.0}, None),
])
def test_command_rejects_unsupported_model_or_flow(tmp_path, capsys, command, model, flow):
    blocks = {"flow": flow, "integrator": {"dt": 0.01, "steps": 1},
              "initial": {"x": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 0.0]},
              "quantum": {"single_mode": 0, "times": [0.0]}}
    spec = COMMANDS[command]
    payload = {"model": model, **{name: blocks[name] for name in (*spec["needs"], *spec["reads"])
                                  if blocks.get(name) is not None}}
    config = write_config(tmp_path / "cfg.json", payload)
    assert run_cli(command, "--config", config, "--out", str(tmp_path / "out.csv")) == 2
    assert "block" not in capsys.readouterr().err  # the model or the flow, not a block


ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scenario, command, block, value", [
    ("maxwell_l2", "maxwell", "flow", {"kind": "dirac"}),
    ("maxwell_l2", "maxwell", "initial", {"coords": [0.0, 1.0]}),
    ("maxwell_l2", "maxwell", "samples", {"count": 5}),
    ("klauder_brackets", "brackets", "integrator", {"dt": 0.01, "steps": 1}),
    ("quantum_sweep", "quantum", "integrator", {"dt": 0.01, "steps": 1}),
])
def test_block_the_subcommand_never_reads_exits_2(tmp_path, capsys, scenario, command, block,
                                                  value):
    payload = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
    payload[block] = value
    config = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err == \
        f"error: the {command!r} subcommand does not read the {block!r} block\n"
    assert not out.exists()


def test_every_scenario_and_benchmark_input_has_only_blocks_its_command_reads():
    runner = load_module("run_all_scenarios", ROOT / "scripts" / "run_all_scenarios.py")
    configs = [(json.loads((ROOT / "scenarios" / name).read_text()), command)
               for name, command in runner.COMMANDS.items()]
    inputs = load_module("bench_inputs", ROOT / "bench" / "inputs.py")
    configs += [(inputs.scenario(kind, inputs.stream("test", 1)), inputs.COMMAND[kind])
                for kind in inputs.COMMAND]
    for config, command in configs:
        build_model(config, command)  # raises ConfigError on a block the command never reads


@pytest.mark.parametrize("command, payload, path", [
    ("brackets", {"model": {"kind": "particle", "mass": 1.0, "alpha": 5.0}}, "model/alpha"),
    ("brackets", {"model": {"kind": "custom", "labels": ["q", "p"], "side": 2}}, "model/side"),
    ("brackets", {"model": {"kind": "particle"}, "samples": {"r_range": [0.5, 1.0]}},
     "samples/r_range"),
    ("brackets", {"model": {"kind": "custom", "labels": ["q", "p"]},
                  "samples": {"momentum_range": [-1.0, 1.0]}}, "samples/momentum_range"),
    ("evolve", {"model": {"kind": "klauder"},
                "flow": {"kind": "dirac", "hamiltonian": [{"coeff": 1.0, "powers": [2, 0, 0, 0]}]},
                "integrator": {"dt": 0.01, "steps": 1}, "initial": {"surface": {"p_phi": 1.0}}},
     "flow/hamiltonian"),
    ("evolve", {"model": {"kind": "particle"},
                "flow": {"kind": "poisson", "hamiltonian": []},
                "integrator": {"dt": 0.01, "steps": 1},
                "initial": {"x": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 0.0]}}, "flow/hamiltonian"),
    ("evolve", {"model": {"kind": "particle"}, "flow": {"kind": "poisson"},
                "integrator": {"dt": 0.01, "steps": 1},
                "initial": {"x": [0.0, -1.0, 2.0], "p": [3.0, 0.0, 0.0],
                            "surface": {"p_phi": 1.0}}}, "initial/surface"),
    ("evolve", {"model": {"kind": "klauder"}, "flow": {"kind": "dirac"},
                "integrator": {"dt": 0.01, "steps": 1},
                "initial": {"surface": {"p_phi": 2.0}, "x": [0.0, 0.0, 0.0]}}, "initial/x"),
    ("evolve", {"model": {"kind": "klauder"}, "flow": {"kind": "dirac"},
                "integrator": {"dt": 0.01, "steps": 1},
                "initial": {"surface": {"p_phi": 2.0}, "p": [1.0, 0.0, 0.0]}}, "initial/p"),
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"]}, "flow": {"kind": "poisson"},
                "integrator": {"dt": 0.01, "steps": 1},
                "initial": {"coords": [1.0, 0.0], "surface": {"p_phi": 1.0}}}, "initial/surface"),
    # of two keys of other kinds, the first in schema order
    ("evolve", {"model": {"kind": "custom", "labels": ["q", "p"], "mass": 1.0},
                "flow": {"kind": "poisson"}, "integrator": {"dt": 0.01, "steps": 1},
                "initial": {"surface": {"p_phi": 1.0}}}, "model/mass"),
])
def test_key_of_another_model_kind_exits_2(tmp_path, capsys, command, payload, path):
    config = write_config(tmp_path / "cfg.json", payload)
    assert run_cli(command, "--config", config, "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} is read by ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("command, payload, message", UNREAD_KEY_CASES)
def test_unread_key_exits_2_before_any_model_work(tmp_path, capsys, monkeypatch, command,
                                                  payload, message):
    config = write_config(tmp_path / "cfg.json", payload)
    refuse_model_work(monkeypatch)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    with pytest.raises(ConfigError, match=message):  # from the model builder, before a model
        build_model(payload, command)


def refuse_model_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("model work ran")

    for target in ("diracmech.models.LatticeMaxwell.projector_residuals",
                   "diracmech.circle.SpectrumTable.build", "diracmech.cli.evolve",
                   "diracmech.cli.dirac_tensor"):
        monkeypatch.setattr(target, refuse)


# (scenario file, subcommand, the needed block removed, today's message, model/side)
MISSING_BLOCK_CASES = [
    ("klauder_brackets", "brackets", "model", "scenario needs a 'model' block", None),
    ("gauge_orbit", "evolve", "model", "scenario needs a 'model' block", None),
    ("gauge_orbit", "evolve", "flow", "scenario needs a 'flow' block", None),
    ("gauge_orbit", "evolve", "integrator", "scenario needs an 'integrator' block", None),
    ("quantum_sweep", "quantum", "model", "scenario needs a 'model' block", None),
    ("quantum_sweep", "quantum", "quantum", "scenario needs a 'quantum' block", None),
    ("maxwell_l2", "maxwell", "model", "scenario needs a 'model' block", None),
    ("maxwell_l2", "maxwell", "integrator", "scenario needs an 'integrator' block", None),
    ("maxwell_l2", "maxwell", "integrator", "scenario needs an 'integrator' block", 64),
]


@pytest.mark.parametrize("scenario, command, block, message, side", MISSING_BLOCK_CASES)
def test_missing_needed_block_exits_2_before_any_model_work(tmp_path, capsys, monkeypatch,
                                                            scenario, command, block, message,
                                                            side):
    payload = json.loads((ROOT / "scenarios" / f"{scenario}.json").read_text())
    if side is not None:
        payload["model"]["side"] = side
    del payload[block]
    config = write_config(tmp_path / "cfg.json", payload)
    refuse_model_work(monkeypatch)
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_missing_block_cases_cover_every_needed_block():
    tested = {(command, block) for _, command, block, _, _ in MISSING_BLOCK_CASES}
    assert tested == {(command, block) for command, spec in COMMANDS.items()
                      for block in spec["needs"]}


SMALL_RUNS = {
    "brackets": {"model": {"kind": "klauder"}, "samples": {"count": 2}},
    "evolve": {"model": {"kind": "klauder", "k": 0.0}, "flow": {"kind": "gauge"},
               "integrator": {"dt": 0.01, "steps": 2}, "initial": {"coords": [1.0, 0.0, 1.0, 0.0]}},
    "quantum": {"model": {"kind": "klauder"},
                "quantum": {"m_max": 2, "single_mode": 1, "times": [0.0]}},
    "maxwell": {"model": {"kind": "maxwell", "side": 2}, "integrator": {"dt": 0.01, "steps": 2}},
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_artifact_path_exits_2_with_one_error_line(tmp_path, capsys, command, fmt):
    config = write_config(tmp_path / "cfg.json", SMALL_RUNS[command])
    assert run_cli(command, "--config", config, "--out", str(tmp_path), "--format", fmt) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write artifact {str(tmp_path)!r}: ")
    assert err.count("\n") == 1


def test_artifact_parent_that_cannot_be_made_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub" / "table.csv"
    config = write_config(tmp_path / "cfg.json", SMALL_RUNS["brackets"])
    assert run_cli("brackets", "--config", config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write artifact {str(out)!r}: ") and err.count("\n") == 1


def test_unwritable_partial_trajectory_exits_2(tmp_path, capsys):
    # the degenerate orbit of test_evolve_degeneracy_exits_3, its partial rows unwritable
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": [0.05, -1.0]},
        "flow": {"kind": "dirac"},
        "integrator": {"dt": 0.001, "steps": 2000},
        "initial": {"surface": {"phi": 0.0, "p_phi": 0.0}},
    })
    assert run_cli("evolve", "--config", config, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write artifact {str(tmp_path)!r}: ")
    assert err.count("\n") == 1


def test_evolve_unrecordable_step_count_exits_2(tmp_path, capsys):
    # 2^62 + 1 rows is past numpy's size limit, so nothing is allocated
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": 1.0},
        "flow": {"kind": "dirac"},
        "integrator": {"dt": 0.001, "steps": 2 ** 62},
        "initial": {"surface": {"p_phi": 1.0}},
    })
    out = tmp_path / "t.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot record {2 ** 62 + 1} states of 4 coordinates: ")
    assert not out.exists()


def test_evolve_zero_steps_single_row(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": 1.0},
        "flow": {"kind": "dirac"},
        "integrator": {"dt": 0.001, "steps": 0},
        "initial": {"surface": {"p_phi": 1.0}},
    })
    out = tmp_path / "one.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert len([r for r in rows if r[0] != "drift"]) == 1


def test_evolve_degeneracy_exits_3(tmp_path):
    # ramping k through zero with p_phi = 0 drives the pairing det to zero
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": [0.05, -1.0]},
        "flow": {"kind": "dirac"},
        "integrator": {"dt": 0.001, "steps": 2000},
        "initial": {"surface": {"phi": 0.0, "p_phi": 0.0}},
    })
    out = tmp_path / "partial.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 3
    _, rows = read_csv(out)  # last good steps were recorded
    assert len(rows) >= 1


# -- quantum --------------------------------------------------------------------

def test_quantum_single_mode_phi_is_pi(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": 1.0, "potential": {"type": "poly", "coeffs": [0, 1]}},
        "quantum": {"m_max": 3, "single_mode": 1,
                    "times": {"start": 0.0, "stop": 5.0, "count": 6}},
    })
    out = tmp_path / "quantum.csv"
    assert run_cli("quantum", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    phi_col = header.index("phi_mean_analytic")
    norm_col = header.index("norm")
    for row in rows:
        assert float(row[phi_col]) == pytest.approx(math.pi, abs=1e-12)
        assert float(row[norm_col]) == pytest.approx(1.0, abs=1e-12)


def test_quantum_two_mode_oscillates_and_matches_quadrature(tmp_path):
    coeffs = [[0.0, 0.0]] * 3 + [[1.0, 0.0], [1.0, 0.0]] + [[0.0, 0.0]] * 2
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": 1.0, "potential": {"type": "poly", "coeffs": [0, 1]}},
        "quantum": {"m_max": 3, "coeffs": coeffs,
                    "times": [0.0, 0.5, 1.0, 1.5]},
    })
    out = tmp_path / "quantum2.csv"
    assert run_cli("quantum", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    phi_a = header.index("phi_mean_analytic")
    phi_q = header.index("phi_mean_quadrature")
    values = [float(r[phi_a]) for r in rows]
    assert max(values) - min(values) > 1e-3  # nontrivial time evolution
    for row in rows:
        assert float(row[phi_a]) == pytest.approx(float(row[phi_q]), abs=1e-6)


def test_quantum_time_dependent_matches_library(tmp_path):
    coeffs = [[0.0, 0.0]] * 2 + [[1.0, 0.0], [0.0, 1.0], [0.5, 0.0]] + [[0.0, 0.0]] * 2
    times = [0.0, 0.4, 1.3]
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": [0.5, -1.0],
                  "potential": {"type": "poly", "coeffs": [0, 1]}},
        "quantum": {"m_max": 3, "coeffs": coeffs, "times": times},
    })
    out = tmp_path / "tdep.csv"
    assert run_cli("quantum", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    model = KlauderModel(k=KRamp(0.5, -1.0), potential=RadialPotential((0.0, 1.0)))
    state = CircleState(np.array([complex(re, im) for re, im in coeffs])).normalized()
    for t, row in zip(times, rows):
        evolved = evolve_time_dependent(state, model, 0.0, t) if t else state
        table = SpectrumTable.build(model, 3, t=t)
        assert float(row[header.index("norm")]) == pytest.approx(1.0, abs=1e-14)
        assert float(row[header.index("phi_mean_analytic")]) == expect_phi(evolved, table, 0.0).value
        assert float(row[header.index("r_mean")]) == expect_reduced(evolved, table).r_mean
        assert float(row[header.index("pr_mean")]) == expect_reduced(evolved, table).pr_mean
    # p_r* = k(t) / r* changes sign with k(t) = 0.5 - t
    assert float(rows[-1][header.index("pr_mean")]) < 0.0


def test_quantum_bad_coeffs_exit_2(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder"},
        "quantum": {"m_max": 2, "coeffs": [[0.0, 0.0]] * 5, "times": [0.0]},
    })
    assert run_cli("quantum", "--config", config) == 2


def test_quantum_json_format(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": 1.0, "potential": {"type": "poly", "coeffs": [0, 1]}},
        "quantum": {"m_max": 2, "single_mode": 0, "times": [0.0, 1.0]},
    })
    out = tmp_path / "quantum.json"
    assert run_cli("quantum", "--config", config, "--out", str(out),
                   "--format", "json") == 0
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "t"
    assert len(payload["rows"]) == 2


# -- maxwell --------------------------------------------------------------------

def test_maxwell_artifact(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "maxwell", "side": 2},
        "integrator": {"dt": 0.001, "steps": 200},
    })
    out = tmp_path / "mx.csv"
    assert run_cli("maxwell", "--config", config, "--out", str(out)) == 0
    header, rows = read_csv(out)
    assert header == ["t", "energy", "gauss_residual", "transverse_residual"]
    checks = {r[1]: float(r[2]) for r in rows if r[0] == "check"}
    assert checks["projector_idempotency"] < 1e-10
    assert checks["dirac_vs_projector"] < 1e-8
    data = [r for r in rows if r[0] != "check"]
    energies = [float(r[1]) for r in data]
    assert max(energies) - min(energies) < 1e-8 * max(1.0, energies[0])


def test_maxwell_unrecordable_step_count_exits_2(tmp_path, capsys):
    # the spectral route records through the same guard as a chart flow
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "maxwell", "side": 2},
        "integrator": {"dt": 0.001, "steps": 2 ** 62},
    })
    out = tmp_path / "mx.csv"
    assert run_cli("maxwell", "--config", config, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot record {2 ** 62 + 1} states of 48 coordinates: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_maxwell_requires_maxwell_model(tmp_path):
    config = write_config(tmp_path / "cfg.json", {"model": {"kind": "klauder"}})
    assert run_cli("maxwell", "--config", config) == 2


# -- verify ----------------------------------------------------------------------

def test_verify_single_suite_passes(capsys):
    assert run_cli("verify", "core") == 0
    out = capsys.readouterr().out
    assert "PASS core.canonical_relations" in out


def test_verify_fault_injection_fails(capsys):
    assert run_cli("verify", "klauder", "--inject-fault", "klauder.bracket_table") == 1
    out = capsys.readouterr().out
    assert "FAIL klauder.bracket_table" in out


def test_verify_fault_injection_short_id_fails(capsys):
    assert run_cli("verify", "core", "--inject-fault", "canonical_relations") == 1
    assert "FAIL core.canonical_relations" in capsys.readouterr().out


@pytest.mark.parametrize("suite, check_id", [("core", "core.bogus"),
                                             ("core", "klauder.bracket_table")])
def test_verify_unknown_fault_id_exits_2(capsys, suite, check_id):
    assert run_cli("verify", suite, "--inject-fault", check_id) == 2
    captured = capsys.readouterr()
    assert "names no check" in captured.err and "checks passed" not in captured.out


def test_verify_accepts_every_check_id_it_reports():
    # --inject-fault takes the ids of verify._CHECK_IDS (and their short forms)
    assert [result.check_id for result in verify.run_suite("all")] == list(verify._CHECK_IDS)


@pytest.mark.parametrize("suite, check_id", [
    ("maxwell", "maxwell.evolution"), ("particle", "particle.bracket_suite"),
    ("particle", "particle.trajectory"),
    # every other check, in the order verify runs them
    *((check_id.partition(".")[0], check_id) for check_id in verify._CHECK_IDS
      if check_id not in ("maxwell.evolution", "particle.bracket_suite", "particle.trajectory"))])
def test_verify_fault_fails_the_named_check_alone(capsys, suite, check_id):
    assert run_cli("verify", suite, "--inject-fault", check_id) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith(f"FAIL {check_id}: ")
    checks = len(verify.SUITES[suite])
    assert lines[-1] == f"{checks - 1}/{checks} checks passed"


def test_verify_parser_lists_the_suites_of_the_verify_module(capsys):
    assert cli._SUITES == tuple(available_suites())
    with pytest.raises(SystemExit) as exit_info:
        run_cli("verify", "-h")
    assert exit_info.value.code == 0
    assert "{" + ",".join(available_suites()) + "}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exit_info:
        run_cli("verify", "bogus")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument suite: invalid choice: 'bogus'" in err
    assert all(repr(suite) in err for suite in available_suites())


def test_cli_import_loads_neither_verify_nor_circle():
    code = ("import sys, diracmech.cli; print(sorted(name for name in sys.modules "
            "if name in ('diracmech.verify', 'diracmech.circle')))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ("brackets", "--config", "scenarios/klauder_brackets.json", "--seed", "-1"),
    ("verify", "core", "--seed", "-5"),
])
def test_negative_seed_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "non-negative integer" in err and "Traceback" not in err


# -- threads ----------------------------------------------------------------------

def test_main_builds_its_parser_at_the_first_call_and_only_then(tmp_path):
    code = "import diracmech.cli; print(diracmech.cli._parser.cache_info().misses)"
    done = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout == "0\n"  # the import builds no parser
    cli._parser.cache_clear()
    config = write_config(tmp_path / "cfg.json", {"model": {"kind": "klauder"},
                                                  "samples": {"count": 1}})
    for _ in range(3):
        assert run_cli("brackets", "--config", config, "--out", str(tmp_path / "t.csv")) == 0
    assert cli._parser.cache_info()[:2] == (2, 1)  # hits, misses


THREADED_RUNS = [
    ("brackets", {"seed": 5, "model": {"kind": "klauder", "alpha": 1.3, "k": 0.7},
                  "samples": {"count": 60}}),
    ("brackets", {"seed": 6, "model": {"kind": "particle", "spatial_dim": 2},
                  "samples": {"count": 30}}),
    ("evolve", {"model": {"kind": "klauder", "k": 0.0},
                "flow": {"kind": "gauge", "multiplier": 1.0},
                "integrator": {"dt": 0.001, "steps": 200},
                "initial": {"coords": [1.0, 0.0, 1.0, 0.0]}}),
    ("evolve", {"model": {"kind": "klauder", "k": [0.5, 1.0],
                          "potential": {"type": "poly", "coeffs": [0.0, 0.0, 0.5]}},
                "flow": {"kind": "dirac"}, "integrator": {"dt": 0.001, "steps": 200},
                "initial": {"surface": {"phi": 0.0, "p_phi": 2.0}}}),
]


def test_concurrent_main_calls_write_the_bytes_of_their_serial_runs(tmp_path):
    # 8 threads, each run twice in CSV and JSON, race for the first parser build and for the
    # first build of each model, its fields and traces, and then share them; a thread switch
    # every microsecond interleaves them
    jobs = []
    for j, (command, payload) in enumerate(THREADED_RUNS * 2):
        config = write_config(tmp_path / f"cfg{j}.json", payload)
        jobs.append([command, "--config", config, "--format", ("csv", "json")[j // 4]])
    for j, argv in enumerate(jobs):
        assert main([*argv, "--out", str(tmp_path / f"serial{j}")]) == 0
    serial = [(tmp_path / f"serial{j}").read_bytes() for j in range(len(jobs))]
    codes = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def run(j):
        barrier.wait(timeout=60)
        codes[j] = main([*jobs[j], "--out", str(tmp_path / f"thread{j}")])

    cli._parser.cache_clear()
    cli._model.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == [0] * len(jobs)
    assert [(tmp_path / f"thread{j}").read_bytes() for j in range(len(jobs))] == serial

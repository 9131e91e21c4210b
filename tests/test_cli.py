import csv
import json
import math
import warnings

import numpy as np
import pytest
from jsonschema.validators import validator_for

from diracmech.brackets import poisson_bracket
from diracmech.circle import (CircleState, SpectrumTable, evolve_time_dependent,
                              expect_phi, expect_reduced)
from diracmech.cli import SCENARIO_SCHEMA, build_model, main
from diracmech.fields import coordinate_field
from diracmech.models import KlauderModel, KRamp, RadialPotential
from diracmech.dynamics import gauge_orbit_closed_form


def run_cli(*argv):
    return main(list(argv))


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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
    # RK4 is the one scheme: the schema, not the integrator, rejects any other
    ({"model": {"kind": "klauder"}, "integrator": {"dt": 0.1, "steps": 5, "scheme": "euler"}},
     "invalid config at integrator/scheme: 'rk4' was expected"),
])
def test_invalid_config_message(tmp_path, capsys, config, message):
    assert run_cli("brackets", "--config", write_config(tmp_path / "cfg.json", config)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integrator_scheme_rk4_loads(tmp_path):
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "alpha": 1.0, "k": 0.0}, "flow": {"kind": "gauge"},
        "integrator": {"dt": 0.01, "steps": 3, "scheme": "rk4"},
        "initial": {"coords": [1.0, 0.0, 1.0, 0.0]}})
    out = tmp_path / "traj.csv"
    assert run_cli("evolve", "--config", config, "--out", str(out)) == 0
    assert len(read_csv(out)[1]) == 4 + 1  # four states and the drift footer row


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


@pytest.mark.parametrize("k, time_dependent", [([1.0, 1e308], True), (1e200, False)])
def test_quantum_overflowing_spectrum_exits_3(tmp_path, capsys, k, time_dependent):
    # k^2 overflows although k(t) is finite on the sweep
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "klauder", "k": k, "potential": {"type": "poly", "coeffs": [0, 1]}},
        "quantum": {"m_max": 2, "single_mode": 1, "times": [0.0, 0.5],
                    "time_dependent": time_dependent}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy overflow warnings would reach stderr
        code = run_cli("quantum", "--config", config, "--out", str(tmp_path / "q.csv"))
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: non-finite reduced spectrum: r*^4 or U(r*) overflows"]


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


@pytest.mark.parametrize("command, model, flow", [
    ("evolve", {"kind": "particle", "mass": 1.0}, {"kind": "dirac"}),
    ("brackets", {"kind": "maxwell", "side": 2}, None),
    ("evolve", {"kind": "maxwell", "side": 2}, {"kind": "poisson"}),
    ("quantum", {"kind": "particle", "mass": 1.0}, None),
])
def test_command_rejects_unsupported_model_or_flow(tmp_path, command, model, flow):
    payload = {"model": model, "integrator": {"dt": 0.01, "steps": 1},
               "initial": {"x": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 0.0]},
               "quantum": {"single_mode": 0, "times": [0.0]}}
    if flow is not None:
        payload["flow"] = flow
    config = write_config(tmp_path / "cfg.json", payload)
    assert run_cli(command, "--config", config, "--out", str(tmp_path / "out.csv")) == 2


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
])
def test_key_of_another_model_kind_exits_2(tmp_path, capsys, command, payload, path):
    config = write_config(tmp_path / "cfg.json", payload)
    assert run_cli(command, "--config", config, "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err.startswith(f"error: {path} is read by ")
    assert not (tmp_path / "out.csv").exists()


def test_evolve_projection_without_constraints_exits_2(tmp_path, capsys):
    # a particle flow watches no constraints, so a projection would be ignored
    config = write_config(tmp_path / "cfg.json", {
        "model": {"kind": "particle", "mass": 1.0}, "flow": {"kind": "poisson"},
        "integrator": {"dt": 0.01, "steps": 10, "projection": {"tol": 1e-10}},
        "initial": {"x": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 0.0]}})
    assert run_cli("evolve", "--config", config, "--out", str(tmp_path / "t.csv")) == 2
    assert "Newton projection needs constraints" in capsys.readouterr().err


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
        "quantum": {"m_max": 3, "coeffs": coeffs, "times": times, "time_dependent": True},
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

"""Scenario runner: bracket tables, flows, quantum sweeps, lattice checks.

One JSON scenario per file, validated against a strict schema (unknown keys
rejected). Sampling is driven by numpy's seeded PCG64 generator so a fixed
(config, seed) pair reproduces every table bit for bit. Floats are printed
with 17 significant digits for round-trip exactness.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from .brackets import poisson_tensor
from .circle import (CircleState, SpectrumTable, evolve_time_dependent,
                     expect_cartesian, expect_phi, expect_phi_quadrature, expect_reduced)
from .constraints import dirac_bracket, dirac_tensor
from .dynamics import IntegratorConfig, NewtonProjection, constraint_drift, evolve
from .errors import (ConfigError, DegeneracyError, NumericDomainError,
                     UsageError)
from .fields import coordinate_field
from .models import CustomModel, KlauderModel, KRamp, LatticeMaxwell, RelativisticParticle
from .verify import DEFAULT_SEED, available_suites, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3

def _strict(properties: dict, *required: str) -> dict:
    """A JSON-schema object that rejects unknown keys."""
    schema = {"type": "object", "properties": properties}
    if required:
        schema["required"] = list(required)
    schema["additionalProperties"] = False
    return schema


_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_NUMBERS = {"type": "array", "items": _NUMBER}
_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_POLY = _strict({"type": {"const": "poly"}, "coeffs": _NUMBERS}, "type", "coeffs")
_TERMS = {"type": "array", "items": _strict(
    {"coeff": _NUMBER, "powers": {"type": "array", "items": {"type": "integer", "minimum": 0}}},
    "coeff", "powers")}

SCENARIO_SCHEMA = _strict({
    "seed": {"type": "integer", "minimum": 0},
    "output": _strict({"path": {"type": "string"}, "format": {"enum": ["csv", "json"]}}),
    "model": _strict({
        "kind": {"enum": ["klauder", "particle", "maxwell", "custom"]},
        "alpha": _POSITIVE,
        "k": {"oneOf": [_NUMBER, _PAIR]},
        "hbar": _POSITIVE,
        "potential": _POLY,
        "mass": _POSITIVE,
        "spatial_dim": {"type": "integer", "minimum": 1},
        "side": {"type": "integer", "minimum": 2},
        "spacing": _POSITIVE,
        "labels": {"type": "array", "items": {"type": "string"}},
        "constraints": {"type": "array", "items": _strict(
            {"name": {"type": "string"}, "terms": _TERMS}, "name", "terms")},
    }, "kind"),
    "samples": _strict({"count": {"type": "integer", "minimum": 1},
                        "r_range": _PAIR, "momentum_range": _PAIR}),
    "flow": _strict({
        "kind": {"enum": ["poisson", "dirac", "gauge"]},
        "hamiltonian": _TERMS,
        "multiplier": {"oneOf": [_NUMBER, _POLY]},
    }, "kind"),
    "integrator": _strict({
        "dt": _POSITIVE,
        "steps": {"type": "integer", "minimum": 0},
        "scheme": {"const": "rk4"},
        "projection": _strict({"tol": _POSITIVE, "max_iter": {"type": "integer", "minimum": 1}}),
    }, "dt", "steps"),
    "initial": _strict({
        "coords": _NUMBERS,
        "surface": _strict({"phi": _NUMBER, "p_phi": _NUMBER}, "p_phi"),
        "x": _NUMBERS,
        "p": _NUMBERS,
    }),
    "quantum": _strict({
        "m_max": {"type": "integer", "minimum": 1},
        "coeffs": {"type": "array", "items": _PAIR},
        "single_mode": {"type": "integer"},
        "times": {"oneOf": [_NUMBERS, _strict(
            {"start": _NUMBER, "stop": _NUMBER, "count": {"type": "integer", "minimum": 1}},
            "start", "stop", "count")]},
        "time_dependent": {"type": "boolean"},
        "quadrature_steps": {"type": "integer", "minimum": 2},
    }, "times"),
    "maxwell": _strict({
        "initial": {"enum": ["lowest_mode", "random"]},
        "e_scale": {"type": "number", "minimum": 0},
    }),
})

# built once: jsonschema.validate would check the schema against its
# metaschema on every call (tests/test_cli.py checks it once)
_BASE = validator_for(SCENARIO_SCHEMA)
# JSON Schema counts 2.0 as an integer, but the sizes and counts here index and
# range over Python ints
_INTEGERS = _BASE.TYPE_CHECKER.redefine(
    "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
_VALIDATOR = extend(_BASE, type_checker=_INTEGERS)(SCENARIO_SCHEMA)


def _reject_constant(name: str):
    # Python's json accepts NaN, Infinity and -Infinity; JSON (RFC 8259) does not
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str) -> dict:
    try:
        with open(path) as handle:
            config = json.load(handle, parse_constant=_reject_constant)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except ValueError as err:  # JSONDecodeError, undecodable bytes, NaN/Infinity
        raise ConfigError(f"malformed JSON in {path!r}: {err}") from err
    err = best_match(_VALIDATOR.iter_errors(config))
    if err is not None:
        location = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"invalid config at {location}: {err.message}") from err
    return config


# the model kinds each subcommand runs; build_model is the only kind dispatch
COMMAND_KINDS = {
    "brackets": ("klauder", "particle", "custom"),
    "evolve": ("klauder", "particle", "custom"),
    "quantum": ("klauder",),
    "maxwell": ("maxwell",),
}


# the keys only one model kind reads; under another kind they are rejected, not ignored
KIND_KEYS = {
    "klauder": ("model/alpha", "model/k", "model/hbar", "model/potential",
                "samples/r_range", "samples/momentum_range"),
    "particle": ("model/mass", "model/spatial_dim"),
    "maxwell": ("model/side", "model/spacing"),
    "custom": ("model/labels", "model/constraints", "flow/hamiltonian"),
}


def build_model(config: dict, command: str):
    block = config.get("model")
    if block is None:
        raise ConfigError("scenario needs a 'model' block")
    kind = block["kind"]
    if kind not in COMMAND_KINDS[command]:
        raise ConfigError(f"the {command!r} subcommand runs {', '.join(COMMAND_KINDS[command])} "
                          f"models, not {kind!r}")
    for other, paths in KIND_KEYS.items():
        if other == kind:
            continue
        for path in paths:
            section, key = path.split("/")
            if key in config.get(section, {}):
                raise ConfigError(f"{path} is read by {other} models only, not by {kind!r}")
    if kind == "klauder":
        k = block.get("k", 1.0)
        return KlauderModel(alpha=block.get("alpha", 1.0),
                            k=KRamp(*k) if isinstance(k, list) else k, hbar=block.get("hbar", 1.0),
                            potential=block.get("potential", {}).get("coeffs", ()))
    if kind == "particle":
        return RelativisticParticle(mass=block.get("mass", 1.0),
                                    spatial_dim=block.get("spatial_dim", 3))
    if kind == "maxwell":
        return LatticeMaxwell(side=block.get("side", 2), spacing=block.get("spacing", 1.0))
    return CustomModel(labels=tuple(block.get("labels", ())),
                       constraints=tuple((c["name"], _terms(c["terms"]))
                                         for c in block.get("constraints", [])))


def _terms(entries) -> tuple[tuple[float, tuple[int, ...]], ...]:
    return tuple((t["coeff"], tuple(t["powers"])) for t in entries)


def _rng(config: dict, args) -> np.random.Generator:
    return np.random.default_rng(args.seed if args.seed is not None else config.get("seed", 0))


# --------------------------------------------------------------------------
# artifact writing


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_table(path: str, fmt: str, columns: list[str], rows: list[list],
                footer_rows: list[list] | None = None):
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(v) for v in row])
            for row in footer_rows or []:
                writer.writerow([_fmt(v) for v in row])
    else:
        payload = {"columns": columns,
                   "rows": [[v if not isinstance(v, float) else float(_fmt(v)) for v in row]
                            for row in rows]}
        if footer_rows:
            payload["footer"] = [[_fmt(v) for v in row] for row in footer_rows]
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")


def _resolve_output(config, args, default_name):
    block = config.get("output", {})
    path = args.out or block.get("path") or default_name
    fmt = args.format or block.get("format") or "csv"
    return path, fmt


# --------------------------------------------------------------------------
# subcommands


def cmd_brackets(config: dict, args) -> int:
    rng = _rng(config, args)
    model = build_model(config, "brackets")
    ranges = dict(config.get("samples", {}))
    count = ranges.pop("count", 100)
    chart = model.bracket_chart
    coords = {l: coordinate_field(chart, l) for l in chart.labels}
    # {z_a, z_b} = J_ab: the Poisson column is a constant of the chart
    poisson = poisson_tensor(chart.n_pairs).tolist()
    pairs = [(a, b, poisson[chart.index(a)][chart.index(b)]) for a, b in model.bracket_pairs]
    rows = []
    for x in model.sample(rng, count, **ranges):
        cs = model.constraints_at(x)
        dirac = dirac_tensor(cs, x)
        for a, b, pb in pairs:
            db = dirac_bracket(coords[a], coords[b], cs, x, tensor=dirac)
            oracle = model.dirac_oracle((a, b), x)
            rows.append([f"{{{a},{b}}}", *x.coords, pb, db, "" if oracle is None else oracle,
                         "" if oracle is None else abs(db - oracle)])
    columns = ["pair", *chart.labels, "poisson", "dirac", "oracle", "abs_diff"]
    path, fmt = _resolve_output(config, args, "brackets.csv")
    write_table(path, fmt, columns, rows)
    print(f"wrote {len(rows)} bracket rows to {path}")
    return EXIT_OK


def _build_integrator(config: dict) -> IntegratorConfig:
    block = config.get("integrator")
    if block is None:
        raise ConfigError("scenario needs an 'integrator' block")
    projection = None
    if "projection" in block:
        projection = NewtonProjection(**block["projection"])
    return IntegratorConfig(dt=block["dt"], steps=block["steps"], projection=projection)


def _multiplier(value):
    """A constant, or a {"type": "poly"} block as the polynomial lambda(t)."""
    if isinstance(value, dict):
        return np.polynomial.Polynomial(value["coeffs"] or [0.0])
    return value


def _initial_point(block: dict, model, chart):
    if "coords" in block:
        return chart.point(block["coords"])
    surface = block.get("surface", {})
    x0 = model.initial_point(phi=surface.get("phi", 0.0), p_phi=surface.get("p_phi"),
                             x=block.get("x"), p=block.get("p"))
    if x0 is None:
        raise ConfigError("scenario needs an 'initial' block matching the model")
    return x0


def cmd_evolve(config: dict, args) -> int:
    model = build_model(config, "evolve")
    flow_cfg = config.get("flow")
    if flow_cfg is None:
        raise ConfigError("scenario needs a 'flow' block")
    terms = flow_cfg.get("hamiltonian")
    flow, monitor = model.flow(flow_cfg["kind"], _multiplier(flow_cfg.get("multiplier", 1.0)),
                               None if terms is None else _terms(terms))
    cfg = _build_integrator(config)
    x0 = _initial_point(config.get("initial", {}), model, flow.chart)
    path, fmt = _resolve_output(config, args, "trajectory.csv")

    try:
        traj = evolve(x0, flow, cfg, monitor=monitor)
    except DegeneracyError as err:
        if err.partial_trajectory is not None:
            _write_trajectory(path, fmt, err.partial_trajectory)
            print(f"degeneracy hit; wrote {len(err.partial_trajectory)} good steps to {path}",
                  file=sys.stderr)
        raise
    _write_trajectory(path, fmt, traj)
    print(f"wrote {len(traj)} trajectory rows to {path}")
    return EXIT_OK


def _trajectory_rows(traj) -> list[list]:
    """t, the coordinates, one |Phi_I| per residual series and G ("" if unrecorded)."""
    # one tolist() per array gives the Python floats a float() per element would
    residuals = [series.tolist() for series in traj.residuals.values()]
    energy = ([""] * len(traj) if traj.generator_values is None
              else traj.generator_values.tolist())
    return [[t, *z, *rest] for t, z, *rest in
            zip(traj.times.tolist(), traj.states.tolist(), *residuals, energy)]


def _write_trajectory(path, fmt, traj):
    columns = ["t", *traj.chart.labels, *[f"res_{n}" for n in traj.residuals], "H"]
    rows = _trajectory_rows(traj)
    footer = []
    drift = constraint_drift(traj)
    for name, stats in drift.items():
        footer.append(["drift", name, stats.max_residual, stats.growth_rate])
    write_table(path, fmt, columns, rows, footer)


def cmd_quantum(config: dict, args) -> int:
    model = build_model(config, "quantum")
    block = config.get("quantum")
    if block is None:
        raise ConfigError("scenario needs a 'quantum' block")
    m_max = block.get("m_max", 64)
    if "coeffs" in block:
        raw = block["coeffs"]
        if len(raw) != 2 * m_max + 1:
            raise ConfigError(f"need {2 * m_max + 1} coefficients for m_max={m_max}")
        coeffs = np.array([complex(re, im) for re, im in raw])
        if not np.any(coeffs):
            raise ConfigError("all-zero initial coefficients")
        state = CircleState(coeffs, model.hbar).normalized()
    elif "single_mode" in block:
        state = CircleState.single_mode(block["single_mode"], m_max, model.hbar)
    else:
        raise ConfigError("quantum block needs 'coeffs' or 'single_mode'")

    times = block["times"]
    if isinstance(times, dict):
        times = np.linspace(times["start"], times["stop"], times["count"])
    else:
        times = np.asarray(times, dtype=float)
    time_dependent = block.get("time_dependent", False)
    quad_steps = block.get("quadrature_steps", 2048)
    if time_dependent and not isinstance(config["model"].get("k"), list):
        raise ConfigError("time-dependent evolution needs a ramped k: \"k\": [k0, k1]")

    columns = ["t", "r_mean", "pr_mean", "pphi_mean", "phi_mean_analytic",
               "phi_mean_quadrature", "re_xy", "im_xy", "re_pxy", "im_pxy", "norm"]
    rows = []
    static_table = None if time_dependent else SpectrumTable.build(model, m_max)
    for t in times:
        t = float(t)
        if time_dependent:
            evolved = evolve_time_dependent(state, model, 0.0, t, quad_steps) if t else state
            table_t = SpectrumTable.build(model, m_max, t=t)
            phi_t = 0.0  # phases already folded into the state
        else:
            evolved = state
            table_t = static_table
            phi_t = t
        reduced = expect_reduced(evolved, table_t)
        phi_mean = expect_phi(evolved, table_t, phi_t)
        quad = expect_phi_quadrature(evolved, table_t, phi_t, nodes=4096)
        cart = expect_cartesian(evolved, table_t, phi_t)
        rows.append([t, reduced.r_mean, reduced.pr_mean, reduced.pphi_mean,
                     phi_mean.value, quad, cart.xy.real, cart.xy.imag,
                     cart.pxy.real, cart.pxy.imag, evolved.norm_squared()])
    path, fmt = _resolve_output(config, args, "quantum.csv")
    write_table(path, fmt, columns, rows)
    print(f"wrote {len(rows)} expectation rows to {path}")
    return EXIT_OK


def cmd_maxwell(config: dict, args) -> int:
    model = build_model(config, "maxwell")
    rng = _rng(config, args)
    block = config.get("maxwell", {})
    checks = [["check", name, abs(value), ""]
              for name, value in model.projector_residuals().items()]

    if block.get("initial", "lowest_mode") == "lowest_mode":
        a0, _ = model.lowest_standing_mode()
    else:
        a0 = model.random_transverse(rng)
    e0 = model.random_transverse(rng, block.get("e_scale", 0.0)) \
        if block.get("e_scale", 0.0) else np.zeros_like(a0)
    cfg = _build_integrator(config)
    traj = model.evolve(a0, e0, cfg)
    columns = ["t", "energy", "gauss_residual", "transverse_residual"]
    rows = list(zip(traj.times.tolist(), traj.generator_values.tolist(),
                    traj.residuals["gauss"].tolist(), traj.residuals["transverse"].tolist()))
    path, fmt = _resolve_output(config, args, "maxwell.csv")
    write_table(path, fmt, columns, rows, checks)
    print(f"wrote {len(rows)} evolution rows and {len(checks)} checks to {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed if args.seed is not None else DEFAULT_SEED,
                        inject_fault=args.inject_fault)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# --------------------------------------------------------------------------


def _seed(text: str) -> int:
    """argparse type for --seed: PCG64 seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracmech",
        description="Constrained-Hamiltonian scenario runner: bracket tables, "
                    "classification, flows, quantum evolution, invariant verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output artifact path (overrides config)")
        p.add_argument("--seed", type=_seed, help="64-bit seed for PCG64 sampling")
        p.add_argument("--format", choices=["csv", "json"], help="artifact format")

    add_common(sub.add_parser("brackets", help="Poisson/Dirac bracket tables vs oracles"))
    add_common(sub.add_parser("evolve", help="integrate a flow and record residuals"))
    add_common(sub.add_parser("quantum", help="expectation-value sweep on the circle"))
    add_common(sub.add_parser("maxwell", help="lattice projector checks and wave evolution"))

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("suite", nargs="?", default="all", choices=available_suites())
    verify.add_argument("--seed", type=_seed, help="seed for the check sampler")
    verify.add_argument("--inject-fault", metavar="CHECK_ID",
                        help="negative control: shift the named check's oracle so it fails")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        config = load_config(args.config)
        if args.command == "brackets":
            return cmd_brackets(config, args)
        if args.command == "evolve":
            return cmd_evolve(config, args)
        if args.command == "quantum":
            return cmd_quantum(config, args)
        if args.command == "maxwell":
            return cmd_maxwell(config, args)
        raise ConfigError(f"unknown command {args.command!r}")
    except NumericDomainError as err:  # includes DegeneracyError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except UsageError as err:  # includes ConfigError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner: bracket tables, flows, quantum sweeps, lattice checks.

One JSON scenario per file, validated against a strict schema (unknown keys
rejected). Sampling is driven by numpy's seeded PCG64 generator so a fixed
(config, seed) pair reproduces every table bit for bit. Floats are printed
with 17 significant digits (``%.17g``) for round-trip exactness. A CSV artifact
has commas between cells, CRLF line ends and minimal quoting: a cell holding a
comma, a double quote, CR or LF is double-quoted, its double quotes doubled.
A table's body and footer are structured arrays of float64 and str fields, each
written field by field through one formatter. Each subcommand's row of
``COMMANDS`` names the blocks it needs and the other blocks it may read; a
scenario that lacks a needed block or holds one the subcommand never reads is a
config error, raised before anything is computed. So is an artifact path that
cannot be written.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .brackets import poisson_tensor
from .constraints import dirac_tensor
from .dynamics import IntegratorConfig, constraint_drift, evolve
from .errors import (ConfigError, DegeneracyError, NumericDomainError,
                     UsageError)
from .models import CustomModel, KlauderModel, KRamp, LatticeMaxwell, RelativisticParticle

# diracmech.circle and diracmech.verify load in the one subcommand that runs each, so the
# suites of verify.available_suites() are named here for the parser
_SUITES = ("all", "core", "constraints", "klauder", "dynamics", "particle", "maxwell", "quantum")

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
        "quadrature_steps": {"type": "integer", "minimum": 2},
    }, "times"),
    "maxwell": _strict({
        "initial": {"enum": ["lowest_mode", "random"]},
        "e_scale": {"type": "number", "minimum": 0},
    }),
})

# The validator reads the keywords SCENARIO_SCHEMA uses, with JSON Schema's messages,
# and of several violations reports the one jsonschema's best_match picks. 2.0 is not an
# integer (the sizes and counts here index and range over Python ints), a bool no number,
# and a number past the float range (an integer literal of 400 digits, or 1e400, which
# json reads as inf) is a violation of its type: no float holds it.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}


def _is(value, name: str) -> bool:
    return isinstance(value, _TYPES[name]) and not isinstance(value, bool)


def _violations(value, schema: dict, path: tuple = ()) -> list[tuple]:
    """(path, keyword, message, typed, context) per violation, in jsonschema's order;
    ``typed`` says the value has its schema's type, ``context`` holds a oneOf's
    violations with paths relative to it."""
    typed = "type" in schema and _is(value, schema["type"])
    found = []

    def fail(keyword, message, context=()):
        found.append((path, keyword, message, typed, context))

    for keyword, rule in schema.items():
        if keyword == "type" and not typed:
            fail(keyword, f"{value!r} is not of type {rule!r}")
        elif keyword == "type" and rule == "number" and not abs(value) <= sys.float_info.max:
            fail(keyword, "number is beyond the float range")
        elif keyword == "properties" and _is(value, "object"):
            for key, sub in rule.items():
                if key in value:
                    found += _violations(value[key], sub, path + (key,))
        elif keyword == "required" and _is(value, "object"):
            for key in rule:
                if key not in value:
                    fail(keyword, f"{key!r} is a required property")
        elif keyword == "additionalProperties" and _is(value, "object"):
            extras = sorted(key for key in value if key not in schema["properties"])
            if extras:
                fail(keyword, "Additional properties are not allowed (%s %s unexpected)"
                     % (", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"))
        elif keyword == "items" and _is(value, "array"):
            for index, item in enumerate(value):
                found += _violations(item, rule, path + (index,))
        # jsonschema's words for the only array bounds, _PAIR's 2 and 2 (a minItems of 1
        # or a maxItems of 0 would read otherwise)
        elif keyword == "minItems" and _is(value, "array") and len(value) < rule:
            fail(keyword, f"{value!r} is too short")
        elif keyword == "maxItems" and _is(value, "array") and len(value) > rule:
            fail(keyword, f"{value!r} is too long")
        elif keyword == "minimum" and _is(value, "number") and value < rule:
            fail(keyword, f"{value!r} is less than the minimum of {rule!r}")
        elif keyword == "exclusiveMinimum" and _is(value, "number") and value <= rule:
            fail(keyword, f"{value!r} is less than or equal to the minimum of {rule!r}")
        elif keyword == "enum" and value not in rule:  # the enums are all strings
            fail(keyword, f"{value!r} is not one of {rule!r}")
        elif keyword == "const" and value != rule:
            fail(keyword, f"{rule!r} was expected")
        elif keyword == "oneOf":  # the branches exclude each other: at most one matches
            context = []
            for branch in rule:
                errors = _violations(value, branch)
                if not errors:
                    break
                context += errors
            else:
                fail(keyword, f"{value!r} is not valid under any of the given schemas", context)
    return found


def _relevance(violation):
    """jsonschema's relevance: the maximum is the shallowest, then the greatest path, not a
    oneOf, a type mismatch; of equals the first found."""
    path, keyword, _, typed, _ = violation
    return -len(path), path, keyword != "oneOf", not typed


def _best_violation(config) -> tuple[str, str] | None:
    """(location, message) of jsonschema's best_match among the violations, or None:
    the most relevant one, where a oneOf gives way to its least relevant violation
    unless the two least relevant tie."""
    best = max(_violations(config, SCENARIO_SCHEMA), key=_relevance, default=None)
    if best is None:
        return None
    path = best[0]
    while best[4]:
        first, *second = sorted(best[4], key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        best = first
        path += best[0]
    return "/".join(map(str, path)) or "<root>", best[2]


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
    violation = _best_violation(config)
    if violation is not None:
        raise ConfigError("invalid config at %s: %s" % violation)
    return config


# the keys only one model kind reads; under another kind they are rejected, not ignored
KIND_KEYS = {
    "klauder": ("model/alpha", "model/k", "model/hbar", "model/potential",
                "samples/r_range", "samples/momentum_range", "initial/surface"),
    "particle": ("model/mass", "model/spatial_dim", "initial/x", "initial/p"),
    "maxwell": ("model/side", "model/spacing"),
    "custom": ("model/labels", "model/constraints", "flow/hamiltonian"),
}

# the keys a block leaves unread beside the one it reads first; rejected, not ignored
UNREAD_BESIDE = {"quantum/coeffs": ("single_mode",), "initial/coords": ("surface", "x", "p")}


def build_model(config: dict, command: str):
    """The scenario's model, once the scenario passes the command's row of COMMANDS,
    KIND_KEYS and UNREAD_BESIDE on every call; a kept model for an equal model block."""
    spec = COMMANDS[command]
    for name in spec["needs"]:
        if name not in config:
            raise ConfigError(f"scenario needs {'an' if name[0] in 'aeiou' else 'a'} "
                              f"{name!r} block")
    for name in config:
        if name not in ("seed", "output", *spec["needs"], *spec["reads"]):
            raise ConfigError(f"the {command!r} subcommand does not read the {name!r} block")
    block = config["model"]
    kind = block["kind"]
    if kind not in spec["kinds"]:
        raise ConfigError(f"the {command!r} subcommand runs {', '.join(spec['kinds'])} "
                          f"models, not {kind!r}")
    for other, paths in KIND_KEYS.items():
        if other == kind:
            continue
        for path in paths:
            section, key = path.split("/")
            if key in config.get(section, {}):
                raise ConfigError(f"{path} is read by {other} models only, not by {kind!r}")
    flow = config.get("flow", {})
    if "multiplier" in flow and flow["kind"] != "gauge":
        raise ConfigError(f"flow/multiplier is read by gauge flows only, not by {flow['kind']!r}")
    for path, others in UNREAD_BESIDE.items():
        section, key = path.split("/")
        for other in others:
            if key in config.get(section, {}) and other in config[section]:
                raise ConfigError(f"{section}/{other} is read without {path} only, not with it")
    return _model(json.dumps(block, sort_keys=True))


# models kept, least recently used dropped first: the 14 the scenarios build keep 0.19 MB, the
# L=8 lattice's neighbour tables and symbol 0.11 MB of it; a benchmark workload builds <= 4
_MODELS_KEPT = 16


@functools.lru_cache(maxsize=_MODELS_KEPT)
def _model(key: str):
    """The frozen model of a validated model block's JSON text, which tells 1 from 1.0 and -0.0
    from 0.0; the only kind dispatch. A repeated op reuses a kept model's fields and traces."""
    block = json.loads(key)
    kind = block["kind"]
    if kind == "klauder":
        k = block.get("k", 1.0)
        return KlauderModel(alpha=block.get("alpha", 1.0),
                            k=KRamp(*k) if isinstance(k, list) else k, hbar=block.get("hbar", 1.0),
                            potential=block.get("potential", {}).get("coeffs", ()))
    if kind == "particle":
        spatial_dim = block.get("spatial_dim", 3)
        with _sized_by("model/spatial_dim"):  # the 2(d + 1) coordinates, before their labels
            np.empty(2 * (spatial_dim + 1))
        return RelativisticParticle(mass=block.get("mass", 1.0), spatial_dim=spatial_dim)
    if kind == "maxwell":
        return LatticeMaxwell(side=block.get("side", 2), spacing=block.get("spacing", 1.0))
    return CustomModel(labels=tuple(block.get("labels", ())),
                       constraints=tuple((c["name"], _terms(c["terms"]))
                                         for c in block.get("constraints", [])))


def _terms(entries) -> tuple[tuple[float, tuple[int, ...]], ...]:
    return tuple((t["coeff"], tuple(t["powers"])) for t in entries)


@contextmanager
def _sized_by(key: str):
    """Reports an array too large to allocate as a config error on ``key``: numpy
    raises MemoryError, or past its own size limit a ValueError."""
    try:
        yield
    except UsageError:
        raise
    except (MemoryError, ValueError):
        raise ConfigError(f"{key} is too large: its arrays cannot be allocated") from None


def _rng(config: dict, args) -> np.random.Generator:
    return np.random.default_rng(args.seed if args.seed is not None else config.get("seed", 0))


# --------------------------------------------------------------------------
# artifact writing


def _text(value) -> str:
    """A JSON footer cell: a float to 17 significant digits, anything else by str."""
    return "%.17g" % value if isinstance(value, float) else str(value)


_QUOTED = frozenset(',"\r\n')


def _cells(column: np.ndarray) -> list[str]:
    """A field's CSV cells, each distinct cell formatted once and shared by its rows: a float64
    field keyed on its int64 bits by np.unique (0.0 and -0.0, and each NaN, keep their own
    text), written %.17g and gathered back through an object array; any other field keyed on
    its strings, each put in double quotes (its own doubled) when it holds a comma, a double
    quote, CR or LF."""
    if column.dtype == np.float64:
        distinct, where = np.unique(column.view(np.int64), return_inverse=True)
        texts = list(map("%.17g".__mod__, distinct.view(np.float64).tolist()))
        return np.array(texts, dtype=object)[where].tolist()
    cells = column.tolist()
    texts = {text: text if _QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'
             for text in set(cells)}
    return list(map(texts.__getitem__, cells))


def _lines(table: np.ndarray) -> list[str]:
    """One CSV line per row of a structured array, formatted field by field."""
    columns = [_cells(table[name]) for name in table.dtype.names]
    columns[-1] = [cell + "\r\n" for cell in columns[-1]]
    return list(map(",".join, zip(*columns)))


def _indented(items: list) -> str:
    """``json.dump(items, indent=1)``'s text of a payload list of scalars or of rows of scalars
    by the C encoder. Only a separator writes a newline, and no scalar starts with "[" or ends
    with "]", so only rows meet at "],\\n   ["."""
    if items and isinstance(items[0], (list, tuple)):
        rows = json.dumps(items, separators=(",\n   ", ": "))[2:-2]
        return "[\n  [\n   " + rows.replace("],\n   [", "\n  ],\n  [\n   ") + "\n  ]\n ]"
    return "[\n  " + json.dumps(items, separators=(",\n  ", ": "))[1:-1] + "\n ]" if items else "[]"


def write_table(path: str, fmt: str, columns: list[str], rows: np.ndarray,
                footer: np.ndarray | None = None):
    """The header ``columns``, the body ``rows`` and the ``footer`` rows: structured arrays
    of one positional field per cell, float64 or str (a footer name is an object field, so a
    trailing NUL stays). JSON holds ``rows.tolist()`` and the footer's cell texts."""
    out = Path(path)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        if fmt == "csv":
            with open(out, "w", newline="") as handle:
                # labels as an object column: a U array would strip a trailing NUL
                handle.write(",".join(_cells(np.array(columns, dtype=object))) + "\r\n")
                handle.writelines(_lines(rows))
                if footer is not None:
                    handle.writelines(_lines(footer))
        else:
            payload = {"columns": columns, "rows": rows.tolist()}
            if footer is not None and len(footer):
                payload["footer"] = [list(map(_text, row)) for row in footer.tolist()]
            with open(out, "w") as handle:
                handle.write("{\n" + ",\n".join(f' "{key}": {_indented(value)}'
                                                 for key, value in payload.items()) + "\n}\n")
    except OSError as err:
        raise ConfigError(f"cannot write artifact {path!r}: {err}") from err


def _resolve_output(config, args):
    block = config.get("output", {})
    path = args.out or block.get("path") or COMMANDS[args.command]["artifact"]
    fmt = args.format or block.get("format") or "csv"
    return path, fmt


# --------------------------------------------------------------------------
# subcommands


def cmd_brackets(model, config: dict, args) -> int:
    rng = _rng(config, args)
    ranges = dict(config.get("samples", {}))
    count = ranges.pop("count", 100)
    chart = model.bracket_chart
    with _sized_by("samples/count"):  # a row of chart.dim + 4 values per point and pair
        np.empty((count, len(model.bracket_pairs), chart.dim + 4))
    index = [(chart.index(a), chart.index(b)) for a, b in model.bracket_pairs]
    batch = model.sample(rng, count, **ranges)
    # {z_a, z_b}_D = D_ab from one Dirac tensor on the batch's columns
    tensor = dirac_tensor(model.constraint_set, batch)
    dirac = np.empty((len(batch), len(index)))
    with np.errstate(all="ignore"):  # an overflow is inf, as on Python floats
        values = [model.dirac_oracle(pair, batch) for pair in model.bracket_pairs]
        # float columns where every pair has an oracle, else "" (a model gives all or none)
        exact = all(value is not None for value in values)
        oracle = np.empty(dirac.shape) if exact else np.full(dirac.shape, "", dtype="U1")
        diff = oracle.copy()
        for p, ((i, j), value) in enumerate(zip(index, values)):
            dirac[:, p] = tensor[i][j]
            if value is not None:
                oracle[:, p], diff[:, p] = value, np.abs(dirac[:, p] - value)
    # a row per point and pair, point by point; {z_a, z_b} = J_ab is a constant of the chart
    labels, n = [f"{{{a},{b}}}" for a, b in model.bracket_pairs], len(batch)
    poisson = poisson_tensor(chart.n_pairs)[tuple(zip(*index))]
    body = np.rec.fromarrays([np.tile(labels, n), *np.repeat(batch.coords, len(index), axis=0).T,
                              np.tile(poisson, n), dirac.ravel(), oracle.ravel(), diff.ravel()])
    columns = ["pair", *chart.labels, "poisson", "dirac", "oracle", "abs_diff"]
    path, fmt = _resolve_output(config, args)
    write_table(path, fmt, columns, body)
    print(f"wrote {len(body)} bracket rows to {path}")
    return EXIT_OK


def _multiplier(value):
    """A constant, or a {"type": "poly"} block's coefficients of lambda(t), constant first."""
    return (value["coeffs"] or [0.0]) if isinstance(value, dict) else value


def _initial_point(block: dict, model, chart):
    if "coords" in block:
        return chart.point(block["coords"])
    surface = block.get("surface", {})
    x0 = model.initial_point(phi=surface.get("phi", 0.0), p_phi=surface.get("p_phi"),
                             x=block.get("x"), p=block.get("p"))
    if x0 is None:
        raise ConfigError("scenario needs an 'initial' block matching the model")
    return x0


def cmd_evolve(model, config: dict, args) -> int:
    flow_cfg = config["flow"]
    terms = flow_cfg.get("hamiltonian")
    flow, monitor = model.flow(flow_cfg["kind"], _multiplier(flow_cfg.get("multiplier", 1.0)),
                               None if terms is None else _terms(terms))
    cfg = IntegratorConfig(**config["integrator"])
    x0 = _initial_point(config.get("initial", {}), model, flow.chart)
    path, fmt = _resolve_output(config, args)

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


def _write_trajectory(path, fmt, traj):
    """A row of t, the coordinates, one |Phi_I| per residual series and G per state, and a
    drift footer row per series."""
    columns = ["t", *traj.chart.labels, *[f"res_{n}" for n in traj.residuals], "H"]
    body = np.rec.fromarrays([traj.times, *traj.states.T, *traj.residuals.values(),
                              traj.generator_values])
    # a name is an object (O) field: a U field would strip a trailing NUL
    footer = np.array([("drift", name, stats.max_residual, stats.growth_rate)
                       for name, stats in constraint_drift(traj).items()], dtype="U5,O,f8,f8")
    write_table(path, fmt, columns, body, footer)


def cmd_quantum(model, config: dict, args) -> int:
    from .circle import (CircleState, PhiGrid, SpectrumTable, evolve_time_dependent,
                         expect_cartesian, expect_phi, expect_phi_quadrature, expect_reduced)

    block = config["quantum"]
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
        with _sized_by("quantum/m_max"):
            state = CircleState.single_mode(block["single_mode"], m_max, model.hbar)
    else:
        raise ConfigError("quantum block needs 'coeffs' or 'single_mode'")

    times = block["times"]
    columns = ["t", "r_mean", "pr_mean", "pphi_mean", "phi_mean_analytic",
               "phi_mean_quadrature", "re_xy", "im_xy", "re_pxy", "im_pxy", "norm"]
    with _sized_by("quantum/times"):
        if isinstance(times, dict):
            times = np.linspace(times["start"], times["stop"], times["count"])
        table = np.empty((len(times), len(columns)))
    ramped = model.time_dependent  # k1 != 0: the reduced surface moves with t
    quad_steps = block.get("quadrature_steps", 2048)
    static_table = None if ramped else SpectrumTable.build(model, m_max)
    nodes = 4096  # intervals of the phi quadrature oracle
    grid = None  # built at the first row, after expect_phi's (2 m_max + 1)^2 arrays
    for row, t in enumerate(map(float, times)):
        if ramped:
            with _sized_by("quantum/quadrature_steps"):
                evolved = evolve_time_dependent(state, model, 0.0, t, quad_steps) if t else state
            table_t = SpectrumTable.build(model, m_max, t=t)
            phi_t = 0.0  # phases already folded into the state
        else:
            evolved = state
            table_t = static_table
            phi_t = t
        reduced = expect_reduced(evolved, table_t)
        with _sized_by("quantum/m_max"):
            phi_mean = expect_phi(evolved, table_t, phi_t)
            if grid is None:
                grid = PhiGrid.build(m_max, nodes)
        quad = expect_phi_quadrature(evolved, table_t, phi_t, nodes, grid)
        cart = expect_cartesian(evolved, table_t, phi_t)
        table[row] = (t, reduced.r_mean, reduced.pr_mean, reduced.pphi_mean,
                      phi_mean.value, quad, cart.xy.real, cart.xy.imag,
                      cart.pxy.real, cart.pxy.imag, evolved.norm_squared())
    path, fmt = _resolve_output(config, args)
    write_table(path, fmt, columns, np.rec.fromarrays(table.T))
    print(f"wrote {len(table)} expectation rows to {path}")
    return EXIT_OK


def cmd_maxwell(model, config: dict, args) -> int:
    cfg = IntegratorConfig(**config["integrator"])  # a bad dt fails before the projector work
    rng = _rng(config, args)
    block = config.get("maxwell", {})
    with _sized_by("model/side"):
        residuals = model.projector_residuals()
    checks = np.array([("check", name, abs(value), "") for name, value in residuals.items()],
                      dtype="U5,O,f8,U1")

    if block.get("initial", "lowest_mode") == "lowest_mode":
        a0, _ = model.lowest_standing_mode()
    else:
        a0 = model.random_transverse(rng)
    e_scale = block.get("e_scale", 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing field raises below
        e0 = model.random_transverse(rng, e_scale) if e_scale else np.zeros_like(a0)
    if not np.all(np.isfinite(e0)):
        raise ConfigError(f"maxwell/e_scale {e_scale!r} overflows the projected initial E")
    traj = model.evolve(a0, e0, cfg)
    columns = ["t", "energy", "gauss_residual", "transverse_residual"]
    body = np.rec.fromarrays([traj.times, traj.generator_values, traj.residuals["gauss"],
                              traj.residuals["transverse"]])
    path, fmt = _resolve_output(config, args)
    write_table(path, fmt, columns, body, checks)
    print(f"wrote {len(body)} evolution rows and {len(checks)} checks to {path}")
    return EXIT_OK


# per scenario subcommand: the model kinds it runs, the blocks it cannot run without, the
# other blocks it may read (every one reads seed and output), its handler, its default
# artifact and its help line
COMMANDS = {
    "brackets": {"kinds": ("klauder", "particle", "custom"), "needs": ("model",),
                 "reads": ("samples",), "run": cmd_brackets, "artifact": "brackets.csv",
                 "help": "Poisson/Dirac bracket tables vs oracles"},
    "evolve": {"kinds": ("klauder", "particle", "custom"),
               "needs": ("model", "flow", "integrator"), "reads": ("initial",),
               "run": cmd_evolve, "artifact": "trajectory.csv",
               "help": "integrate a flow and record residuals"},
    "quantum": {"kinds": ("klauder",), "needs": ("model", "quantum"), "reads": (),
                "run": cmd_quantum, "artifact": "quantum.csv",
                "help": "expectation-value sweep on the circle"},
    "maxwell": {"kinds": ("maxwell",), "needs": ("model", "integrator"), "reads": ("maxwell",),
                "run": cmd_maxwell, "artifact": "maxwell.csv",
                "help": "lattice projector checks and wave evolution"},
}


def cmd_verify(args) -> int:
    from .verify import DEFAULT_SEED, run_suite

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

    def add_common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", help="output artifact path (overrides config)")
        p.add_argument("--seed", type=_seed, help="64-bit seed for PCG64 sampling")
        p.add_argument("--format", choices=["csv", "json"], help="artifact format")

    for name, spec in COMMANDS.items():
        add_common(sub.add_parser(name, help=spec["help"]))

    verify = sub.add_parser("verify", help="run the invariant suites")
    verify.add_argument("suite", nargs="?", default="all", choices=_SUITES)
    verify.add_argument("--seed", type=_seed, help="seed for the check sampler")
    verify.add_argument("--inject-fault", metavar="CHECK_ID",
                        help="negative control: shift the named check's oracle so it fails")
    return parser


# built at the first main call, not at import; parse_args only reads it, so threads share it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        config = load_config(args.config)
        return COMMANDS[args.command]["run"](build_model(config, args.command), config, args)
    except NumericDomainError as err:  # includes DegeneracyError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except UsageError as err:  # includes ConfigError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

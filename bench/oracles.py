"""Per-op oracle checks on the artifacts the program wrote.

Each check reads one op's CSV and returns ``(passed, measured, detail)``.
``measured`` is the op's worst deviation as the ratio to its tolerance, so an
op passes when it is below 1. The tolerances are those of the ``verify``
check that covers the same quantity; none is looser.

``shift`` moves the oracle, not the measurement. A shifted oracle must make a
correct op fail; the benchmark's tests use it as a negative control.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from diracmech.dynamics import gauge_orbit_closed_form
from diracmech.models import KlauderModel, KRamp, RadialPotential, RelativisticParticle

# tolerances of the matching verify checks
BRACKET_TOL = 1e-9        # klauder.bracket_table, particle.bracket_suite
ORBIT_TOL = 1e-8          # klauder.circular_orbit, dynamics.dirac_surface_drift,
                          # dynamics.gauge_closed_form, particle.trajectory
GAUGE_RESIDUAL_TOL = 1e-10  # dynamics.gauge_closed_form, generator residual
PROJECTOR_TOL = 1e-10     # maxwell.projector_identity
DIRAC_MATRIX_TOL = 1e-8   # maxwell.dirac_matrix
EVOLUTION_TOL = 1e-9      # maxwell.evolution: energy drift and Gauss residual
ON_SHELL_RTOL = 1e-12


def read_table(path):
    """(columns, numeric body rows, footer rows) of a CLI CSV artifact."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        columns = next(reader)
        body, footer = [], []
        for row in reader:
            (footer if row[0] in ("drift", "check") else body).append(row)
    return columns, body, footer


def _verdict(deviations: dict[str, tuple[float, float]]):
    """Worst deviation/tolerance over named (value, tolerance) pairs."""
    worst_name, worst = "", 0.0
    for name, (value, tol) in deviations.items():
        ratio = float(value) / tol if math.isfinite(value) else math.inf
        if ratio >= worst:
            worst_name, worst = name, ratio
    return worst < 1.0, worst, f"worst {worst_name} at {worst:.3g} x tolerance"


def _row_count_error(config, body, per_point):
    expected = config["samples"]["count"] * per_point
    return None if len(body) == expected else f"{len(body)} rows, expected {expected}"


def klauder_closed_form(a, b, r, p_r, p_phi, alpha):
    """Off-surface Dirac brackets of polar coordinates for chi = r p_r - k."""
    if a == b:
        return 0.0
    denom = p_phi * p_phi + (r * p_r) ** 2 + (alpha * r * r) ** 2
    table = {("phi", "p_phi"): 1.0,
             ("r", "phi"): -r * p_phi / denom,
             ("phi", "p_r"): -p_r * p_phi / denom}
    if (a, b) in table:
        return table[(a, b)]
    if (b, a) in table:
        return -table[(b, a)]
    return 0.0


def check_klauder_table(config, path, shift=0.0):
    columns, body, _ = read_table(path)
    if columns != ["pair", "r", "phi", "p_r", "p_phi", "poisson", "dirac", "oracle", "abs_diff"]:
        return False, math.inf, f"unexpected columns {columns}"
    error = _row_count_error(config, body, 6)
    if error:
        return False, math.inf, error
    alpha = config["model"]["alpha"]
    r_lo, r_hi = config["samples"]["r_range"]
    m_lo, m_hi = config["samples"]["momentum_range"]
    engine = reported = 0.0
    in_range = True
    for row in body:
        a, b = row[0].strip("{}").split(",")
        r, phi, p_r, p_phi, _, dirac, _, abs_diff = map(float, row[1:])
        in_range &= r_lo <= r <= r_hi and all(m_lo <= v <= m_hi for v in (phi, p_r, p_phi))
        expected = klauder_closed_form(a, b, r, p_r, p_phi, alpha) + shift
        engine = max(engine, abs(dirac - expected))
        reported = max(reported, abs_diff)
    if not in_range:
        return False, math.inf, "sample outside the configured ranges"
    return _verdict({"dirac_vs_closed_form": (engine, BRACKET_TOL),
                     "abs_diff_column": (reported, BRACKET_TOL)})


def particle_closed_form(a, b, coords):
    """On-shell Dirac brackets {x_i, p_j}_D in the time gauge x0 = tau."""
    i, j = int(a[1:]), int(b[1:])
    if i == 0:
        return 0.0
    if j == 0:
        return coords[f"p{i}"] / coords["p0"]
    return 1.0 if i == j else 0.0


def check_particle_table(config, path, shift=0.0):
    columns, body, _ = read_table(path)
    d = config["model"]["spatial_dim"]
    labels = [f"x{i}" for i in range(d + 1)] + [f"p{i}" for i in range(d + 1)]
    if columns != ["pair", *labels, "poisson", "dirac", "oracle", "abs_diff"]:
        return False, math.inf, f"unexpected columns {columns}"
    error = _row_count_error(config, body, (d + 1) ** 2)
    if error:
        return False, math.inf, error
    m2 = config["model"]["mass"] ** 2
    engine = reported = shell = 0.0
    for row in body:
        a, b = row[0].strip("{}").split(",")
        values = list(map(float, row[1:]))
        coords = dict(zip(labels, values))
        dirac, abs_diff = values[-3], values[-1]
        p = np.array(values[d + 2: 2 * d + 2])
        energy = math.sqrt(float(p @ p) + m2)
        shell = max(shell, abs(coords["p0"] - energy) / energy, abs(coords["x0"]))
        engine = max(engine, abs(dirac - (particle_closed_form(a, b, coords) + shift)))
        reported = max(reported, abs_diff)
    return _verdict({"dirac_vs_closed_form": (engine, BRACKET_TOL),
                     "abs_diff_column": (reported, BRACKET_TOL),
                     "on_shell": (shell, ON_SHELL_RTOL)})


def _trajectory(config, path, labels):
    columns, body, footer = read_table(path)
    if columns[: len(labels) + 1] != ["t", *labels]:
        raise ValueError(f"unexpected columns {columns}")
    data = np.array(body, dtype=float)
    steps = config["integrator"]["steps"]
    if data.shape[0] != steps + 1:
        raise ValueError(f"{data.shape[0]} rows, expected {steps + 1}")
    return columns, data, footer


def klauder_model(config):
    block = config["model"]
    k = block["k"]
    return KlauderModel(alpha=block["alpha"], k=KRamp(*k) if isinstance(k, list) else k,
                        potential=RadialPotential(tuple(block["potential"]["coeffs"])))


def check_static_orbit(config, path, shift=0.0):
    try:
        _, data, _ = _trajectory(config, path, ["r", "phi", "p_r", "p_phi"])
    except ValueError as err:
        return False, math.inf, str(err)
    start = config["initial"]["surface"]
    rate = klauder_model(config).phi_rate(start["p_phi"]) + shift
    const_dev = float(np.max(np.abs(data[:, [1, 3, 4]] - data[0, [1, 3, 4]])))
    measured_rate = (data[-1, 2] - data[0, 2]) / data[-1, 0]
    start_dev = max(abs(data[0, 2] - start["phi"]), abs(data[0, 4] - start["p_phi"]))
    return _verdict({"r_pr_pphi_constant": (const_dev, ORBIT_TOL),
                     "phi_rate": (abs(measured_rate - rate), ORBIT_TOL),
                     "initial_point": (start_dev, ORBIT_TOL)})


def check_ramped_orbit(config, path, shift=0.0):
    try:
        _, _, footer = _trajectory(config, path, ["r", "phi", "p_r", "p_phi"])
    except ValueError as err:
        return False, math.inf, str(err)
    drift = {row[1]: abs(float(row[2]) - shift) for row in footer if row[0] == "drift"}
    if set(drift) != {"chi", "C"}:
        return False, math.inf, f"drift footer names {sorted(drift)}"
    return _verdict({f"drift_{name}": (value, ORBIT_TOL) for name, value in drift.items()})


def check_gauge_orbit(config, path, shift=0.0):
    try:
        columns, data, _ = _trajectory(config, path, ["q1", "q2", "p1", "p2"])
    except ValueError as err:
        return False, math.inf, str(err)
    q0, p0 = np.array(config["initial"]["coords"][:2]), np.array(config["initial"]["coords"][2:])
    alpha = config["model"]["alpha"]
    span = config["flow"]["multiplier"] * data[-1, 0]
    q, p = gauge_orbit_closed_form(q0, p0, alpha, span + shift)
    end_dev = float(np.max(np.abs(data[-1, 1:5] - np.concatenate([q, p]))))
    residual = float(np.max(data[:, columns.index("res_C")]))
    return _verdict({"closed_form_end": (end_dev, ORBIT_TOL),
                     "generator_residual": (residual, GAUGE_RESIDUAL_TOL)})


def check_particle_flight(config, path, shift=0.0):
    try:
        _, data, _ = _trajectory(config, path, ["x1", "x2", "x3", "p1", "p2", "p3"])
    except ValueError as err:
        return False, math.inf, str(err)
    block = config["model"]
    particle = RelativisticParticle(mass=block["mass"], spatial_dim=block["spatial_dim"])
    x0, p = config["initial"]["x"], config["initial"]["p"]
    closed = particle.trajectory(x0, p, data[-1, 0]) + shift
    dev = float(np.max(np.abs(data[-1, 1:4] - closed)))
    return _verdict({"closed_form_end": (dev, ORBIT_TOL)})


MAXWELL_FOOTER = {
    "projector_idempotency": PROJECTOR_TOL,
    "projector_symmetry": PROJECTOR_TOL,
    "projector_trace_deviation": PROJECTOR_TOL,
    "dirac_vs_projector": DIRAC_MATRIX_TOL,
    "dirac_aa_max": DIRAC_MATRIX_TOL,
    "dirac_ee_max": DIRAC_MATRIX_TOL,
}


def maxwell_energy_drift(data) -> float:
    energy = data[:, 1]
    return float(np.max(np.abs(energy - energy[0]))) / max(1.0, abs(float(energy[0])))


def check_maxwell(config, path, shift=0.0):
    try:
        _, data, footer = _trajectory(config, path,
                                      ["energy", "gauss_residual", "transverse_residual"])
    except ValueError as err:
        return False, math.inf, str(err)
    checks = {row[1]: abs(float(row[2]) - shift) for row in footer if row[0] == "check"}
    if set(checks) != set(MAXWELL_FOOTER):
        return False, math.inf, f"footer checks {sorted(checks)}"
    deviations = {name: (value, MAXWELL_FOOTER[name]) for name, value in checks.items()}
    deviations["energy_drift"] = (abs(maxwell_energy_drift(data) - shift), EVOLUTION_TOL)
    deviations["gauss_residual"] = (float(np.max(data[:, 2])), EVOLUTION_TOL)
    deviations["transverse_residual"] = (float(np.max(data[:, 3])), EVOLUTION_TOL)
    return _verdict(deviations)


CHECKS = {
    "klauder_table": check_klauder_table,
    "particle_table": check_particle_table,
    "static_orbit": check_static_orbit,
    "ramped_orbit": check_ramped_orbit,
    "gauge_orbit": check_gauge_orbit,
    "particle_flight": check_particle_flight,
    "maxwell_l2": check_maxwell,
    "maxwell_l8": check_maxwell,
}


def check_verify_result(registry_id, result):
    """A verify op passes when its check returned a result of its suite that passed."""
    suite = registry_id.split(".")[0]
    if result is None or not result.check_id.startswith(suite + "."):
        return False, math.inf, f"{registry_id} returned {result!r}"
    ratio = result.measured / result.threshold if result.threshold > 0 else result.measured
    passed = bool(result.passed) and math.isfinite(result.measured)
    return passed, ratio, result.line()

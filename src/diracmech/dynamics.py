"""Hamiltonian, Dirac-bracket and gauge flows with constraint monitoring.

All flows integrate dz/dt = {z, G} with classic fixed-step RK4, where G is
the Hamiltonian (Poisson or Dirac bracket) or lambda(t) times a gauge
generator (Poisson bracket). Constraint residuals are recorded along the way;
an optional Newton projection can push each step back onto the surface, but
the Dirac flow is tangent to it by construction so the default is off.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional, Union

import numpy as np

from .constraints import ConstraintSet, _constraint_brackets, _pairing_multipliers
from .errors import DegeneracyError, NumericDomainError, UsageError
from .fields import ScalarField
from .phase import ChartSpec, PhaseSpacePoint, require_same_chart

BLOWUP_LIMIT = 1e12
DIRAC_SURFACE_TOL = 1e-8


@dataclass(frozen=True)
class NewtonProjection:
    """Minimal-norm Newton correction onto the constraint surface."""

    tol: float = 1e-12
    max_iter: int = 10


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int
    projection: Optional[NewtonProjection] = None

    def __post_init__(self):
        try:
            steps = operator.index(self.steps)
        except TypeError:
            raise UsageError(f"integrator steps must be an integer, got {self.steps!r}") from None
        if self.dt <= 0 or not math.isfinite(self.dt * steps):
            raise UsageError("need dt > 0 and finite dt*steps")
        if steps < 0:
            raise UsageError("steps must be non-negative")


@dataclass(frozen=True)
class PoissonFlow:
    """dz/dt = {z, H} with the canonical Poisson bracket."""

    hamiltonian: ScalarField

    @property
    def chart(self) -> ChartSpec:
        return self.hamiltonian.chart


@dataclass(frozen=True)
class DiracFlow:
    """dz/dt = {z, H}_D for a Second Class constraint set.

    If a constraint carries an explicit time ramp, the standard correction
    -{z, Phi_I}(M^-1)^IJ dPhi_J/dt is added so d(Phi)/dt = 0 identically.
    """

    hamiltonian: ScalarField
    constraints: ConstraintSet

    @property
    def chart(self) -> ChartSpec:
        return self.hamiltonian.chart


@dataclass(frozen=True)
class GaugeFlow:
    """dz/dt = lambda(t) {z, generator}: an unphysical orbit, not time evolution."""

    generator: ScalarField
    multiplier: Union[float, Callable[[float], float]] = 1.0

    @property
    def chart(self) -> ChartSpec:
        return self.generator.chart

    def multiplier_at(self, t: float) -> float:
        if callable(self.multiplier):
            return float(self.multiplier(t))
        return float(self.multiplier)


FlowSpec = Union[PoissonFlow, DiracFlow, GaugeFlow]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped states plus per-step constraint residuals."""

    chart: ChartSpec
    times: np.ndarray
    states: np.ndarray  # (len(times), chart.dim)
    residuals: dict[str, np.ndarray] = dfield(default_factory=dict)
    generator_values: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise UsageError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise UsageError("times must be strictly increasing")

    def __len__(self):
        return len(self.times)

    def point(self, i: int) -> PhaseSpacePoint:
        return PhaseSpacePoint(self.chart, self.states[i])


def _symplectic_apply(grad: np.ndarray, n: int) -> np.ndarray:
    """J grad for J = [[0, I], [-I, 0]]: the Hamiltonian vector field map."""
    return np.concatenate([grad[n:], -grad[:n]])


def _poisson_rhs(flow: PoissonFlow, n: int):
    h = flow.hamiltonian

    def rhs(t, z):
        return _symplectic_apply(h.gradient_at(z), n)

    return rhs


def _gauge_rhs(flow: GaugeFlow, n: int):
    gen = flow.generator

    def rhs(t, z):
        return flow.multiplier_at(t) * _symplectic_apply(gen.gradient_at(z), n)

    return rhs


def _dirac_rhs(flow: DiracFlow, n: int):
    """{z, H}_D at (t, z). The brackets and M are summed on Python floats; two
    constraints take the closed 2x2 solve, more take pivoted LU."""
    h, cs = flow.hamiltonian, flow.constraints
    time_dependent = cs.time_dependent

    def rhs(t, z):
        gh, rows = h.gradient_list(z), cs.gradient_rows(z)
        # s_J = {Phi_J, H} (+ explicit-time rates)
        s = _constraint_brackets(rows, gh, n)
        if time_dependent:
            s = list(map(operator.add, s, cs.rates_at(t)))
        lam = _pairing_multipliers(rows, s, n, z)
        # grad H - rows^T lam, with rows^T lam one BLAS matvec: BLAS rounds each entry
        # with a fused multiply-add, which Python floats cannot reproduce
        effective = list(map(operator.sub, gh, np.dot(lam, rows).tolist()))
        return np.array(effective[n:] + list(map(operator.neg, effective[:n])))

    return rhs


def _project(z: np.ndarray, cs: ConstraintSet, t: float, proj: NewtonProjection) -> np.ndarray:
    for _ in range(proj.max_iter):
        vals = cs.values_at(z, t)
        if np.max(np.abs(vals)) < proj.tol:
            return z
        rows = np.array(cs.gradient_rows(z))
        # minimal-norm correction: z += rows^T delta with (rows rows^T) delta = -vals
        delta, *_ = np.linalg.lstsq(rows @ rows.T, -vals, rcond=None)
        z = z + rows.T @ delta
    vals = cs.values_at(z, t)
    if np.max(np.abs(vals)) >= proj.tol:
        raise NumericDomainError(
            f"Newton projection did not converge (max residual {np.max(np.abs(vals)):.3e})")
    return z


def evolve(x0: PhaseSpacePoint, flow: FlowSpec, cfg: IntegratorConfig,
           monitor: Optional[ConstraintSet] = None) -> Trajectory:
    """Integrate the flow from x0, recording states, residuals and G values.

    The Dirac flow requires x0 on the constraint surface (|Phi_I| < 1e-8) and
    an invertible pairing matrix; both are rechecked along the trajectory.
    Coordinates beyond 1e12, or NaN, abort with a blow-up error. ``monitor`` adds a
    constraint set to watch for Poisson/gauge flows; a Dirac flow always
    monitors its own.
    """
    if isinstance(flow, PoissonFlow):
        chart = require_same_chart(flow.hamiltonian, x0)
        rhs = _poisson_rhs(flow, chart.n_pairs)
        generator = flow.hamiltonian
        watched = monitor
    elif isinstance(flow, GaugeFlow):
        chart = require_same_chart(flow.generator, x0)
        rhs = _gauge_rhs(flow, chart.n_pairs)
        generator = flow.generator
        watched = monitor
    elif isinstance(flow, DiracFlow):
        chart = require_same_chart(flow.hamiltonian, flow.constraints, x0)
        if len(flow.constraints) == 0 or not flow.constraints.even_count:
            raise UsageError("Dirac flow needs a non-empty, even constraint set")
        if monitor is not None:
            raise UsageError("Dirac flow already monitors its own constraints")
        watched = flow.constraints
        watched.require_on_surface(x0.coords, "initial point of a Dirac flow", DIRAC_SURFACE_TOL)
        rhs = _dirac_rhs(flow, chart.n_pairs)
        generator = flow.hamiltonian
    else:
        raise UsageError(f"unknown flow spec {flow!r}")

    if watched is not None:
        require_same_chart(watched, x0)
    elif cfg.projection is not None:
        raise UsageError("a Newton projection needs constraints to project onto; "
                         "this flow watches none")

    dt, steps = cfg.dt, cfg.steps
    try:
        times = np.empty(steps + 1)
        states = np.empty((steps + 1, chart.dim))
    except (MemoryError, ValueError) as err:
        raise UsageError(f"cannot record {steps + 1} states of {chart.dim} coordinates: "
                         f"{err}") from None
    times[0] = 0.0
    states[0] = x0.coords
    z = np.array(x0.coords)

    try:
        for i in range(steps):
            t = i * dt
            k1 = rhs(t, z)
            k2 = rhs(t + 0.5 * dt, z + (0.5 * dt) * k1)
            k3 = rhs(t + 0.5 * dt, z + (0.5 * dt) * k2)
            k4 = rhs(t + dt, z + dt * k3)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t_next = (i + 1) * dt
            if cfg.projection is not None:
                z = _project(z, watched, t_next, cfg.projection)
            if not np.abs(z).max() <= BLOWUP_LIMIT:  # also catches NaN
                raise NumericDomainError(
                    f"trajectory blew up at t={t_next:g} (|z| > {BLOWUP_LIMIT:g} or NaN)")
            times[i + 1] = t_next
            states[i + 1] = z
    except DegeneracyError as err:
        done = i + 1  # rows 0..i are valid
        partial = _finalize(chart, times[:done], states[:done], watched, generator)
        err.partial_trajectory = partial
        raise

    return _finalize(chart, times, states, watched, generator)


def _finalize(chart, times, states, watched, generator) -> Trajectory:
    residuals = watched.residual_series(times, states) if watched is not None else {}
    gen_values = None
    if generator is not None:
        gen_values = np.array([generator.value_at(states[i]) for i in range(len(times))])
    # the trajectory owns evolve's preallocated arrays; no second copy of the states
    return Trajectory(chart=chart, times=times, states=states,
                      residuals=residuals, generator_values=gen_values)


@dataclass(frozen=True)
class DriftStats:
    max_residual: float
    growth_rate: float  # slope of a linear fit of |Phi| against t


def constraint_drift(traj: Trajectory, cs: Optional[ConstraintSet] = None) -> dict[str, DriftStats]:
    """Max residual and linear-fit drift rate per constraint.

    Uses the trajectory's recorded residuals unless a constraint set is given,
    in which case residuals are recomputed from the stored states.
    """
    series = traj.residuals if cs is None else cs.residual_series(traj.times, traj.states)
    out = {}
    for name, values in series.items():
        if len(traj) > 1:
            rate = float(np.polyfit(traj.times, values, 1)[0])
        else:
            rate = 0.0
        out[name] = DriftStats(max_residual=float(np.max(values)), growth_rate=rate)
    return out


def gauge_orbit_closed_form(q0, p0, alpha: float, T: float):
    """Closed-form orbit of the generator (1/2)(p.p - alpha^2 q.q).

    q(T) = q0 cosh(aT) + (p0/a) sinh(aT); p(T) = p0 cosh(aT) + a q0 sinh(aT),
    with T the accumulated multiplier integral. Exact for any dimension and
    any starting point (the flow is linear).
    """
    if alpha == 0:
        raise UsageError("closed form is degenerate at alpha = 0")
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    c, s = math.cosh(alpha * T), math.sinh(alpha * T)
    return q0 * c + (p0 / alpha) * s, p0 * c + (alpha * q0) * s


def multiplier_from_gauge(x: PhaseSpacePoint, kdot: float, alpha: float) -> float:
    """Multiplier lambda = kdot / (|p|^2 + alpha^2 |q|^2) preserving q.p = k(t).

    On the constraint surface of (1/2)(p.p - alpha^2 q.q) the denominator is
    2 alpha^2 r^2. Degenerates at the phase-space origin, which is excluded.
    """
    n = x.chart.n_pairs
    q, p = x.coords[:n], x.coords[n:]
    denom = float(p @ p + alpha * alpha * (q @ q))
    if denom <= 0.0 or not math.isfinite(denom):
        raise DegeneracyError("gauge multiplier undefined at the phase-space origin",
                              det=denom, coords=np.array(x.coords))
    return float(kdot) / denom

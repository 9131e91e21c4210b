"""Hamiltonian, Dirac-bracket and gauge flows with constraint monitoring.

All flows integrate dz/dt = {z, G} with classic fixed-step RK4, where G is
the Hamiltonian (Poisson or Dirac bracket) or lambda(t) times a gauge
generator (Poisson bracket). Constraint residuals are recorded along the way,
never corrected: the Dirac flow is tangent to the surface by construction.

``evolve`` steps on a list of Python floats: the right-hand side takes and
returns float lists, the RK4 stage sums and the blow-up test make no numpy
call, and each state is written into the preallocated trajectory array. The
lattice Maxwell flow does not come here: ``LatticeMaxwell.evolve`` applies the
same RK4 map per Fourier mode in closed form, and shares this module's
recording arrays, blow-up error and finalisation.

``evolve`` builds each chart flow's right-hand side once per flow, as a closure
that has resolved its fields' gradient routes (and a gauge flow's constant
multiplier), so a call does arithmetic only. With two constraints, as in every
built-in Dirac flow, one pass over the gradients sums the brackets {Phi_I, H}
and the pairing matrix M in the order of the constraint engine's float sums;
more constraints take the engine's stacked rows and pivoted LU. The correction
sum_I lambda_I grad Phi_I is summed per entry on Python floats, left to right and
unfused, so of a Dirac orbit's bits only those of the LU solve for more than two
constraints depend on the BLAS kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dfield
from functools import reduce
from typing import Callable, Optional, Union

import numpy as np

from .constraints import (ConstraintSet, _constraint_brackets, _pairing_multipliers,
                          _second_class, _solve_pairing)
from .errors import DegeneracyError, NumericDomainError, UsageError
from .fields import ScalarField
from .phase import ChartSpec, PhaseSpacePoint, require_same_chart

BLOWUP_LIMIT = 1e12
DIRAC_SURFACE_TOL = 1e-8


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    steps: int

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


def _symplectic_apply(grad: list, n: int) -> list:
    """J grad for J = [[0, I], [-I, 0]] on Python floats: the Hamiltonian vector field map."""
    return grad[n:] + list(map(operator.neg, grad[:n]))


def _poisson_rhs(flow: PoissonFlow, n: int):
    gradient = flow.hamiltonian._gradient_floats

    def rhs(t, z):
        return _symplectic_apply(gradient(z), n)

    return rhs


def _gauge_rhs(flow: GaugeFlow, n: int):
    gradient = flow.generator._gradient_floats
    constant = None if callable(flow.multiplier) else float(flow.multiplier)

    def rhs(t, z):
        lam = flow.multiplier_at(t) if constant is None else constant
        return [lam * v for v in _symplectic_apply(gradient(z), n)]

    return rhs


def _dirac_rhs(flow: DiracFlow, n: int):
    """{z, H}_D at (t, z), z a list of Python floats, as Python floats. Two constraints
    take one pass over the gradients and the closed 2x2 solve; more take the stacked
    rows and pivoted LU."""
    cs = flow.constraints
    grad_h = flow.hamiltonian._gradient_floats
    rates_at = cs.rates_at if cs.time_dependent else None
    if len(cs) != 2:
        def rhs(t, z):
            gh, rows = grad_h(z), cs.gradient_rows(z)
            # s_J = {Phi_J, H} (+ explicit-time rates)
            s = _constraint_brackets(rows, gh, n)
            if rates_at is not None:
                s = list(map(operator.add, s, rates_at(t)))
            lam = _pairing_multipliers(rows, s, n, z).tolist()
            return _symplectic_apply([g - reduce(operator.add, map(operator.mul, lam, col))
                                      for g, *col in zip(gh, *rows)], n)

        return rhs

    grad_0, grad_1 = (f._gradient_floats for f in cs.fields)

    def rhs(t, z):
        gh, r0, r1 = grad_h(z), grad_0(z), grad_1(z)
        # {Phi_I, H} = b_I - c_I and M = a - a^T, a_IJ = q_I . p_J: each sum from +0.0 in
        # index order, the bits of _constraint_brackets and pairing_matrix_of_rows
        b0 = c0 = b1 = c1 = a00 = a01 = a10 = a11 = 0.0
        for i in range(n):
            q0, p0, q1, p1, hq, hp = r0[i], r0[n + i], r1[i], r1[n + i], gh[i], gh[n + i]
            b0 += q0 * hp
            c0 += p0 * hq
            b1 += q1 * hp
            c1 += p1 * hq
            a00 += q0 * p0
            a01 += q0 * p1
            a10 += q1 * p0
            a11 += q1 * p1
        s = [b0 - c0, b1 - c1]
        if rates_at is not None:
            s = list(map(operator.add, s, rates_at(t)))
        m01 = a01 - a10
        m = [[a00 - a00, m01], [a10 - a01, a11 - a11]]  # a NaN diagonal marks a non-finite row
        if not _second_class(m, m01 * m01):
            _pairing_multipliers([r0, r1], s, n, z)  # raises the guard's DegeneracyError
        l0, l1 = _solve_pairing(m, s)
        return _symplectic_apply([g - (l0 * a + l1 * b) for g, a, b in zip(gh, r0, r1)], n)

    return rhs


def _float_step(rhs, t: float, z: list, dt: float) -> list:
    """One classic RK4 step on Python floats."""
    half = 0.5 * dt
    k1 = rhs(t, z)
    k2 = rhs(t + half, [a + half * b for a, b in zip(z, k1)])
    k3 = rhs(t + half, [a + half * b for a, b in zip(z, k2)])
    k4 = rhs(t + dt, [a + dt * b for a, b in zip(z, k3)])
    sixth = dt / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


def _floats_bounded(z: list) -> bool:
    # every entry, not max(map(abs, z)): max passes over a NaN that is not first
    return all(abs(v) <= BLOWUP_LIMIT for v in z)


def _blew_up(t: float) -> NumericDomainError:
    return NumericDomainError(f"trajectory blew up at t={t:g} (|z| > {BLOWUP_LIMIT:g} or NaN)")


def _recording(steps: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Empty times and states arrays for a run of ``steps`` steps; a run too long to
    record is a usage error, not a MemoryError."""
    try:
        return np.empty(steps + 1), np.empty((steps + 1, dim))
    except (MemoryError, ValueError) as err:
        raise UsageError(f"cannot record {steps + 1} states of {dim} coordinates: "
                         f"{err}") from None


def evolve(x0: PhaseSpacePoint, flow: FlowSpec, cfg: IntegratorConfig,
           monitor: Optional[ConstraintSet] = None) -> Trajectory:
    """Integrate the flow from x0, recording states, residuals and G values.

    The Dirac flow requires x0 on the constraint surface (|Phi_I| < 1e-8) and
    an invertible pairing matrix; both are rechecked along the trajectory.
    Coordinates beyond 1e12, or NaN, abort with a blow-up error, and so does a
    non-finite generator value or watched residual. ``monitor`` adds a constraint set
    to watch for Poisson/gauge flows; a Dirac flow always monitors its own.
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

    dt, steps = cfg.dt, cfg.steps
    times, states = _recording(steps, chart.dim)
    times[0] = 0.0
    states[0] = x0.coords
    z = x0.coords.tolist()
    if not _floats_bounded(z):  # the start meets the check each step meets
        raise _blew_up(0.0)

    # entered once per run: an overflowing or NaN stage ends in the blow-up check or in
    # the pairing guard, not in numpy warnings
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(steps):
                z = _float_step(rhs, i * dt, z, dt)
                t_next = (i + 1) * dt
                if not _floats_bounded(z):  # also catches NaN
                    raise _blew_up(t_next)
                times[i + 1] = t_next
                states[i + 1] = z
    except DegeneracyError as err:
        done = i + 1  # rows 0..i are valid
        partial = _finalize(chart, times[:done], states[:done], watched, generator)
        err.partial_trajectory = partial
        raise

    return _finalize(chart, times, states, watched, generator)


def _finalize(chart, times, states, watched, generator) -> Trajectory:
    # bounded states whose generator or watched residual overflows end in the blow-up
    # error, not in numpy warnings; the initial state meets this check even with no step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gen_values = generator.values_along(states)
        residuals = watched.residual_series(times, states) if watched is not None else {}
    series = {generator.name: gen_values, **{f"|{n}|": v for n, v in residuals.items()}}
    for name, values in series.items():
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NumericDomainError(f"trajectory blew up at t={times[bad[0]]:g} "
                                     f"({name} = {values[bad[0]]})")
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
    # least-squares slope sum (t - tbar)(y - ybar) / sum (t - tbar)^2 on times scaled into
    # [0, 1) by 2^-e, so no t^2 underflows or overflows; y - y0 is 0.0 for a constant y
    e = math.frexp(traj.times[-1])[1]
    t = np.ldexp(traj.times, -e)
    t -= np.mean(t)
    out = {}
    for name, values in series.items():
        y = values - values[0]
        slope = np.sum(t * (y - np.mean(y))) / np.sum(t * t) if len(traj) > 1 else 0.0
        with np.errstate(over="ignore"):  # a slope beyond the float range is inf
            rate = float(np.ldexp(slope, -e))
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


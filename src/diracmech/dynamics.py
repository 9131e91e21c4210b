"""Hamiltonian, Dirac-bracket and gauge flows with constraint monitoring.

All flows integrate dz/dt = {z, G} with classic fixed-step RK4, where G is
the Hamiltonian (Poisson or Dirac bracket) or lambda(t) times a gauge
generator (Poisson bracket). Constraint residuals are recorded along the way,
never corrected: the Dirac flow is tangent to the surface by construction.

``evolve`` steps on a list of Python floats, in one generated kernel per flow: ``kernels``
writes the flow's right-hand side into each of the four RK4 stages of a loop over steps,
which tests every new state against the blow-up bound and collects it, with no numpy call.
``evolve`` binds that loop once per run to the flow's gradient routes, their joint trace
written in and handed its constants (and a gauge flow's multiplier coefficients), calls it
once per block of ``RUN_BLOCK`` steps, and writes each block into the preallocated trajectory
arrays in one assignment. The lattice Maxwell flow does not come here:
``LatticeMaxwell.evolve`` applies the same RK4 map per Fourier mode in closed form, and
shares this module's recording arrays, blow-up error and finalisation.

The Dirac stage covers every even constraint count: the brackets {Phi_I, H} are summed
straight from the gradients, and the pairing matrix M by the constraint engine's own
generated sums; ``_kernel_args`` hands it ``_pairing_multipliers``, the package's one
guard and solve, and ``DEGENERACY_RTOL``: two constraints take its test and closed 2x2
form inline where M has a zero diagonal and a finite det, more its float elimination. The
correction sum_I lambda_I grad Phi_I is summed per entry on Python floats, left to right
and unfused, so no BLAS or LAPACK kernel moves a Dirac orbit's bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dfield
from numbers import Real
from typing import Callable, Optional, Union

import numpy as np

from .constraints import DEGENERACY_RTOL, ConstraintSet, _pairing_multipliers
from .errors import DegeneracyError, NumericDomainError, UsageError
from .fields import ScalarField
from .kernels import _generated
from .phase import ChartSpec, PhaseSpacePoint, require_same_chart

BLOWUP_LIMIT = 1e12
RUN_BLOCK = 256  # steps per call of a flow's generated RK4 loop
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

    A constraint with a time ramp k(t) = k0 + k1 t has the constant dPhi_J/dt = -k1
    (``ConstraintSet.rates``), and the standard correction -{z, Phi_I}(M^-1)^IJ dPhi_J/dt
    is added so d(Phi)/dt = 0 identically.
    """

    hamiltonian: ScalarField
    constraints: ConstraintSet

    @property
    def chart(self) -> ChartSpec:
        return self.hamiltonian.chart


@dataclass(frozen=True)
class GaugeFlow:
    """dz/dt = lambda(t) {z, generator}: an unphysical orbit, not time evolution. lambda(t) is
    data: its polynomial coefficients, constant first, as a tuple of floats (a number c: (c,))."""

    generator: ScalarField
    multiplier: Union[float, tuple[float, ...]] = 1.0

    def __post_init__(self):
        m = self.multiplier
        coeffs = tuple(m) if isinstance(m, (list, tuple)) else (m,)
        if not coeffs or not all(isinstance(c, Real) for c in coeffs):
            raise UsageError(f"a gauge multiplier is a number or a non-empty list of them: {m!r}")
        object.__setattr__(self, "multiplier", tuple(map(float, coeffs)))

    @property
    def chart(self) -> ChartSpec:
        return self.generator.chart


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


def _kernel_args(flow: FlowSpec) -> tuple[str, int, tuple, tuple]:
    """(kind, k, arguments, fields) of the flow's generated kernel: ``kind`` gives its one
    kernel, the whole RK4 loop, bound by the arguments to the gradient routes of ``fields``,
    the generator first; a gauge flow's k counts its multiplier's coefficients, a Dirac flow's
    its constraints. The one flow-kind dispatch of ``evolve``."""
    if isinstance(flow, PoissonFlow):
        return "poisson", 0, (flow.hamiltonian._call,), (flow.hamiltonian,)
    if isinstance(flow, GaugeFlow):
        m = flow.multiplier
        return "gauge", len(m), (flow.generator._call, m), (flow.generator,)
    if not isinstance(flow, DiracFlow):
        raise UsageError(f"unknown flow spec {flow!r}")
    cs = flow.constraints
    args = (flow.hamiltonian._call, [f._call for f in cs.fields], cs.rates,
            _pairing_multipliers, DEGENERACY_RTOL)
    return "dirac", len(cs), args, (flow.hamiltonian, *cs.fields)


def _traced(flow: FlowSpec, fields: tuple) -> Optional[tuple]:
    """The flow's gradient routes traced together: a one-gradient flow's field's own trace, a
    Dirac flow's kept by its constraint set."""
    return fields[0]._trace if len(fields) == 1 else flow.constraints._traced_with(fields[0])


def _loop(flow: FlowSpec) -> Callable:
    """The flow's RK4 loop ``run``, bound by ``_kernel_args``: the routes' joint trace written
    into its four stages and handed its constants, every route it refuses called."""
    kind, k, args, fields = _kernel_args(flow)
    shape, constants = _traced(flow, fields) or (None, ())
    return _generated(kind, flow.chart.n_pairs, k, shape)(*args, constants)


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
    kind, k, _, fields = _kernel_args(flow)
    generator, watched = fields[0], monitor
    chart = require_same_chart(*fields, x0)
    if kind == "dirac":
        if k == 0 or not flow.constraints.even_count:
            raise UsageError("Dirac flow needs a non-empty, even constraint set")
        if monitor is not None:
            raise UsageError("Dirac flow already monitors its own constraints")
        watched = flow.constraints
        watched.require_on_surface(x0.coords, "initial point of a Dirac flow", DIRAC_SURFACE_TOL)
    if watched is not None:
        require_same_chart(watched, x0)

    dt, steps = cfg.dt, cfg.steps
    run = _loop(flow)  # arithmetic only from here
    times, states = _recording(steps, chart.dim)
    times[0] = 0.0
    states[0] = x0.coords
    z = x0.coords.tolist()
    # the start meets the check each step meets: every entry, not max(map(abs, z)), which
    # passes over a NaN that is not first
    if not all(abs(v) <= BLOWUP_LIMIT for v in z):
        raise _blew_up(0.0)

    # entered once per run: an overflowing or NaN stage ends in the blow-up check or in
    # the pairing guard, not in numpy warnings
    done, rows = 0, []  # states 0..done are recorded
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            while done < steps:
                rows, stop = [], min(done + RUN_BLOCK, steps)
                end = run(z, dt, done, stop, BLOWUP_LIMIT, rows)
                done = _record(times, states, done, rows, dt)
                if end < stop:  # step ``end`` left the bound; also catches NaN
                    raise _blew_up((end + 1) * dt)
                z = rows[-1]
    except DegeneracyError as err:
        done = _record(times, states, done, rows, dt)  # the block's steps before the failure
        err.partial_trajectory = _finalize(chart, times[:done + 1], states[:done + 1], watched,
                                           generator)
        raise

    return _finalize(chart, times, states, watched, generator)


def _record(times, states, done, rows, dt) -> int:
    """Writes the states ``rows`` after state ``done`` and their times (i + 1) dt; returns
    the index of the last state recorded."""
    stop = done + len(rows)
    if rows:
        states[done + 1:stop + 1] = rows
        times[done + 1:stop + 1] = np.arange(done + 1, stop + 1) * dt
    return stop


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


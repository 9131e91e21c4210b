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

The RK4 step and the Poisson, gauge and Dirac right-hand sides are generated code,
as ``namedtuple`` and ``dataclasses`` generate theirs. For each kind, chart size n
and (for the Dirac rhs) constraint count k, the source is written out over the 2n
coordinates, compiled in this module's globals at the first flow that needs it (not
at import), and cached for the life of the process. While n (k + 2)^2 <= 128 (up to
64 coordinates for the step and the chart flows, up to 16 for two constraints)
every list entry and sum term is spelled out, which spares a step on a few
coordinates the zips, slices and loop counters that cost more than its arithmetic;
past that, each list is one comprehension and each sum one loop. Both forms keep
the order of every sum, so they give the same bits. ``evolve`` builds each flow's
right-hand side once, from the generated factory and the flow's resolved gradient
routes (and a gauge flow's constant multiplier), so a call does arithmetic only.

The Dirac rhs covers every even constraint count: the brackets {Phi_I, H} and the
pairing matrix M are summed straight from the gradients in the order of the
constraint engine's float sums, and one call of ``_pairing_multipliers`` runs the
package's one guard and solve on that M: the closed 2x2 form for two constraints,
numpy's pivoted LU for more. The correction sum_I lambda_I grad Phi_I is summed per
entry on Python floats, left to right and unfused, so of a Dirac orbit's bits only
those of the LU solve for more than two constraints depend on the BLAS kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dfield
from functools import cache
from typing import Callable, Optional, Union

import numpy as np

from .constraints import ConstraintSet, _pairing_multipliers
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


# A generated function for n pairs and k constraints (k = 0 for the step and the Poisson and
# gauge rhs) is spelled out over the coordinates while n (k + 2)^2 <= _UNROLL_TERMS: a bound
# on the n (k^2 + 4k) product terms of the Dirac rhs's sums and correction, which keeps the
# step and the chart flows spelled out up to 64 coordinates. Past it, each per-coordinate
# list is one comprehension and each sum one loop. Spelled out at n = 32 and k = 64, the
# Dirac rhs takes 0.7-0.9 s and 165 MiB to build (its loop form 0.1 s and 29 MiB; Python
# 3.11 on a 2-core x86-64 host), and past n = 2048 a sum's chain of additions is too deep
# for the compiler (RecursionError).
_UNROLL_TERMS = 128


def _source(kind: str, n: int, k: int = 0) -> str:
    """Python source of the function ``kind`` for a chart of n pairs.

    The right-hand-side factories ``poisson``, ``gauge`` and ``dirac`` (k constraints, any
    even count) each return an ``rhs(t, z)``; ``step`` is the classic RK4 step
    ``step(rhs, t, z, dt)``. Each sum runs from +0.0 in index order and each list in
    coordinate order, unrolled or in a loop, so both forms give the same bits.
    """
    dim = 2 * n
    unrolled = n * (k + 2) ** 2 <= _UNROLL_TERMS

    def at(i):  # the {q} and {p} suffixes of entry i: a local name, or an index in a loop
        return {"q": f"_{i}", "p": f"_{n + i}"} if unrolled else {"q": "[i]", "p": f"[{n} + i]"}

    def vector(*parts):  # (template, count) parts: the list of every entry of each in turn
        if unrolled:
            return "[" + ", ".join(t.format(**at(i)) for t, c in parts for i in range(c)) + "]"
        return " + ".join(f"[{t.format(**at(None))} for i in range({c})]" for t, c in parts)

    def read(name, value):  # unrolled, entry j is then the local {name}_j
        return (", ".join(f"{name}_{j}" for j in range(dim)) if unrolled else name) + f" = {value}"

    def sums(terms):  # each name set to the sum of its template over i < n
        if unrolled:
            return [f"{name} = 0.0" + "".join(f" + {t.format(**at(i))}" for i in range(n))
                    for name, t in terms.items()]
        return ([" = ".join(terms) + " = 0.0", f"for i in range({n}):"]
                + [f"    {name} += {t.format(**at(None))}" for name, t in terms.items()])

    setup = []
    if kind == "step":
        body = ["half = 0.5 * dt", *([read("z", "z")] if unrolled else []),
                read("k1", "rhs(t, z)"),
                read("k2", f"rhs(t + half, {vector(('z{q} + half * k1{q}', dim))})"),
                read("k3", f"rhs(t + half, {vector(('z{q} + half * k2{q}', dim))})"),
                read("k4", f"rhs(t + dt, {vector(('z{q} + dt * k3{q}', dim))})"),
                "sixth = dt / 6.0",
                "return " + vector(("z{q} + sixth * (k1{q} + 2.0 * k2{q} + 2.0 * k3{q} + k4{q})",
                                    dim))]
        return "\n    ".join(["def step(rhs, t, z, dt):", *body])
    if kind == "poisson":
        head, body = "poisson(gradient)", [
            read("g", "gradient(z)"), "return " + vector(("g{p}", n), ("-g{q}", n))]
    elif kind == "gauge":
        head, body = "gauge(gradient, multiplier_at, constant)", [
            "lam = multiplier_at(t) if constant is None else constant",
            read("g", "gradient(z)"), "return " + vector(("lam * g{p}", n), ("lam * -g{q}", n))]
    else:
        # {Phi_I, H} = b_I - c_I, b_I = q_I . dH/dp and c_I = p_I . dH/dq, and M = a - a^T,
        # a_IJ = q_I . p_J, for the q and p halves of row I = grad Phi_I, summed as in
        # pairing_matrix_of_rows; a NaN diagonal marks a non-finite row for the guard. Entry
        # j of row I is r{I}_{j} and a_IJ is a{I}_{J}, so no two (I, J) share a name
        cs = range(k)
        terms = {f"{x}{i}": f"r{i}{{{u}}} * gh{{{v}}}" for i in cs for x, u, v in ("bqp", "cpq")}
        terms.update({f"a{i}_{j}": f"r{i}{{q}} * r{j}{{p}}" for i in cs for j in cs})
        # sum_I l_I dPhi_I/dz per entry, left to right from the first product
        lam = {x: " + ".join(f"l{i} * r{i}{{{x}}}" for i in cs) for x in "qp"}
        head = "dirac(grad_h, grads, rates_at)"
        setup = ["".join(f"grad_{i}, " for i in cs) + "= grads"]
        body = [read("gh", "grad_h(z)"), *(read(f"r{i}", f"grad_{i}(z)") for i in cs),
                *sums(terms), "s = [" + ", ".join(f"b{i} - c{i}" for i in cs) + "]",
                "if rates_at is not None:",
                "    s = list(map(operator.add, s, rates_at(t)))",
                "m = [" + ", ".join("[" + ", ".join(f"a{i}_{j} - a{j}_{i}" for j in cs) + "]"
                                    for i in cs) + "]",
                "".join(f"l{i}, " for i in cs) + "= _pairing_multipliers(m, s, z)",
                "return " + vector((f"gh{{p}} - ({lam['p']})", n),
                                   (f"-(gh{{q}} - ({lam['q']}))", n))]
    return "\n    ".join([f"def {head}:", *setup, "def rhs(t, z):",
                          *(f"    {line}" for line in body), "return rhs"])


@cache
def _generated(kind: str, n: int, k: int = 0):
    """The function ``kind`` of ``_source`` for n pairs (and k constraints), compiled at its
    first use and shared from then on: it holds no state, so concurrent flows call it freely."""
    namespace = {}
    exec(compile(_source(kind, n, k), f"<diracmech.dynamics {kind} n={n} k={k}>", "exec"),
         globals(), namespace)
    return namespace[kind]


def _poisson_rhs(flow: PoissonFlow, n: int):
    return _generated("poisson", n)(flow.hamiltonian._gradient)


def _gauge_rhs(flow: GaugeFlow, n: int):
    constant = None if callable(flow.multiplier) else float(flow.multiplier)
    return _generated("gauge", n)(flow.generator._gradient, flow.multiplier_at, constant)


def _dirac_rhs(flow: DiracFlow, n: int):
    """{z, H}_D at (t, z), z a list of Python floats, as Python floats."""
    cs = flow.constraints
    return _generated("dirac", n, len(cs))(
        flow.hamiltonian._gradient, [f._gradient for f in cs.fields],
        cs.rates_at if cs.time_dependent else None)


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
    step = _generated("step", chart.n_pairs)
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
                z = step(rhs, i * dt, z, dt)
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


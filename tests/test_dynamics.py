import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from diracmech.cli import _trajectory_rows
from diracmech.constraints import DEGENERACY_RTOL, ConstraintSet, dirac_bracket, dirac_tensor
from diracmech.dynamics import (DiracFlow, GaugeFlow, IntegratorConfig, PoissonFlow,
                                _dirac_rhs, _gauge_rhs, _poisson_rhs, constraint_drift, evolve,
                                gauge_orbit_closed_form)
from diracmech.errors import DegeneracyError, NumericDomainError, UsageError
from diracmech.fields import ScalarField, coordinate_field, polynomial_field
from diracmech.models import (KlauderModel, KRamp, LatticeMaxwell, RadialPotential,
                              RelativisticParticle)
from diracmech.phase import ChartSpec, PhaseSpacePoint

from test_constraints import CUSTOM_FOUR, reference_degeneracy_scale, reference_gradient_rows

FLAT = ChartSpec(labels=("q1", "p1"), name="flat1d")


def cartesian_monitor(model):
    return ConstraintSet(model.cartesian_chart, (model.cartesian_generator,), ("C",))


# -- closed-form gauge orbit -----------------------------------------------------

def test_gauge_orbit_identity_at_zero():
    q, p = gauge_orbit_closed_form([1.0, -2.0], [0.5, 3.0], alpha=1.3, T=0.0)
    assert np.array_equal(q, [1.0, -2.0]) and np.array_equal(p, [0.5, 3.0])


def test_gauge_orbit_exponential_directions():
    q, p = gauge_orbit_closed_form([1.0, 0.0], [1.0, 0.0], alpha=1.0, T=1.0)
    assert q[0] == pytest.approx(math.e, rel=1e-15) and q[1] == 0.0
    assert p[0] == pytest.approx(math.e, rel=1e-15)
    q, p = gauge_orbit_closed_form([1.0, 0.0], [-1.0, 0.0], alpha=1.0, T=1.0)
    assert q[0] == pytest.approx(1.0 / math.e, rel=1e-14)
    assert p[0] == pytest.approx(-1.0 / math.e, rel=1e-14)


def test_gauge_orbit_rejects_zero_alpha():
    with pytest.raises(UsageError):
        gauge_orbit_closed_form([1.0], [1.0], alpha=0.0, T=1.0)


# -- gauge flow -------------------------------------------------------------------

def test_gauge_flow_matches_closed_form():
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([1.0, 0.0, 1.0, 0.0])
    traj = evolve(x0, GaugeFlow(model.cartesian_generator, 1.0),
                  IntegratorConfig(dt=1e-3, steps=1000), monitor=cartesian_monitor(model))
    q, p = gauge_orbit_closed_form([1.0, 0.0], [1.0, 0.0], 1.0, 1.0)
    assert np.max(np.abs(traj.states[-1] - np.concatenate([q, p]))) < 1e-8
    assert np.max(traj.residuals["C"]) < 1e-10


def test_gauge_flow_matches_closed_form_off_unit_alpha():
    # at alpha != 1, p0 / alpha and alpha q0 weigh sinh(alpha T) differently from p0 and q0
    model = KlauderModel(alpha=1.7, k=0.0)
    x0 = model.cartesian_chart.point([0.6, -0.4, 1.1, 0.5])
    traj = evolve(x0, GaugeFlow(model.cartesian_generator, 1.0),
                  IntegratorConfig(dt=1e-3, steps=800))
    q, p = gauge_orbit_closed_form([0.6, -0.4], [1.1, 0.5], 1.7, 0.8)
    assert np.max(np.abs(traj.states[-1] - np.concatenate([q, p]))) < 1e-8


def test_gauge_flow_time_dependent_multiplier():
    # lambda(t) = cos t accumulates T = sin(1) by t = 1
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([0.8, -0.3, 0.8, 0.3])
    traj = evolve(x0, GaugeFlow(model.cartesian_generator, math.cos),
                  IntegratorConfig(dt=1e-3, steps=1000))
    q, p = gauge_orbit_closed_form([0.8, -0.3], [0.8, 0.3], 1.0, math.sin(1.0))
    assert np.max(np.abs(traj.states[-1] - np.concatenate([q, p]))) < 1e-8


def test_gauge_residual_scales_as_fourth_order():
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([1.3, -0.4, 0.9, 0.8])
    start = abs(model.cartesian_generator.value(x0))
    deviations = []
    for dt, steps in ((2e-2, 50), (1e-2, 100)):
        traj = evolve(x0, GaugeFlow(model.cartesian_generator, 1.0),
                      IntegratorConfig(dt=dt, steps=steps), monitor=cartesian_monitor(model))
        deviations.append(np.max(np.abs(traj.residuals["C"] - start)))
    assert deviations[0] / deviations[1] >= 15.0


# -- Dirac flow -------------------------------------------------------------------

def test_dirac_flow_circular_orbit():
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.1, p_phi=1.0)
    traj = evolve(x0, DiracFlow(model.hamiltonian(), model.constraint_set),
                  IntegratorConfig(dt=1e-3, steps=2000))
    for column in (0, 2, 3):  # r, p_r, p_phi frozen
        assert np.max(np.abs(traj.states[:, column] - traj.states[0, column])) < 1e-10
    measured = (traj.states[-1, 1] - traj.states[0, 1]) / traj.times[-1]
    assert measured == pytest.approx(model.phi_rate(1.0), abs=1e-8)
    drift = constraint_drift(traj)
    assert drift["C"].max_residual < 1e-8 and drift["chi"].max_residual < 1e-8


def test_dirac_flow_requires_surface_start():
    model = KlauderModel(alpha=1.0, k=1.0)
    off = model.polar_chart.point([2.0, 0.0, 3.0, 1.0])
    with pytest.raises(UsageError, match="constraint surface"):
        evolve(off, DiracFlow(model.hamiltonian(), model.constraint_set),
               IntegratorConfig(dt=1e-3, steps=10))


def test_dirac_flow_with_ramped_gauge_parameter():
    # k(t) = k0 + k1 t drags the orbit radius along r*(t); the flow's explicit-time
    # correction keeps both constraints pinned
    model = KlauderModel(alpha=1.0, k=KRamp(1.0, 0.5), potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.0, p_phi=2.0)
    traj = evolve(x0, DiracFlow(model.hamiltonian(), model.constraint_set),
                  IntegratorConfig(dt=1e-3, steps=2000))
    drift = constraint_drift(traj)
    assert drift["chi"].max_residual < 1e-9
    assert drift["C"].max_residual < 1e-9
    # the closed form r*(t) = ((k(t)^2 + p_phi^2) / alpha^2)^(1/4)
    expected_r = np.array([((model.k(t) ** 2 + 2.0 ** 2) / model.alpha ** 2) ** 0.25
                           for t in traj.times])
    assert np.max(np.abs(traj.states[:, 0] - expected_r)) < 1e-8  # non-circular orbit


def test_zero_hamiltonian_identity():
    zero = polynomial_field(FLAT, [], name="H0")
    x0 = FLAT.point([1.0, 2.0])
    traj = evolve(x0, PoissonFlow(zero), IntegratorConfig(dt=0.1, steps=50))
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


def test_zero_steps_single_row():
    h = polynomial_field(FLAT, [(0.5, (0, 2))], name="kinetic")
    traj = evolve(FLAT.point([1.0, 2.0]), PoissonFlow(h), IntegratorConfig(dt=0.1, steps=0))
    assert len(traj) == 1
    assert np.array_equal(traj.states[0], [1.0, 2.0])


def test_energy_conservation_long_run():
    h = polynomial_field(FLAT, [(0.5, (2, 0)), (0.5, (0, 2))], name="oscillator")
    traj = evolve(FLAT.point([1.0, 0.0]), PoissonFlow(h),
                  IntegratorConfig(dt=1e-3, steps=10000))
    values = traj.generator_values
    assert np.max(np.abs(values - values[0])) / max(1.0, abs(values[0])) < 1e-8


def test_blowup_detected():
    # H = -q p gives dp/dt = p: exponential escape past the 1e12 guard
    h = polynomial_field(FLAT, [(-1.0, (1, 1))], name="hyperbolic")
    x0 = FLAT.point([1.0, 10.0])
    with pytest.raises(NumericDomainError, match="blew up"):
        evolve(x0, PoissonFlow(h), IntegratorConfig(dt=0.5, steps=10000))


def test_nan_state_is_rejected():
    # H = q^2/2 + sqrt(1 - p): the closed-form gradient turns NaN once p passes 1
    def func(z):
        return 0.5 * z[0] ** 2 + (math.sqrt(1.0 - z[1]) if z[1] <= 1.0 else math.nan)

    def grad(z):
        return np.array([z[0], -0.5 / math.sqrt(1.0 - z[1]) if z[1] < 1.0 else math.nan])

    h = ScalarField("sqrt_wall", FLAT, func, grad)
    x0 = FLAT.point([1.0, 0.0])
    with pytest.raises(NumericDomainError, match="NaN"):
        evolve(x0, PoissonFlow(h), IntegratorConfig(dt=0.01, steps=1000))


def test_nan_in_a_later_coordinate_is_a_blow_up_at_its_step():
    # H = p: q moves at unit speed and dH/dq turns NaN once q passes 0.503, in the second
    # stage of step 50; p, the last coordinate, is NaN after it while q stays finite
    def grad(z):
        return [math.nan if z[0] > 0.503 else 0.0, 1.0]

    h = ScalarField("nan_wall", FLAT, lambda z: z[1], grad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDomainError, match=r"blew up at t=0\.51 \(.* or NaN\)"):
            evolve(FLAT.point([0.0, 1.0]), PoissonFlow(h), IntegratorConfig(dt=0.01, steps=100))


def test_degeneracy_mid_run_keeps_partial_trajectory():
    # drive the radial pair toward the excluded origin: k(t) ramps down through 0
    # with p_phi = 0 the pairing matrix det -> 0 as r -> 0
    model = KlauderModel(alpha=1.0, k=KRamp(0.05, -1.0))
    chart = model.polar_chart
    x0 = model.embed_reduced(phi=0.0, p_phi=0.0)
    with pytest.raises(DegeneracyError) as err:
        evolve(x0, DiracFlow(model.hamiltonian(), model.constraint_set),
               IntegratorConfig(dt=1e-3, steps=2000))
    partial = err.value.partial_trajectory
    assert partial is not None and 1 <= len(partial) < 2001


def test_partial_trajectory_values_equal_the_per_state_values():
    # the batch route of the finalisation, on the partial trajectory of the k = 0.05 - t orbit
    model = KlauderModel(alpha=1.0, k=KRamp(0.05, -1.0))
    h, cs = model.hamiltonian(), model.constraint_set
    with pytest.raises(DegeneracyError) as err:
        evolve(model.embed_reduced(phi=0.0, p_phi=0.0), DiracFlow(h, cs),
               IntegratorConfig(dt=1e-3, steps=2000))
    partial = err.value.partial_trajectory
    assert len(partial) > 1
    expected = np.array([float(h.func(z)) for z in partial.states])
    assert partial.generator_values.tobytes() == expected.tobytes()
    for j, (name, f) in enumerate(zip(cs.names, cs.fields)):
        ramp = cs.time_ramps[j]
        values = [float(f.func(z)) + (0.0 if ramp is None else ramp.offset(t))
                  for t, z in zip(partial.times.tolist(), partial.states)]
        assert partial.residuals[name].tobytes() == np.abs(values).tobytes()


def test_dirac_vector_field_is_the_dirac_bracket(rng):
    # dz_i/dt = {z_i, H}_D: the flow and the bracket share one pairing solve
    model = KlauderModel(alpha=1.3, k=0.7, potential=RadialPotential((0.0, 0.4, 0.1)))
    chart, cs, h = model.polar_chart, model.constraint_set, model.hamiltonian()
    rhs = _dirac_rhs(DiracFlow(h, cs), chart.n_pairs)
    coords = [coordinate_field(chart, label) for label in chart.labels]
    for x in model.sample_surface(rng, 20):
        expected = [dirac_bracket(z, h, cs, x) for z in coords]
        assert np.max(np.abs(float_rhs(rhs, 0.0, x.coords) - expected)) < 1e-12
    # near the excluded origin with p_r = p_phi = 0, det M = alpha^4 r^4 is below the guard
    x = chart.point([1e-4, 0.3, 0.0, 0.0])
    with pytest.raises(DegeneracyError, match="not Second Class"):
        rhs(0.0, x.coords.tolist())
    with pytest.raises(DegeneracyError, match="not Second Class"):
        dirac_bracket(coords[1], h, cs, x)


def float_rhs(rhs, t, z):
    """A chart flow's right-hand side at the float list of the array ``z``, checked to
    return a list of Python floats, as an array."""
    k = rhs(t, z.tolist())
    assert type(k) is list and all(type(v) is float for v in k), k
    return np.array(k)


def ordered_dot(x, y):
    """x . y summed in index order from +0.0, one rounding per product and per sum."""
    total = 0.0
    for a, b in zip(x, y):
        total = total + a * b
    return total


def reference_dirac_rhs(flow, n):
    """The Dirac right-hand side written out with the numpy guard scale, np.stack and
    explicit loops for every sum, so that no BLAS kernel picks its rounding."""
    h, cs = flow.hamiltonian, flow.constraints

    def rhs(t, z):
        gh = h.gradient_at(z)
        rows = reference_gradient_rows(cs, z)
        q, p = rows[:, :n], rows[:, n:]
        s = np.array([ordered_dot(qi, gh[n:]) - ordered_dot(pi, gh[:n]) for qi, pi in zip(q, p)])
        if cs.time_dependent:
            s = s + cs.rates_at(t)
        a = np.array([[ordered_dot(qi, pj) for pj in p] for qi in q])
        m = a - a.T
        det = float(m[0, 1] * m[0, 1]) if len(m) == 2 else float(np.linalg.det(m))
        if not abs(det) > DEGENERACY_RTOL * reference_degeneracy_scale(m):
            raise DegeneracyError("reference guard", det=det, coords=z)
        lam = (np.array([-s[1] / m[0, 1], s[0] / m[0, 1]]) if len(m) == 2
               else np.linalg.solve(m, s))
        # sum_I lam_I rows_I per entry: index order from the first product, no fused
        # multiply-add, as no BLAS kernel is bound to sum it
        correction = np.empty(2 * n)
        for j in range(2 * n):
            total = lam[0] * rows[0, j]
            for i in range(1, len(lam)):
                total = total + lam[i] * rows[i, j]
            correction[j] = total
        effective = gh - correction
        return np.concatenate([effective[n:], -effective[:n]])

    return rhs


def dirac_flows():
    """(flow, x0): static-k and ramped-k Klauder orbits, a four-constraint custom flow
    whose pairing solve takes the LU route, and a two-constraint flow whose gradients come
    from a coordinate field's array and from the dual pass."""
    for k in (1.0, KRamp(1.0, 0.5)):
        model = KlauderModel(alpha=1.0, k=k, potential=RadialPotential.harmonic())
        yield DiracFlow(model.hamiltonian(), model.constraint_set), model.embed_reduced(0.1, 2.0)
    h = ((0.5, (0, 0, 2, 0, 0, 0)), (0.5, (0, 0, 0, 0, 0, 2)), (1.0, (1, 0, 0, 0, 0, 1)))
    flow, _ = CUSTOM_FOUR.flow("dirac", hamiltonian=h)
    # on the surface: q1 = -q2 p3, p1 = 0, q2 = -q3^2 / 2, p2 = -q3^2 at q3 = 0.5, p3 = 0.25
    yield flow, CUSTOM_FOUR.chart.point([0.03125, -0.125, 0.5, 0.0, -0.25, 0.25])
    # q1 = 0 and p1 + q1 q2 = 0 (no grad) leave the (q2, p2) surface, where q1 p2 pushes p1
    h = polynomial_field(DENSE_CHART, [(0.5, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2)),
                                       (0.5, (0, 2, 0, 0)), (0.2, (1, 0, 0, 1))], name="H")
    cs = ConstraintSet(DENSE_CHART, (
        coordinate_field(DENSE_CHART, "q1"),
        ScalarField("p1 + q1 q2", DENSE_CHART, lambda z: z[2] + z[0] * z[1])),
        ("q1", "p1 + q1 q2"))
    yield DiracFlow(h, cs), DENSE_CHART.point([0.0, 0.6, 0.0, -0.4])


@pytest.mark.parametrize("index", range(4))
def test_dirac_rhs_equals_the_reference_bitwise_over_200_steps(index):
    flow, x0 = list(dirac_flows())[index]
    n, dt = flow.chart.n_pairs, 1e-3
    rhs, reference = _dirac_rhs(flow, n), reference_dirac_rhs(flow, n)

    def both(t, z):
        k = float_rhs(rhs, t, z)
        assert k.tobytes() == reference(t, z).tobytes()
        return k

    z = np.array(x0.coords)
    for i in range(200):  # evolve's RK4 step, every stage checked
        t = i * dt
        k1 = both(t, z)
        k2 = both(t + 0.5 * dt, z + (0.5 * dt) * k1)
        k3 = both(t + 0.5 * dt, z + (0.5 * dt) * k2)
        k4 = both(t + dt, z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    traj = evolve(x0, flow, IntegratorConfig(dt=dt, steps=200))
    assert traj.states[-1].tobytes() == z.tobytes()
    assert max(np.max(v) for v in traj.residuals.values()) < 1e-9



def rk4_states(stage, x0, dt, steps):
    """The RK4 loop on float64 arrays with a bare right-hand side ``stage``; returns
    every state, a (steps + 1, dim) array."""
    z = np.array(x0.coords)
    states = [z]
    for i in range(steps):
        t = i * dt
        k1 = stage(t, z)
        k2 = stage(t + 0.5 * dt, z + (0.5 * dt) * k1)
        k3 = stage(t + 0.5 * dt, z + (0.5 * dt) * k2)
        k4 = stage(t + dt, z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(z)
    return np.array(states)


QUARTIC = RadialPotential((0.3, -1.2, 0.5, 0.7, -0.2))
KLAUDER_FLOAT_CASES = {  # (alpha, k, U, p_phi) of a two-constraint Dirac orbit
    "alpha_0.3": (0.3, 1.0, RadialPotential.harmonic(), 2.0),
    "alpha_1.7": (1.7, 1.0, RadialPotential.harmonic(), 2.0),
    "quartic_U": (1.0, 1.0, QUARTIC, 2.0),
    "negative_ramp_slope": (1.0, KRamp(1.0, -0.5), RadialPotential.harmonic(), 2.0),
    "negative_p_phi": (1.0, KRamp(1.0, 0.5), RadialPotential.harmonic(), -2.0),
    # k = 0 puts p_r = 0 on the surface: exact zeros, and -0.0 products, in every row
    "k_0": (1.0, 0.0, RadialPotential.harmonic(), 1.3),
}


@pytest.mark.parametrize("case", KLAUDER_FLOAT_CASES)
def test_float_dirac_rhs_equals_the_reference_bitwise(case):
    alpha, k, potential, p_phi = KLAUDER_FLOAT_CASES[case]
    model = KlauderModel(alpha=alpha, k=k, potential=potential)
    flow, x0 = DiracFlow(model.hamiltonian(), model.constraint_set), model.embed_reduced(0.1, p_phi)
    n, dt = flow.chart.n_pairs, 1e-3
    rhs, reference = _dirac_rhs(flow, n), reference_dirac_rhs(flow, n)

    def both(t, z):
        k = float_rhs(rhs, t, z)
        assert k.tobytes() == reference(t, z).tobytes()
        return k

    z = rk4_states(both, x0, dt, 200)[-1]
    assert evolve(x0, flow, IntegratorConfig(dt=dt, steps=200)).states[-1].tobytes() == z.tobytes()


def array_stage(flow):
    """The flow's right-hand side on float64 arrays, as numpy builds it: J grad G from
    gradient_at, and the reference Dirac rhs."""
    n = flow.chart.n_pairs
    if isinstance(flow, DiracFlow):
        return reference_dirac_rhs(flow, n)
    field = flow.hamiltonian if isinstance(flow, PoissonFlow) else flow.generator

    def stage(t, z):
        g = field.gradient_at(z)
        vector_field = np.concatenate([g[n:], -g[:n]])
        if isinstance(flow, GaugeFlow):
            return flow.multiplier_at(t) * vector_field
        return vector_field

    return stage


def float_step_flows():
    """(flow, x0, monitor) for each kind of chart flow that evolve steps on Python floats."""
    oscillator = polynomial_field(FLAT, [(0.5, (0, 2)), (0.5, (2, 0)), (0.25, (4, 0)),
                                         (-0.1, (3, 1))], name="anharmonic")
    yield (PoissonFlow(oscillator), FLAT.point([1.2, -0.4]),
           ConstraintSet(FLAT, (polynomial_field(FLAT, [(1.0, (1, 1))], name="qp"),), ("qp",)))
    particle = RelativisticParticle(mass=1.3, spatial_dim=3)
    yield (PoissonFlow(particle.physical_hamiltonian),
           particle.spatial_chart.point([0.1, -0.2, 0.3, 0.7, -1.1, 0.4]), None)
    model = KlauderModel(alpha=1.0, k=0.0)
    yield (GaugeFlow(model.cartesian_generator, np.polynomial.Polynomial([0.5, -1.0, 0.3])),
           model.cartesian_chart.point([0.8, -0.3, 0.8, 0.3]), cartesian_monitor(model))
    for flow, x0 in list(dirac_flows())[:2]:  # static and ramped k
        yield flow, x0, None


@pytest.mark.parametrize("index", range(5))
def test_float_step_equals_the_array_step_bitwise(index):
    flow, x0, monitor = list(float_step_flows())[index]
    dt, steps = 1e-3, 300
    states = rk4_states(array_stage(flow), x0, dt, steps)
    times = np.array([i * dt for i in range(steps + 1)])
    traj = evolve(x0, flow, IntegratorConfig(dt=dt, steps=steps), monitor=monitor)
    factory = {PoissonFlow: _poisson_rhs, GaugeFlow: _gauge_rhs, DiracFlow: _dirac_rhs}
    rhs, stage = factory[type(flow)](flow, flow.chart.n_pairs), array_stage(flow)
    for t, z in zip(times[::30].tolist(), states[::30]):
        assert float_rhs(rhs, t, z).tobytes() == stage(t, z).tobytes()
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()
    generator = flow.generator if isinstance(flow, GaugeFlow) else flow.hamiltonian
    expected = np.array([float(generator.func(z)) for z in states])
    assert traj.generator_values.tobytes() == expected.tobytes()
    watched = flow.constraints if isinstance(flow, DiracFlow) else monitor
    expected = {} if watched is None else watched.residual_series(times, states)
    assert traj.residuals.keys() == expected.keys()
    for name, series in expected.items():
        assert traj.residuals[name].tobytes() == series.tobytes(), name


# two constraints where q_A . p_B, the brackets {Phi_I, H} and the q2 and p2 entries of the
# correction each sum two nonzero products
DENSE_CHART = ChartSpec(labels=("q1", "q2", "p1", "p2"), name="dense")
DENSE_FLOW = DiracFlow(
    polynomial_field(DENSE_CHART, [(0.5, (0, 0, 2, 0)), (0.5, (0, 0, 0, 2)), (0.5, (2, 0, 0, 0)),
                                   (0.5, (0, 2, 0, 0)), (0.3, (1, 1, 1, 1))], name="H"),
    ConstraintSet(DENSE_CHART, (
        polynomial_field(DENSE_CHART, [(1.0, (1, 0, 0, 0)), (0.3, (0, 1, 0, 0)),
                                       (0.2, (0, 0, 0, 1)), (0.1, (1, 0, 0, 1))], name="A"),
        polynomial_field(DENSE_CHART, [(1.0, (0, 0, 1, 0)), (0.4, (0, 1, 0, 0)),
                                       (-0.25, (0, 0, 0, 1)), (0.15, (0, 1, 1, 0))], name="B")),
        ("A", "B")))


def test_float_dirac_rhs_of_dense_rows_equals_the_reference_bitwise():
    # a sum of two nonzero products is what a fused multiply-add rounds differently
    n, dt = 2, 1e-3
    rhs, reference = _dirac_rhs(DENSE_FLOW, n), reference_dirac_rhs(DENSE_FLOW, n)

    def both(t, z):
        k = float_rhs(rhs, t, z)
        assert k.tobytes() == reference(t, z).tobytes()
        return k

    rk4_states(both, DENSE_CHART.point([0.3, -0.2, 0.5, 0.7]), dt, 200)


THREE = ChartSpec(labels=("q1", "q2", "q3", "p1", "p2", "p3"), name="three")


@pytest.mark.parametrize("count", [2, 4])
def test_dirac_rhs_keeps_the_sign_of_a_zero_correction(count):
    # Phi = (q2, p2[, q3, p3]) and H = -q2 - p2 - q3 - p3 give lam_I = -1: each q1 product
    # is -0.0, so the correction is -0.0 and dH/dq1 = -0.0 less it is +0.0, where a
    # sum seeded with +0.0 would give -0.0
    h = ScalarField("H", THREE, lambda z: -z[1] - z[2] - z[4] - z[5],
                    lambda z: [-0.0, -1.0, -1.0, 0.0, -1.0, -1.0])
    labels = ("q2", "p2", "q3", "p3")[:count]
    cs = ConstraintSet(THREE, tuple(coordinate_field(THREE, label) for label in labels), labels)
    flow, z = DiracFlow(h, cs), np.zeros(6)
    k = float_rhs(_dirac_rhs(flow, 3), 0.0, z)
    assert k.tobytes() == reference_dirac_rhs(flow, 3)(0.0, z).tobytes()
    assert repr(float(k[3])) == "-0.0"  # dp1/dt = -(dH/dq1 - correction)


def unchecked_point(chart, coords):
    """A PhaseSpacePoint past its validation: an RK4 stage is a bare array, so the
    rhs can meet coordinates that no validated point holds."""
    x = object.__new__(PhaseSpacePoint)
    object.__setattr__(x, "chart", chart)
    object.__setattr__(x, "coords", np.array(coords, dtype=float))
    return x


LINE = ChartSpec(labels=("q", "p"), name="line")
KLAUDER = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.harmonic())
TINY_PAIRING = DiracFlow(polynomial_field(LINE, [(0.5, (0, 2))], name="H"), ConstraintSet(
    LINE, (polynomial_field(LINE, [(1e-170, (1, 0))], name="A"), coordinate_field(LINE, "p")),
    ("A", "p")))
FLOAT_FAILURES = {  # (flow, coords, message): where the two-constraint pairing fails
    # det M = alpha^4 r^4 is below the guard
    "near_origin": (DiracFlow(KLAUDER.hamiltonian(), KLAUDER.constraint_set),
                    [1e-4, 0.3, 0.0, 0.0], r"is singular \(det=1\.000e-16\)"),
    # r r = 1e-320 is subnormal and 1/(r r) overflows to inf inside the closed forms
    "overflowing_gradient": (DiracFlow(KLAUDER.hamiltonian(), KLAUDER.constraint_set),
                             [1e-160, 0.3, 0.5, 1.0], "has a non-finite entry"),
    # M_01 = 1e-170, and det M = M_01^2 underflows to 0
    "underflowing_det": (TINY_PAIRING, [0.5, 0.25], r"is singular \(det=0\.000e\+00\)"),
    "nan_coordinate": (DiracFlow(KLAUDER.hamiltonian(), KLAUDER.constraint_set),
                       [1.0, 0.3, math.nan, 1.0], "has a non-finite entry"),
    # M_01 = 1, but q.p = 1e200 * 1e200 of the first row overflows: M_00 = inf - inf is
    # the NaN that fails the guard, where a literal zero diagonal would pass it
    "nan_diagonal": (DiracFlow(coordinate_field(DENSE_CHART, "p2"), ConstraintSet(DENSE_CHART, (
        polynomial_field(DENSE_CHART, [(1e200, (1, 0, 0, 0)), (1e200, (0, 0, 1, 0))], name="A"),
        polynomial_field(DENSE_CHART, [(1e-200, (0, 0, 1, 0))], name="B")), ("A", "B"))),
        [0.5, 0.25, -0.5, 1.0], "has a non-finite entry"),
}


@pytest.mark.parametrize("case", FLOAT_FAILURES)
def test_float_dirac_rhs_fails_as_dirac_tensor_does(case):
    flow, coords, message = FLOAT_FAILURES[case]
    rhs = _dirac_rhs(flow, flow.chart.n_pairs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on either route
        with pytest.raises(DegeneracyError, match=message) as float_route:
            rhs(0.0, coords)
        with pytest.raises(DegeneracyError) as tensor_route:
            dirac_tensor(flow.constraints, unchecked_point(flow.chart, coords))
    assert str(float_route.value) == str(tensor_route.value)
    assert isinstance(float_route.value.det, float) and isinstance(tensor_route.value.det, float)
    assert repr(float_route.value.det) == repr(tensor_route.value.det)  # repr equates NaNs


def test_float_dirac_rhs_keeps_the_partial_trajectory_on_a_nonfinite_row():
    # Phi = (q2, p2 - sqrt(1 - q1)) with H = p1: q1 moves at unit speed, and the
    # gradient of the second constraint turns NaN at q1 = 1, at step 100 of 200
    def wall(z):  # one state or a (4, B) block of states
        return np.where(z[0] <= 1.0, z[3] - np.sqrt(np.maximum(1.0 - z[0], 0.0)), math.nan)

    def wall_grad(z):
        q1 = float(z[0])
        return [0.5 / math.sqrt(1.0 - q1) if q1 < 1.0 else math.nan, 0.0, 0.0, 1.0]

    cs = ConstraintSet(DENSE_CHART, (coordinate_field(DENSE_CHART, "q2"),
                                     ScalarField("wall", DENSE_CHART, wall, wall_grad)),
                       ("q2", "wall"))
    flow = DiracFlow(coordinate_field(DENSE_CHART, "p1"), cs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match="has a non-finite entry") as err:
            evolve(DENSE_CHART.point([0.0, 0.0, 0.0, 1.0]), flow,
                   IntegratorConfig(dt=0.01, steps=200))
    partial = err.value.partial_trajectory
    assert partial is not None and len(partial) == 100  # step 99 reaches q1 = 1 in its last stage
    assert np.all(np.isfinite(partial.states)) and partial.states[-1, 0] < 1.0
    with pytest.raises(DegeneracyError) as tensor_route:
        dirac_tensor(cs, unchecked_point(DENSE_CHART, err.value.coords))
    assert str(tensor_route.value) == str(err.value)


def test_concurrent_dirac_orbits_keep_the_bytes_of_their_solo_runs():
    # a right-hand side keeps no state between calls; a thread switch every microsecond
    # interleaves the two orbits' stages
    cfg = IntegratorConfig(dt=1e-3, steps=1000)
    runs = list(dirac_flows())[:2]  # static and ramped k
    solo = [evolve(x0, flow, cfg).states.tobytes() for flow, x0 in runs]
    together = [None, None]
    barrier = threading.Barrier(2)

    def run(j):
        barrier.wait(timeout=60)
        together[j] = evolve(runs[j][1], runs[j][0], cfg).states.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert together == solo


def reference_trajectory_rows(traj):
    """The per-element row builder: float() of every entry."""
    res_names = list(traj.residuals.keys())
    rows = []
    for i in range(len(traj)):
        row = [float(traj.times[i]), *map(float, traj.states[i])]
        row += [float(traj.residuals[n][i]) for n in res_names]
        row.append(float(traj.generator_values[i]))
        rows.append(row)
    return rows


def test_trajectory_rows_equal_the_per_element_builder():
    cfg = IntegratorConfig(dt=1e-3, steps=300)
    flow, x0 = next(dirac_flows())
    trajectories = [evolve(x0, flow, cfg)]
    # the k = 0.05 - t orbit degenerates mid-run and keeps its good steps
    model = KlauderModel(alpha=1.0, k=KRamp(0.05, -1.0))
    with pytest.raises(DegeneracyError) as err:
        evolve(model.embed_reduced(0.0, 0.0),
               DiracFlow(model.hamiltonian(), model.constraint_set), cfg)
    trajectories.append(err.value.partial_trajectory)
    particle = RelativisticParticle(mass=4.0, spatial_dim=3)
    flow, _ = particle.flow("poisson")
    trajectories.append(evolve(particle.initial_point(x=[0.0, -1.0, 2.0], p=[3.0, 0.0, 0.0]),
                               flow, cfg))
    assert 1 < len(trajectories[1]) < 301
    for traj in trajectories:
        rows, expected = _trajectory_rows(traj), reference_trajectory_rows(traj)
        # repr tells 1 from 1.0 and -0.0 from 0.0, and equates NaNs
        assert [list(map(repr, row)) for row in rows] == [list(map(repr, row)) for row in expected]


def test_residual_series_equals_the_per_state_reference_bitwise():
    cfg = IntegratorConfig(dt=1e-3, steps=300)
    cases = [(flow.constraints, evolve(x0, flow, cfg)) for flow, x0 in dirac_flows()]
    model = KlauderModel(alpha=1.0, k=KRamp(0.05, -1.0))
    with pytest.raises(DegeneracyError) as err:
        evolve(model.embed_reduced(0.0, 0.0),
               DiracFlow(model.hamiltonian(), model.constraint_set), cfg)
    cases.append((model.constraint_set, err.value.partial_trajectory))
    # static and ramped Klauder, the four-constraint custom set, the (q2, p2) surface set,
    # the partial k = 0.05 - t orbit
    assert [(len(cs), cs.time_dependent) for cs, _ in cases] == \
        [(2, False), (2, True), (4, False), (2, False), (2, True)]
    for cs, traj in cases:
        series = cs.residual_series(traj.times, traj.states)
        reference = np.stack([np.abs(cs.values_along([t], [z])[0])
                              for t, z in zip(traj.times, traj.states)])
        assert list(series) == list(cs.names)
        for j, name in enumerate(cs.names):
            assert series[name].tobytes() == reference[:, j].tobytes(), name


# -- trajectory bookkeeping ---------------------------------------------------------

def test_trajectory_invariants():
    h = polynomial_field(FLAT, [(0.5, (0, 2))], name="free")
    traj = evolve(FLAT.point([0.0, 1.0]), PoissonFlow(h), IntegratorConfig(dt=0.1, steps=5))
    assert len(traj.times) == len(traj.states) == 6
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states[-1, 0] == pytest.approx(0.5, abs=1e-12)


def test_constraint_drift_constant_trajectory():
    model = KlauderModel(alpha=1.0, k=1.0)
    x0 = model.embed_reduced(0.0, 1.0)
    traj = evolve(x0, PoissonFlow(polynomial_field(model.polar_chart, [])),
                  IntegratorConfig(dt=0.1, steps=10), monitor=model.constraint_set)
    drift = constraint_drift(traj)
    assert drift["C"].max_residual < 1e-12
    assert abs(drift["C"].growth_rate) < 1e-12


def exact_slope(times, values):
    """The least-squares slope of the stored floats, in exact rationals."""
    t, y = [list(map(Fraction, v.tolist())) for v in (times, values)]
    t_bar, y_bar = sum(t) / len(t), sum(y) / len(y)
    return (sum((a - t_bar) * (b - y_bar) for a, b in zip(t, y))
            / sum((a - t_bar) ** 2 for a in t))


# numpy's pairwise sum rounds a partial sum holding a term at most 26 + log2(n / 128) times
# for n > 128 (8 accumulators over blocks of 128, then halving): 28 at n = 301, 32 at 5001.
# Twice that, for the numerator and the denominator, plus the centring, product and
# quotient roundings, stays under 80 u; measured at most 0.6 u
DRIFT_ULPS = 80


@pytest.mark.parametrize("index", range(4))
def test_drift_rate_is_within_the_pairwise_sum_bound_of_the_exact_slope(index):
    # |rate - exact| <= DRIFT_ULPS u sum |t - tbar| (|y - y0| + |y - ybar|) / sum (t - tbar)^2
    flow, x0 = list(dirac_flows())[index]
    traj = evolve(x0, flow, IntegratorConfig(dt=1e-3, steps=300))
    tc = traj.times - np.mean(traj.times)
    for name, stats in constraint_drift(traj).items():
        y = traj.residuals[name]
        scale = np.sum(np.abs(tc) * (np.abs(y - y[0]) + np.abs(y - np.mean(y)))) / np.sum(tc * tc)
        error = abs(Fraction(stats.growth_rate) - exact_slope(traj.times, y))
        assert error <= Fraction(DRIFT_ULPS * 2.0 ** -53 * scale), name


def test_drift_rate_of_a_constant_residual_is_zero_at_any_time_step():
    # at dt = 1e-160 the ramped orbit's |C| stays 2.2e-16 over 3 steps; a fit that left
    # rounding noise of eps |C| / T reported a slope of -4.5e128
    flow, x0 = list(dirac_flows())[1]
    traj = evolve(x0, flow, IntegratorConfig(dt=1e-160, steps=3))
    c = traj.residuals["C"]
    assert np.all(c == c[0]) and c[0] > 0.0
    assert {name: repr(stats.growth_rate) for name, stats in constraint_drift(traj).items()} \
        == {"C": "0.0", "chi": "0.0"}


# -- config validation ---------------------------------------------------------------

def test_integrator_config_validation():
    with pytest.raises(UsageError):
        IntegratorConfig(dt=0.0, steps=5)
    with pytest.raises(UsageError):
        IntegratorConfig(dt=0.1, steps=-1)


@pytest.mark.parametrize("steps", [2.5, 3.0, "3"])
def test_integrator_config_rejects_non_integer_steps(steps):
    with pytest.raises(UsageError, match="steps must be an integer"):
        IntegratorConfig(dt=1e-3, steps=steps)


def test_integrator_config_takes_integer_like_steps():
    cfg = IntegratorConfig(dt=1e-3, steps=np.int64(3))
    assert len(evolve(FLAT.point([1.0, 0.0]), PoissonFlow(polynomial_field(FLAT, [])), cfg)) == 4


def test_dirac_flow_rejects_odd_or_empty_sets():
    model = KlauderModel(alpha=1.0, k=1.0)
    alone = ConstraintSet(model.polar_chart, (model.constraint,), ("C",))
    x0 = model.embed_reduced(0.0, 1.0)
    with pytest.raises(UsageError):
        evolve(x0, DiracFlow(model.hamiltonian(), alone), IntegratorConfig(dt=0.1, steps=1))


def test_constraint_drift_recomputed_equals_recorded():
    # the recorded residuals and the recomputed ones come from one residual series
    ramped = KlauderModel(alpha=1.0, k=KRamp(1.0, 0.5), potential=RadialPotential.harmonic())
    traj = evolve(ramped.embed_reduced(0.2, 1.3),
                  DiracFlow(ramped.hamiltonian(), ramped.constraint_set),
                  IntegratorConfig(dt=1e-2, steps=50))
    assert constraint_drift(traj, ramped.constraint_set) == constraint_drift(traj)
    model = KlauderModel(alpha=1.0, k=1.0)
    traj = evolve(model.embed_reduced(0.0, 1.0), PoissonFlow(model.hamiltonian()),
                  IntegratorConfig(dt=1e-2, steps=50), monitor=model.constraint_set)
    assert constraint_drift(traj, model.constraint_set) == constraint_drift(traj)


def test_trajectory_keeps_the_integrator_arrays_without_a_copy():
    # the states array is the only trajectory-sized allocation: the lattice's spectral RK4
    # writes each block of steps into its rows and records the residuals block by block
    # (a chart flow's Python floats would each be traced, so the lattice's flow is measured)
    model = LatticeMaxwell(side=8)
    rng = np.random.default_rng(3)
    a0, e0 = model.random_transverse(rng, 0.1), model.random_transverse(rng, 0.1)
    assert model.chart.dim == 3072  # its labels are built once per lattice, before tracing
    tracemalloc.start()
    try:
        traj = model.evolve(a0, e0, IntegratorConfig(dt=1e-3, steps=300))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * traj.states.nbytes

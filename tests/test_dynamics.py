import ast
import inspect
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import cli, duals, kernels
from diracmech.constraints import (DEGENERACY_RTOL, ConstraintSet, _pairing_multipliers,
                                   classify, dirac_bracket, dirac_tensor, pairing_matrix_of_rows)
from diracmech.dynamics import (BLOWUP_LIMIT, RUN_BLOCK, DiracFlow, GaugeFlow,
                                IntegratorConfig, PoissonFlow, _generated, _kernel_args,
                                constraint_drift, evolve, gauge_orbit_closed_form)
from diracmech.errors import DegeneracyError, NumericDomainError, UsageError
from diracmech.fields import ScalarField, coordinate_field, polynomial_field
from diracmech.models import (KlauderModel, KRamp, LatticeMaxwell, RadialPotential,
                              RelativisticParticle)
from diracmech.phase import ChartSpec, PhaseSpacePoint

from conftest import array_twin, array_twin_set
from test_batch import outcome
from test_constraints import (CUSTOM_FOUR, reference_degeneracy_scale, reference_elimination,
                              reference_gradient_rows)

def standalone_rhs(flow, n):
    """The flow's generated rhs(t, z) on n pairs, from the arguments ``evolve`` binds its RK4
    loop with: the oracle of each stage of that loop."""
    kind, k, args, _ = _kernel_args(flow)
    return _generated(kind, n, k)(*args)


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
    # lambda(t) = 1 - t^2 / 2 accumulates T = t - t^3 / 6 = 5/6 by t = 1
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([0.8, -0.3, 0.8, 0.3])
    traj = evolve(x0, GaugeFlow(model.cartesian_generator, (1.0, 0.0, -0.5)),
                  IntegratorConfig(dt=1e-3, steps=1000))
    q, p = gauge_orbit_closed_form([0.8, -0.3], [0.8, 0.3], 1.0, 5.0 / 6.0)
    assert np.max(np.abs(traj.states[-1] - np.concatenate([q, p]))) < 1e-8


POLY_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -1e308, 1e308, math.inf]) | st.floats(
    allow_nan=False)


@given(st.lists(POLY_FLOATS, min_size=1, max_size=6),
       st.sampled_from([0.0, -0.0, 1e-300, -2.5, 1e200]) | st.floats(-1e3, 1e3))
@settings(max_examples=300, deadline=None)
def test_polynomial_multiplier_gives_the_bits_of_numpys_polynomial(coeffs, t):
    # the generated rhs runs Horner on Python floats: float(Polynomial(c)(t)) times the
    # gradient's entries
    model = KlauderModel(alpha=1.0, k=0.0)
    rhs = standalone_rhs(GaugeFlow(model.cartesian_generator, coeffs), 2)
    z = [0.8, -0.3, 0.8, 0.3]
    g = model.cartesian_generator._gradient(z)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lam = float(np.polynomial.Polynomial(coeffs)(t))
        expected = [lam * g[2], lam * g[3], lam * -g[0], lam * -g[1]]
        got = rhs(t, z)
    assert np.array(got).tobytes() == np.array(expected).tobytes()


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


@pytest.mark.parametrize("start", [[0.8, -0.3, 0.8, 0.3], [-0.0, 0.5, 0.7, -0.0], [-0.0] * 4,
                                   [0.0, -0.0, -1.0, 1.0]])
def test_a_null_gauge_flow_keeps_its_start(start):
    # lambda = -0.0 is +0.0, as numpy's Polynomial([-0.0]) evaluates it, so both null flows run
    # the same bits; every state equals the start and keeps the bits of each coordinate that
    # is not -0.0 (-0.0 plus a +0.0 increment is +0.0)
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point(start)
    plus, minus = (evolve(x0, GaugeFlow(model.cartesian_generator, zero),
                          IntegratorConfig(dt=1e-3, steps=20)).states for zero in (0.0, -0.0))
    assert minus.tobytes() == plus.tobytes()
    assert np.all(plus == x0.coords)
    kept = ~((x0.coords == 0.0) & np.signbit(x0.coords))
    assert plus[:, kept].tobytes() == np.tile(x0.coords[kept], (21, 1)).tobytes()


def test_gauge_flow_keeps_its_multiplier_as_float_coefficients():
    generator = KlauderModel(alpha=1.0, k=0.0).cartesian_generator
    assert GaugeFlow(generator).multiplier == (1.0,)
    assert GaugeFlow(generator, 2).multiplier == (2.0,)
    flow = GaugeFlow(generator, [1, np.float64(0.5), -0.25])
    assert flow.multiplier == (1.0, 0.5, -0.25)
    assert all(type(c) is float for c in flow.multiplier)


@pytest.mark.parametrize("multiplier", [math.cos, np.polynomial.Polynomial([1.0]), [], (), "1.0",
                                        None, 1j, [1.0, "2"], np.array([1.0, 0.5])],
                         ids=["callable", "polynomial", "empty_list", "empty_tuple", "string",
                              "none", "complex", "string_coefficient", "array"])
def test_gauge_flow_rejects_a_multiplier_that_is_no_number_or_coefficients(multiplier):
    generator = KlauderModel(alpha=1.0, k=0.0).cartesian_generator
    with pytest.raises(UsageError, match="^a gauge multiplier is a number or a non-empty list"):
        GaugeFlow(generator, multiplier)


# -- fields through the duals lifts ------------------------------------------------

LIFTED = ChartSpec(labels=("q1", "q2", "p1", "p2"), name="lifted")
# Phi = (sqrt(1 + q1 q1) - 1 - p2, p1 + q2): {A, B} = 1 + q1 / sqrt(1 + q1 q1), Second Class
LIFTED_SET = ConstraintSet(LIFTED, (
    ScalarField("A", LIFTED, lambda z: duals.sqrt(1 + z[0] * z[0]) - 1 - z[3]),
    ScalarField("B", LIFTED, lambda z: z[2] + z[1])), ("A", "B"))
LIFTED_START = LIFTED.point([0.5, -0.3, 0.3, math.sqrt(1 + 0.5 * 0.5) - 1])
OSCILLATOR = polynomial_field(LIFTED, [(0.5, powers) for powers in
                                       ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))],
                              name="H")


def assert_series_are_the_per_state_values(traj, generator, watched):
    """The trajectory's generator values and residuals, bitwise ``func`` at each state."""
    per_state = np.array([float(generator.func(z)) for z in traj.states])
    assert traj.generator_values.tobytes() == per_state.tobytes()
    for name, field in zip(watched.names, watched.fields):
        per_state = np.array([abs(float(field.func(z))) for z in traj.states])
        assert traj.residuals[name].tobytes() == per_state.tobytes(), name


def test_a_constraint_through_a_lift_is_classified_and_evolved():
    assert classify(LIFTED_SET, [LIFTED_START], 1e-8).kind == "second_class"
    traj = evolve(LIFTED_START, DiracFlow(OSCILLATOR, LIFTED_SET),
                  IntegratorConfig(dt=1e-3, steps=300))
    assert max(np.max(series) for series in traj.residuals.values()) < 1e-12
    assert_series_are_the_per_state_values(traj, OSCILLATOR, LIFTED_SET)


@pytest.mark.parametrize("flow, monitor, message", [
    (OSCILLATOR, None, "unknown flow spec"),
    # an empty set on another chart: its count is refused first, as it has no field to clash
    (DiracFlow(OSCILLATOR, ConstraintSet(FLAT, (), ())), None, "non-empty, even constraint set"),
    (DiracFlow(OSCILLATOR, ConstraintSet(LIFTED, LIFTED_SET.fields[:1], ("A",))), None,
     "non-empty, even constraint set"),
    (DiracFlow(OSCILLATOR, LIFTED_SET), LIFTED_SET, "already monitors its own constraints"),
    (PoissonFlow(polynomial_field(FLAT, [(1.0, (2, 0))])), None, "different charts"),
], ids=["not_a_flow", "empty_set_on_another_chart", "odd_set", "dirac_monitor", "chart"])
def test_evolve_refuses_a_flow_it_cannot_run(flow, monitor, message):
    with pytest.raises(UsageError, match=message):
        evolve(LIFTED_START, flow, IntegratorConfig(dt=1e-3, steps=1), monitor=monitor)


@pytest.mark.parametrize("func", [lambda z: duals.sqrt(1 + z[2] * z[2] + z[3] * z[3]),
                                  lambda z: duals.exp(z[2]) + 0.5 * z[0] * z[0]],
                         ids=["sqrt", "exp"])
def test_a_hamiltonian_through_a_lift_finishes_its_run(func):
    h = ScalarField("H", LIFTED, func)
    traj = evolve(LIFTED_START, PoissonFlow(h), IntegratorConfig(dt=1e-3, steps=300),
                  monitor=LIFTED_SET)
    assert_series_are_the_per_state_values(traj, h, LIFTED_SET)


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
        values = [float(f.func(z)) + (0.0 if ramp is None else ramp.k0 - ramp(t))
                  for t, z in zip(partial.times.tolist(), partial.states)]
        assert partial.residuals[name].tobytes() == np.abs(values).tobytes()


def test_dirac_vector_field_is_the_dirac_bracket(rng):
    # dz_i/dt = {z_i, H}_D: the flow and the bracket share one pairing solve
    model = KlauderModel(alpha=1.3, k=0.7, potential=RadialPotential((0.0, 0.4, 0.1)))
    chart, cs, h = model.polar_chart, model.constraint_set, model.hamiltonian()
    rhs = standalone_rhs(DiracFlow(h, cs), chart.n_pairs)
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
        for i, ramp in enumerate(cs.time_ramps or ()):
            if ramp is not None and ramp.k1 != 0.0:  # dPhi_I/dt = -k1
                s[i] -= ramp.k1
        a = np.array([[ordered_dot(qi, pj) for pj in p] for qi in q])
        m = a - a.T
        det, lam = ((float(m[0, 1] * m[0, 1]), np.array([-s[1] / m[0, 1], s[0] / m[0, 1]]))
                    if len(m) == 2 else reference_elimination(m, s))
        if not abs(det) > DEGENERACY_RTOL * reference_degeneracy_scale(m):
            raise DegeneracyError("reference guard", det=det, coords=z)
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
    whose pairing solve takes the elimination route, a two-constraint flow whose gradients come
    from a coordinate field and from the dual pass, a twelve-constraint flow and
    a four-constraint flow on 33 pairs, past the unroll limit."""
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
    yield twelve_constraint_flow()
    yield coupled_dirac_flow(WIDE, 4)


@pytest.mark.parametrize("index", range(6))
def test_dirac_rhs_equals_the_reference_bitwise_over_200_steps(index):
    flow, x0 = list(dirac_flows())[index]
    n, dt = flow.chart.n_pairs, 1e-3
    rhs, reference = standalone_rhs(flow, n), reference_dirac_rhs(flow, n)

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
    rhs, reference = standalone_rhs(flow, n), reference_dirac_rhs(flow, n)

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
            return float(np.polynomial.Polynomial(flow.multiplier)(t)) * vector_field
        return vector_field

    return stage


THREE = ChartSpec(labels=("q1", "q2", "q3", "p1", "p2", "p3"), name="three")
# 2n = 66 coordinates, past the unroll limit of the generated right-hand sides and step
WIDE = ChartSpec(labels=tuple(f"{c}{i}" for c in "qp" for i in range(1, 34)), name="wide")


def monomial(chart, coeff, *at):
    """A polynomial term: coeff times the product of the coordinates at indices ``at``."""
    powers = [0] * chart.dim
    for i in at:
        powers[i] += 1
    return coeff, powers


def coupled_dirac_flow(chart, count=2):
    """(flow, x0) for the two-constraint Dirac flow of Phi = (q_n + 0.1 q1 q2,
    p_n + 0.2 p1 + 0.3 p2) under oscillators coupled by 0.3 q1 p2, on a chart of n >= 2
    pairs: {A, B} = 1 + 0.02 q2 + 0.03 q1, and rows with several nonzero products. With
    ``count`` 4 and n >= 6, also C = q_{n-1} + 0.1 q3 q4 + 0.1 q1 p1 and
    D = p_{n-1} + 0.2 p3 + 0.3 p1: {A, D} = 0.03 q2 couples the two pairs, and the p1
    entry of the correction sums three nonzero products."""
    n = chart.n_pairs

    def term(coeff, *at):
        return monomial(chart, coeff, *at)

    h = polynomial_field(chart, [term(0.5, j, j) for j in range(2 * n)] + [term(0.3, 0, n + 1)],
                         name="H")
    fields = [polynomial_field(chart, [term(1.0, n - 1), term(0.1, 0, 1)], name="A"),
              polynomial_field(chart, [term(1.0, 2 * n - 1), term(0.2, n), term(0.3, n + 1)],
                               name="B")]
    z = [0.1 * math.sin(j + 1) for j in range(2 * n)]
    z[n - 1], z[2 * n - 1] = -0.1 * z[0] * z[1], -(0.2 * z[n] + 0.3 * z[n + 1])
    if count == 4:
        fields += [polynomial_field(chart, [term(1.0, n - 2), term(0.1, 2, 3), term(0.1, 0, n)],
                                    name="C"),
                   polynomial_field(chart, [term(1.0, 2 * n - 2), term(0.2, n + 2),
                                            term(0.3, n)], name="D")]
        z[n - 2] = -(0.1 * z[2] * z[3] + 0.1 * z[0] * z[n])
        z[2 * n - 2] = -(0.2 * z[n + 2] + 0.3 * z[n])
    cs = ConstraintSet(chart, tuple(fields), tuple(f.name for f in fields))
    return DiracFlow(h, cs), chart.point(z)


SEVEN = ChartSpec(labels=tuple(f"{c}{i}" for c in "qp" for i in range(1, 8)), name="seven")


def twelve_constraint_flow():
    """(flow, x0) for 12 constraints on 7 pairs that leave (q7, p7) free, ordered so that
    Phi_1 = q1 + 0.2 q7 q2 and Phi_11 = p1 are a conjugate pair: a1_11 and a11_1 would share
    the name a111. H = (z . z) / 2 + 0.3 p1 q7 gives {Phi_1, H} = 0.3 q7 on the surface,
    so lambda_11 = {Phi_1, H} / M_1,11 is not zero."""
    q = {i: i - 1 for i in range(1, 8)}  # the index of q_i, and of p_i at 7 + q[i]

    def term(coeff, *at):
        return monomial(SEVEN, coeff, *at)

    terms = [[term(1.0, q[2]), term(0.1, q[7], q[3])],
             [term(1.0, q[1]), term(0.2, q[7], q[2])],
             [term(1.0, 7 + q[2]), term(0.3, 7 + q[7], 7 + q[3])]]
    for i in range(3, 7):
        terms += [[term(1.0, q[i])], [term(1.0, 7 + q[i])]]
    terms.append([term(1.0, 7 + q[1])])
    names = ("q2'", "q1'", "p2'", "q3", "p3", "q4", "p4", "q5", "p5", "q6", "p6", "p1")
    cs = ConstraintSet(SEVEN, tuple(polynomial_field(SEVEN, t, name=name)
                                    for t, name in zip(terms, names, strict=True)), names)
    h = polynomial_field(SEVEN, [term(0.5, j, j) for j in range(14)]
                         + [term(0.3, 7 + q[1], q[7])], name="H")
    z = [0.0] * 14
    z[q[7]], z[7 + q[7]] = 0.6, -0.4
    return DiracFlow(h, cs), SEVEN.point(z)


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
    yield (GaugeFlow(model.cartesian_generator, (0.5, -1.0, 0.3)),
           model.cartesian_chart.point([0.8, -0.3, 0.8, 0.3]), cartesian_monitor(model))
    for flow, x0 in list(dirac_flows())[:2]:  # static and ramped k
        yield flow, x0, None
    # a constant multiplier, as in the gauge scenario
    yield (GaugeFlow(model.cartesian_generator, 0.7),
           model.cartesian_chart.point([0.8, -0.3, 0.8, 0.3]), cartesian_monitor(model))
    yield *coupled_dirac_flow(THREE), None
    wide = RelativisticParticle(mass=1.3, spatial_dim=33)  # past the unroll limit
    yield (PoissonFlow(wide.physical_hamiltonian),
           wide.spatial_chart.point([0.1 * math.cos(j) for j in range(66)]), None)
    yield *coupled_dirac_flow(WIDE), None


@pytest.mark.parametrize("index", range(9))
def test_float_step_equals_the_array_step_bitwise(index):
    flow, x0, monitor = list(float_step_flows())[index]
    dt, steps = 1e-3, 300
    states = rk4_states(array_stage(flow), x0, dt, steps)
    times = np.array([i * dt for i in range(steps + 1)])
    traj = evolve(x0, flow, IntegratorConfig(dt=dt, steps=steps), monitor=monitor)
    rhs, stage = standalone_rhs(flow, flow.chart.n_pairs), array_stage(flow)
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


def reference_run(rhs, z, dt, steps):
    """Classic RK4 on Python float lists, one call of the standalone ``rhs`` per stage, step
    by step: the states after each step, until the rhs raises."""
    states = []
    for i in range(steps):
        t, half, sixth = i * dt, 0.5 * dt, dt / 6.0
        k1 = rhs(t, z)
        k2 = rhs(t + half, [a + half * b for a, b in zip(z, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(z, k2)])
        k4 = rhs(t + dt, [a + dt * b for a, b in zip(z, k3)])
        z = [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(z, k1, k2, k3, k4)]
        states.append(z)
    return states


@pytest.mark.parametrize("steps", [RUN_BLOCK - 1, RUN_BLOCK, RUN_BLOCK + 1])
@pytest.mark.parametrize("index", [0, 2, 4, 7, 8], ids=["poisson", "gauge", "dirac",
                                                        "poisson_loop", "dirac_loop"])
def test_evolve_runs_the_bits_of_a_per_step_loop_over_the_standalone_rhs(index, steps):
    # the spelled-out and (past the unroll bound, n = 33) loop forms, across a block's end
    flow, x0, monitor = list(float_step_flows())[index]
    dt, n = 1e-3, flow.chart.n_pairs
    assert (n * ((len(flow.constraints) if isinstance(flow, DiracFlow) else 0) + 2) ** 2
            <= kernels._UNROLL_TERMS) == (index < 7)
    expected = [x0.coords.tolist(), *reference_run(standalone_rhs(flow, n),
                                                   x0.coords.tolist(), dt, steps)]
    traj = evolve(x0, flow, IntegratorConfig(dt=dt, steps=steps), monitor=monitor)
    assert traj.states.tobytes() == np.array(expected).tobytes()
    assert traj.times.tobytes() == np.array([i * dt for i in range(steps + 1)]).tobytes()


def pairs_chart(n):
    """The chart (q1..qn, p1..pn)."""
    return ChartSpec(labels=tuple(f"{c}{i}" for c in "qp" for i in range(1, n + 1)),
                     name=f"pairs{n}")


def wall_flow(n, wall):
    """Phi = (q2, p2 - sqrt(wall - q1)) with H = p1 on n pairs, from the origin with
    p2 = sqrt(wall): q1 moves at unit speed, and the gradient of the second constraint
    turns NaN once q1 passes the wall."""
    chart = pairs_chart(n)
    p2 = chart.index("p2")

    def value(z):  # one state or a (dim, B) block of states
        return np.where(z[0] <= wall, z[p2] - np.sqrt(np.maximum(wall - z[0], 0.0)), math.nan)

    def grad(z):
        q1 = float(z[0])
        row = [0.0] * chart.dim
        row[0] = 0.5 / math.sqrt(wall - q1) if q1 < wall else math.nan
        row[p2] = 1.0
        return row

    cs = ConstraintSet(chart, (coordinate_field(chart, "q2"), ScalarField("wall", chart, value,
                                                                           grad)), ("q2", "wall"))
    x0 = [0.0] * chart.dim
    x0[p2] = math.sqrt(wall)
    return DiracFlow(coordinate_field(chart, "p1"), cs), chart.point(x0)


@pytest.mark.parametrize("n", [2, 9], ids=["spelled_out", "loop"])
@pytest.mark.parametrize("failing", [100, RUN_BLOCK - 1, RUN_BLOCK, RUN_BLOCK + 44])
def test_degeneracy_mid_block_keeps_every_finished_step(failing, n):
    # the wall sits a quarter step past q1 = failing dt, so the second stage of step
    # ``failing`` meets the NaN row: the partial trajectory holds the states 0..failing
    dt = 2.0 ** -7
    flow, x0 = wall_flow(n, (failing + 0.25) * dt)
    assert (n * 16 <= kernels._UNROLL_TERMS) == (n == 2)
    with pytest.raises(DegeneracyError, match="has a non-finite entry") as reference:
        reference_run(standalone_rhs(flow, n), x0.coords.tolist(), dt, 2 * RUN_BLOCK)
    states = [x0.coords.tolist()]
    states += reference_run(standalone_rhs(flow, n), x0.coords.tolist(), dt, failing)
    with pytest.raises(DegeneracyError, match="has a non-finite entry") as err:
        evolve(x0, flow, IntegratorConfig(dt=dt, steps=2 * RUN_BLOCK))
    assert repr(err.value.coords) == repr(reference.value.coords)
    partial = err.value.partial_trajectory
    assert partial.states.tobytes() == np.array(states).tobytes()
    assert partial.times.tobytes() == np.array([i * dt for i in range(failing + 1)]).tobytes()


@pytest.mark.parametrize("moved", ["first", "last"])
@pytest.mark.parametrize("n", [1, 33], ids=["spelled_out", "loop"])
@pytest.mark.parametrize("failing", [100, RUN_BLOCK - 1, RUN_BLOCK + 44, 2 * RUN_BLOCK - 1])
def test_blow_up_mid_block_or_at_its_end_is_dated_by_its_step(failing, n, moved):
    # lambda = 1e9 moves one coordinate by 1e6 a step (q1 under G = p1 up, p_n under G = q_n
    # down) from 1e12 - (failing + 0.5) 1e6 in size: the state of step ``failing`` is the
    # first past the bound, at t = (failing + 1) dt
    dt = 1e-3
    chart = pairs_chart(n)
    generator = coordinate_field(chart, "p1" if moved == "first" else f"q{n}")
    flow = GaugeFlow(generator, 1e9)
    start = [0.5] * chart.dim
    start[0 if moved == "first" else -1] = (1.0 if moved == "first" else -1.0) * (
        BLOWUP_LIMIT - (failing + 0.5) * 1e6)
    x0 = chart.point(start)
    with pytest.raises(NumericDomainError) as err:
        evolve(x0, flow, IntegratorConfig(dt=dt, steps=2 * RUN_BLOCK + 3))
    assert str(err.value) == (f"trajectory blew up at t={(failing + 1) * dt:g} "
                              f"(|z| > {BLOWUP_LIMIT:g} or NaN)")


def array_twin_flow(flow):
    """``flow`` with every gradient it reads returned as a float64 array."""
    if isinstance(flow, DiracFlow):
        return DiracFlow(array_twin(flow.hamiltonian), array_twin_set(flow.constraints))
    if isinstance(flow, GaugeFlow):
        return GaugeFlow(array_twin(flow.generator), flow.multiplier)
    return PoissonFlow(array_twin(flow.hamiltonian))


@pytest.mark.parametrize("index", range(9))
def test_array_grads_give_the_bits_of_their_list_twins_over_200_steps(index):
    # the generated code unpacks or indexes an array as it does a list; its numpy scalars
    # round as Python floats do, and warn on nothing here (warnings are errors)
    flow, x0, monitor = list(float_step_flows())[index]
    cfg = IntegratorConfig(dt=1e-3, steps=200)
    expected = evolve(x0, flow, cfg, monitor=monitor)
    traj = evolve(x0, array_twin_flow(flow), cfg, monitor=monitor)
    for name in ("times", "states", "generator_values"):
        assert getattr(traj, name).tobytes() == getattr(expected, name).tobytes(), name
    assert traj.residuals.keys() == expected.residuals.keys()
    for name, series in expected.residuals.items():
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
    rhs, reference = standalone_rhs(DENSE_FLOW, n), reference_dirac_rhs(DENSE_FLOW, n)

    def both(t, z):
        k = float_rhs(rhs, t, z)
        assert k.tobytes() == reference(t, z).tobytes()
        return k

    rk4_states(both, DENSE_CHART.point([0.3, -0.2, 0.5, 0.7]), dt, 200)


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
    k = float_rhs(standalone_rhs(flow, 3), 0.0, z)
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
    rhs = standalone_rhs(flow, flow.chart.n_pairs)
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
    # Phi = (q2, p2 - sqrt(1 - q1)) with H = p1, and on three pairs also (q3, p3): q1 moves
    # at unit speed, and the gradient of the second constraint turns NaN at q1 = 1, at
    # step 100 of 200
    for chart, labels in ((DENSE_CHART, ("q2", "wall")), (THREE, ("q2", "wall", "q3", "p3"))):
        p2 = chart.index("p2")

        def wall(z):  # one state or a (dim, B) block of states
            return np.where(z[0] <= 1.0, z[p2] - np.sqrt(np.maximum(1.0 - z[0], 0.0)), math.nan)

        def wall_grad(z):
            q1 = float(z[0])
            grad = [0.0] * chart.dim
            grad[0] = 0.5 / math.sqrt(1.0 - q1) if q1 < 1.0 else math.nan
            grad[p2] = 1.0
            return grad

        cs = ConstraintSet(chart, tuple(ScalarField(label, chart, wall, wall_grad)
                                        if label == "wall" else coordinate_field(chart, label)
                                        for label in labels), labels)
        flow = DiracFlow(coordinate_field(chart, "p1"), cs)
        x0 = [0.0] * chart.dim
        x0[p2] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneracyError, match="has a non-finite entry") as err:
                evolve(chart.point(x0), flow, IntegratorConfig(dt=0.01, steps=200))
        partial = err.value.partial_trajectory
        # step 99 reaches q1 = 1 in its last stage
        assert partial is not None and len(partial) == 100
        assert np.all(np.isfinite(partial.states)) and partial.states[-1, 0] < 1.0
        with pytest.raises(DegeneracyError) as tensor_route:
            dirac_tensor(cs, unchecked_point(chart, err.value.coords))
        assert str(tensor_route.value) == str(err.value)


def guard_route_rhs(gh, rows, rates, z, n):
    """The Dirac rhs at z from H's gradient and the constraints' gradient rows, with the
    multipliers from the engine's M through ``_pairing_multipliers``: {Phi_I, H} summed from
    +0.0 in index order plus the rate, and each correction entry left to right from its
    first product."""
    s = [ordered_dot(r[:n], gh[n:]) - ordered_dot(r[n:], gh[:n]) + rate
         for r, rate in zip(rows, rates, strict=True)]
    lam = _pairing_multipliers(pairing_matrix_of_rows(rows, n), s, z)
    products = [[l * r[j] for l, r in zip(lam, rows)] for j in range(2 * n)]
    effective = [g - sum(terms[1:], terms[0]) for g, terms in zip(gh, products)]
    return effective[n:] + [-v for v in effective[:n]]


def test_dirac_flow_builds_the_pairing_matrix_of_the_constraint_engine():
    # at every stage point of the four-constraint custom orbit, the M the generated RK4 loop
    # hands its guard-and-solve is the engine's M by repr; two constraints solve inline where
    # the guard passes, so at every stage point of a ramped-k Klauder orbit the rhs is
    # bitwise the rhs recomputed from the engine's M through _pairing_multipliers
    for flow, x0 in list(dirac_flows())[2:3]:
        cs, n = flow.constraints, flow.chart.n_pairs
        seen = []

        def solve(m, s, z):
            seen.append((m, z))
            return _pairing_multipliers(m, s, z)

        run = _generated("dirac_run", n, len(cs))(
            flow.hamiltonian._gradient, [f._gradient for f in cs.fields], cs.rates, solve,
            DEGENERACY_RTOL)
        assert run(x0.coords.tolist(), 0.01, 0, 250, BLOWUP_LIMIT, []) == 250
        assert len(seen) == 4 * 250
        for m, z in seen:
            assert repr(m) == repr(pairing_matrix_of_rows(cs.gradient_rows(z), n)), z
    flow, x0 = list(dirac_flows())[1]
    cs, n = flow.constraints, flow.chart.n_pairs
    stages = []

    def grad_h(z):  # each stage reads H's gradient at its point first
        stages.append(z)
        return flow.hamiltonian._gradient(z)

    run = _generated("dirac_run", n, len(cs))(grad_h, [f._gradient for f in cs.fields], cs.rates,
                                              _pairing_multipliers, DEGENERACY_RTOL)
    assert run(x0.coords.tolist(), 0.01, 0, 250, BLOWUP_LIMIT, []) == 250
    assert len(stages) == 4 * 250
    rhs = standalone_rhs(flow, n)
    for z in stages:
        assert repr(rhs(0.0, z)) == repr(guard_route_rhs(flow.hamiltonian._gradient(z),
                                                         cs.gradient_rows(z), cs.rates, z, n)), z


SQRT_RTOL = math.sqrt(DEGENERACY_RTOL)


def nudged(x, ulps):
    """x moved by ``ulps`` units in the last place, up or down."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def two_constraint_rows(draw):
    """(n, gh, rows, rates): random gradient rows of H and two constraints on n pairs, of one
    kind: random; with d = x y from one q entry x of the first row and the p entry y of the
    second, M = [[0, d], [-d, 0]] with d d within 4 ulps of DEGENERACY_RTOL, or with |d| from
    1e110 to inf, or with a diagonal 1e200 1e200 - 1e200 1e200 = NaN beside a finite d;
    entries up to 1e160, whose M overflows the guard's scale (the rescaled branch) or to
    inf; or non-finite entries."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "threshold", "huge_d", "nan_diagonal", "overflow",
                                 "nonfinite"]))
    finite = st.floats(-10.0, 10.0, allow_subnormal=False)
    gh = draw(st.lists(finite, min_size=2 * n, max_size=2 * n))
    rates = draw(st.tuples(finite, finite))
    if kind in ("threshold", "huge_d", "nan_diagonal"):
        i, e = draw(st.integers(0, n - 1)), draw(st.integers(-20, 20))
        sign = draw(st.sampled_from([1.0, -1.0]))
        if kind == "threshold":
            x, y = math.ldexp(nudged(SQRT_RTOL, draw(st.integers(-3, 2))), e), 2.0 ** -e
        elif kind == "huge_d":
            x = draw(st.floats(1.0, 10.0)) * 10.0 ** (150 + e)
            y = 10.0 ** draw(st.integers(-20, 200))
        else:
            x, y = 1e200, 10.0 ** (e - 200)
        rows = [[0.0] * (2 * n) for _ in range(2)]
        rows[0][i], rows[1][n + i] = x, sign * y
        if kind == "nan_diagonal":
            rows[0][n + i] = sign * 1e200
        return n, gh, rows, rates
    entry = {"random": finite,
             "overflow": st.builds(lambda m, e: m * 10.0 ** e, finite, st.integers(-5, 160)),
             "nonfinite": st.sampled_from([math.inf, -math.inf, math.nan, 1e200, -1e200, 0.0,
                                           1.0, -2.5])}[kind]
    rows = draw(st.lists(st.lists(entry, min_size=2 * n, max_size=2 * n), min_size=2, max_size=2))
    return n, gh, rows, rates


@given(two_constraint_rows())
@settings(max_examples=400, deadline=None)
def test_two_constraint_rhs_returns_the_guard_routes_floats_or_its_error(case):
    # the inline guard and solve of the generated rhs against the guard route on the engine's
    # M: the same floats by repr, or the same DegeneracyError message, det and coords
    n, gh, rows, rates = case
    z = [0.5] * (2 * n)
    rhs = _generated("dirac", n, 2)(lambda z: gh, [lambda z: rows[0], lambda z: rows[1]],
                                    rates, _pairing_multipliers, DEGENERACY_RTOL)
    got, error = outcome(rhs, 0.0, z)
    expected, expected_error = outcome(guard_route_rhs, gh, rows, rates, z, n)
    assert error == expected_error
    assert repr(got) == repr(expected)


def test_concurrent_dirac_orbits_keep_the_bytes_of_their_solo_runs():
    # a right-hand side keeps no state between calls; a thread switch every microsecond
    # interleaves the two orbits' stages, and with the cache of generated functions
    # emptied, their builds of the same (kind, n)
    cfg = IntegratorConfig(dt=1e-3, steps=1000)
    runs = list(dirac_flows())[:2]  # static and ramped k
    solo = [evolve(x0, flow, cfg).states.tobytes() for flow, x0 in runs]
    _generated.cache_clear()
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
    built = _generated.cache_info().misses
    assert evolve(runs[0][1], runs[0][0], cfg).states.tobytes() == solo[0]
    assert _generated.cache_info().misses == built  # the same kind and size builds nothing


@pytest.mark.parametrize("n", [1, 33], ids=["spelled_out", "loop"])
@pytest.mark.parametrize("kind, k", [("poisson", 0), ("gauge", 3), ("pairing", 0), ("pairing", 2),
                                     ("pairing", 4), ("dirac", 2), ("dirac", 4),
                                     ("poisson_run", 0), ("gauge_run", 3), ("dirac_run", 2),
                                     ("dirac_run", 4),
                                     ("tensor", 0), ("tensor", 2), ("tensor", 4)])
def test_generated_functions_read_no_module_global(kind, k, n):
    # a kernel sees the builtins and what it is handed, so no module state can reach it
    source = kernels._source(kind, n, k)
    assert (n * (k + 2) ** 2 <= kernels._UNROLL_TERMS) == (n == 1)
    defined = {node.name for node in ast.parse(source).body}
    function = _generated(kind, n, k)
    functions = [function]
    if kind != "pairing":  # a factory: the function it returns as well
        params = inspect.signature(function).parameters
        functions.append(function(*((None,) * k if name in ("grads", "rates", "coeffs") else None
                                    for name in params)))
    for f in functions:
        assert set(f.__globals__) == {"__builtins__", *defined}, f


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


def trajectory_body(traj, monkeypatch):
    """The body ``cli._write_trajectory`` hands the writer."""
    bodies = []
    monkeypatch.setattr(cli, "write_table", lambda path, fmt, columns, rows, footer_rows:
                        bodies.append((columns, rows)))
    cli._write_trajectory("unwritten.csv", "csv", traj)
    (columns, body), = bodies
    assert len(body.dtype) == len(columns) and len(body) == len(traj)
    return body


def test_trajectory_rows_equal_the_per_element_builder(monkeypatch):
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
        rows = trajectory_body(traj, monkeypatch).tolist()
        expected = reference_trajectory_rows(traj)
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
    # the twelve-constraint set, the four-constraint set on 33 pairs, the partial
    # k = 0.05 - t orbit
    assert [(len(cs), any(cs.rates)) for cs, _ in cases] == \
        [(2, False), (2, True), (4, False), (2, False), (12, False), (4, False), (2, True)]
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

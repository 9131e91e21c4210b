import math
import tracemalloc

import numpy as np
import pytest

from diracmech.cli import _trajectory_rows
from diracmech.constraints import DEGENERACY_RTOL, ConstraintSet, dirac_bracket
from diracmech.dynamics import (DiracFlow, GaugeFlow, IntegratorConfig, NewtonProjection,
                                PoissonFlow, Trajectory, _dirac_rhs, constraint_drift, evolve,
                                gauge_orbit_closed_form, multiplier_from_gauge)
from diracmech.errors import DegeneracyError, NumericDomainError, UsageError
from diracmech.fields import ScalarField, constant_field, coordinate_field, polynomial_field
from diracmech.models import (KlauderModel, KRamp, LatticeMaxwell, RadialPotential,
                              RelativisticParticle)
from diracmech.phase import ChartSpec

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
    expected_r = np.array([model.reduced_point(2.0, t)[0] for t in traj.times])
    assert np.max(np.abs(traj.states[:, 0] - expected_r)) < 1e-8  # non-circular orbit


def test_zero_hamiltonian_identity():
    zero = constant_field(FLAT, 0.0, name="H0")
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


def test_newton_projection_restores_surface():
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.0, p_phi=1.0)
    cfg = IntegratorConfig(dt=1e-2, steps=200, projection=NewtonProjection())
    traj = evolve(x0, DiracFlow(model.hamiltonian(), model.constraint_set), cfg)
    drift = constraint_drift(traj)
    assert max(s.max_residual for s in drift.values()) < 1e-11


def test_newton_projection_needs_watched_constraints():
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.0, p_phi=1.0)
    cfg = IntegratorConfig(dt=1e-2, steps=5, projection=NewtonProjection())
    with pytest.raises(UsageError, match="Newton projection needs constraints"):
        evolve(x0, PoissonFlow(model.hamiltonian()), cfg)
    traj = evolve(x0, PoissonFlow(model.hamiltonian()), cfg, monitor=model.constraint_set)
    assert max(s.max_residual for s in constraint_drift(traj).values()) < 1e-12


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


def test_dirac_vector_field_is_the_dirac_bracket(rng):
    # dz_i/dt = {z_i, H}_D: the flow and the bracket share one pairing solve
    model = KlauderModel(alpha=1.3, k=0.7, potential=RadialPotential((0.0, 0.4, 0.1)))
    chart, cs, h = model.polar_chart, model.constraint_set, model.hamiltonian()
    rhs = _dirac_rhs(DiracFlow(h, cs), chart.n_pairs)
    coords = [coordinate_field(chart, label) for label in chart.labels]
    for x in model.sample_surface(rng, 20):
        expected = [dirac_bracket(z, h, cs, x) for z in coords]
        assert np.max(np.abs(rhs(0.0, x.coords) - expected)) < 1e-12
    # near the excluded origin with p_r = p_phi = 0, det M = alpha^4 r^4 is below the guard
    x = chart.point([1e-4, 0.3, 0.0, 0.0])
    with pytest.raises(DegeneracyError, match="not Second Class"):
        rhs(0.0, x.coords)
    with pytest.raises(DegeneracyError, match="not Second Class"):
        dirac_bracket(coords[1], h, cs, x)


def reference_dirac_rhs(flow, n):
    """The Dirac right-hand side written out with the numpy guard scale and np.stack."""
    h, cs = flow.hamiltonian, flow.constraints

    def rhs(t, z):
        gh = h.gradient_at(z)
        rows = reference_gradient_rows(cs, z)
        s = rows[:, :n] @ gh[n:] - rows[:, n:] @ gh[:n]
        if cs.time_dependent:
            s = s + cs.rates_at(t)
        a = rows[:, :n] @ rows[:, n:].T
        m = a - a.T
        det = float(m[0, 1] * m[0, 1]) if len(m) == 2 else float(np.linalg.det(m))
        if not abs(det) > DEGENERACY_RTOL * reference_degeneracy_scale(m):
            raise DegeneracyError("reference guard", det=det, coords=z)
        lam = (np.array([-s[1] / m[0, 1], s[0] / m[0, 1]]) if len(m) == 2
               else np.linalg.solve(m, s))
        effective = gh - rows.T @ lam
        return np.concatenate([effective[n:], -effective[:n]])

    return rhs


def dirac_flows():
    """(flow, x0): static-k and ramped-k Klauder orbits, and a four-constraint custom
    flow whose pairing solve takes the LU route."""
    for k in (1.0, KRamp(1.0, 0.5)):
        model = KlauderModel(alpha=1.0, k=k, potential=RadialPotential.harmonic())
        yield DiracFlow(model.hamiltonian(), model.constraint_set), model.embed_reduced(0.1, 2.0)
    h = ((0.5, (0, 0, 2, 0, 0, 0)), (0.5, (0, 0, 0, 0, 0, 2)), (1.0, (1, 0, 0, 0, 0, 1)))
    flow, _ = CUSTOM_FOUR.flow("dirac", hamiltonian=h)
    # on the surface: q1 = -q2 p3, p1 = 0, q2 = -q3^2 / 2, p2 = -q3^2 at q3 = 0.5, p3 = 0.25
    yield flow, CUSTOM_FOUR.chart.point([0.03125, -0.125, 0.5, 0.0, -0.25, 0.25])


@pytest.mark.parametrize("index", range(3))
def test_dirac_rhs_equals_the_reference_bitwise_over_200_steps(index):
    flow, x0 = list(dirac_flows())[index]
    n, dt = flow.chart.n_pairs, 1e-3
    rhs, reference = _dirac_rhs(flow, n), reference_dirac_rhs(flow, n)

    def both(t, z):
        k = rhs(t, z)
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


def reference_trajectory_rows(traj):
    """The per-element row builder: float() of every entry."""
    res_names = list(traj.residuals.keys())
    rows = []
    for i in range(len(traj)):
        row = [float(traj.times[i]), *map(float, traj.states[i])]
        row += [float(traj.residuals[n][i]) for n in res_names]
        row.append(float(traj.generator_values[i]) if traj.generator_values is not None else "")
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
    traj = trajectories[-1]
    trajectories.append(Trajectory(traj.chart, traj.times, traj.states))  # no G recorded
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
    # static and ramped Klauder, the four-constraint custom set, the partial k = 0.05 - t orbit
    assert [(len(cs), cs.time_dependent) for cs, _ in cases] == \
        [(2, False), (2, True), (4, False), (2, True)]
    for cs, traj in cases:
        series = cs.residual_series(traj.times, traj.states)
        reference = np.stack([np.abs(cs.values_at(z, t))
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
    assert traj.point(len(traj) - 1)["q1"] == pytest.approx(0.5, abs=1e-12)


def test_constraint_drift_constant_trajectory():
    model = KlauderModel(alpha=1.0, k=1.0)
    x0 = model.embed_reduced(0.0, 1.0)
    traj = evolve(x0, PoissonFlow(constant_field(model.polar_chart, 0.0)),
                  IntegratorConfig(dt=0.1, steps=10), monitor=model.constraint_set)
    drift = constraint_drift(traj)
    assert drift["C"].max_residual < 1e-12
    assert abs(drift["C"].growth_rate) < 1e-12


# -- multiplier fixing -----------------------------------------------------------

def test_multiplier_examples():
    model = KlauderModel(alpha=1.0, k=1.0)
    chart = model.cartesian_chart
    x = chart.point([1.0, 0.0, 2.0, 0.0])
    assert multiplier_from_gauge(x, kdot=0.0, alpha=1.0) == 0.0
    assert multiplier_from_gauge(x, kdot=5.0, alpha=1.0) == pytest.approx(1.0)
    # on-surface point with r = 1: denominator 2 alpha^2 r^2 = 2
    x_surf = chart.point([1.0, 0.0, 1.0, 0.0])
    assert multiplier_from_gauge(x_surf, kdot=2.0, alpha=1.0) == pytest.approx(1.0)


def test_multiplier_degenerate_origin():
    chart = ChartSpec(labels=("q1", "q2", "p1", "p2"))
    with pytest.raises(DegeneracyError):
        multiplier_from_gauge(chart.point([0.0, 0.0, 0.0, 0.0]), kdot=1.0, alpha=1.0)


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
    assert len(evolve(FLAT.point([1.0, 0.0]), PoissonFlow(constant_field(FLAT, 0.0)), cfg)) == 4


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
    # the states array is the only trajectory-sized allocation
    model = LatticeMaxwell(side=8)
    h = model.hamiltonian
    x0 = h.chart.point(np.random.default_rng(3).uniform(-0.1, 0.1, h.chart.dim))
    tracemalloc.start()
    try:
        traj = evolve(x0, PoissonFlow(h), IntegratorConfig(dt=1e-3, steps=300))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * traj.states.nbytes

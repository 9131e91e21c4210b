import json
import math

import numpy as np
import pytest

from diracmech import duals
from diracmech.brackets import poisson_bracket
from diracmech.cli import main
from diracmech.dynamics import IntegratorConfig, PoissonFlow, evolve
from diracmech.errors import NumericDomainError, UsageError
from diracmech.models import RelativisticParticle

from conftest import (assert_closed_form_equals_duals, assert_closed_form_finite_like_duals,
                      log_uniform, on_shell_point, refuse_duals)


def test_trajectory_rest_frame():
    particle = RelativisticParticle(mass=1.0)
    x = particle.trajectory([1.0, 2.0, 3.0], [0.0, 0.0, 0.0], tau=7.0)
    assert np.array_equal(x, [1.0, 2.0, 3.0])
    assert particle.energy([0.0, 0.0, 0.0]) == 1.0


def test_trajectory_three_four_five():
    particle = RelativisticParticle(mass=4.0)
    x = particle.trajectory([0.0, 0.0, 0.0], [3.0, 0.0, 0.0], tau=10.0)
    assert np.allclose(x, [6.0, 0.0, 0.0])
    assert particle.energy([3.0, 0.0, 0.0]) == 5.0


def test_trajectory_identity_at_zero():
    particle = RelativisticParticle(mass=2.0, spatial_dim=2)
    assert np.array_equal(particle.trajectory([4.0, -1.0], [1.0, 1.0], 0.0), [4.0, -1.0])


@pytest.mark.parametrize("spatial_dim", [2, 3])
def test_energy_sums_p_dot_p_in_index_order(spatial_dim):
    # a BLAS dot sums in its kernel's order, which moved sampled p0 by an ulp between
    # OpenBLAS kernels; the energy is the float sum from +0.0 in index order
    particle = RelativisticParticle(mass=2.0, spatial_dim=spatial_dim)
    for x in particle.sample_on_shell(np.random.default_rng(20250810), 200):
        total = 0.0
        for i in range(1, spatial_dim + 1):
            total += x[f"p{i}"] * x[f"p{i}"]
        assert x["p0"] == math.sqrt(total + 4.0)


def test_pairing_bracket_values(rng):
    rest = RelativisticParticle(mass=1.0)
    x = on_shell_point(rest, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    cs = rest.constraint_set
    assert poisson_bracket(cs.fields[0], cs.fields[1], x) == pytest.approx(1.0)
    boosted = RelativisticParticle(mass=4.0)
    x2 = on_shell_point(boosted, [1.0, 2.0, 3.0], [3.0, 0.0, 0.0])
    cs2 = boosted.constraint_set
    assert poisson_bracket(cs2.fields[0], cs2.fields[1], x2) == pytest.approx(5.0)


def test_bracket_report_on_shell(rng):
    particle = RelativisticParticle(mass=2.0)
    report = particle.bracket_report(particle.sample_on_shell(rng, 100))
    assert report["pairing"] < 1e-10
    assert report["xp"] < 1e-9
    assert report["xx"] < 1e-9 and report["pp"] < 1e-9


def test_bracket_report_rejects_off_shell():
    particle = RelativisticParticle(mass=1.0)
    # a batch whose second row is off the mass shell: its residual |C| = 3.5 is named
    batch = particle.full_chart.point([on_shell_point(particle, [0.0] * 3, [1.0] * 3).coords,
                                       [0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0]])
    with pytest.raises(UsageError, match=r"^off-shell sample \(use sample_on_shell\) is off the "
                                         r"constraint surface: \|C\| = 3\.500e\+00, tolerance"):
        particle.bracket_report(batch)


def test_closed_form_matches_rk4(rng):
    particle = RelativisticParticle(mass=4.0)
    x0 = rng.uniform(-2, 2, 3)
    p = rng.uniform(-3, 3, 3)
    start = particle.spatial_chart.point(np.concatenate([x0, p]))
    traj = evolve(start, PoissonFlow(particle.physical_hamiltonian),
                  IntegratorConfig(dt=1e-2, steps=1000))
    assert np.max(np.abs(traj.states[-1, :3] - particle.trajectory(x0, p, 10.0))) < 1e-8
    assert np.max(np.abs(traj.states[-1, 3:] - p)) < 1e-12


def test_validation():
    with pytest.raises(UsageError):
        RelativisticParticle(mass=0.0)
    with pytest.raises(UsageError):
        RelativisticParticle(mass=1.0, spatial_dim=0)
    with pytest.raises(UsageError):
        RelativisticParticle(mass=1.0).trajectory([0.0], [1.0, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("mass", [1e200, math.inf, math.nan])
def test_mass_whose_square_is_not_finite_rejected(mass):
    with pytest.raises(UsageError, match="mass"):
        RelativisticParticle(mass=mass)


# -- closed-form gradients ---------------------------------------------------------

def particle_fields(particle):
    return ((particle.mass_shell, particle.full_chart),
            (particle.time_gauge(0.7), particle.full_chart),
            (particle.physical_hamiltonian, particle.spatial_chart))


@pytest.mark.parametrize("spatial_dim", [1, 2, 3])
def test_closed_form_gradients_equal_dual_route(rng, spatial_dim):
    particle = RelativisticParticle(mass=rng.uniform(0.1, 5.0), spatial_dim=spatial_dim)
    on_shell = []
    for _ in range(100):  # x0 = tau = 0.7, p0 = sqrt(p.p + m^2)
        x, p = rng.uniform(-5.0, 5.0, spatial_dim), rng.uniform(-5.0, 5.0, spatial_dim)
        on_shell.append(np.concatenate([[0.7], x, [math.sqrt(p @ p + particle.mass ** 2)], p]))
    for field, chart in particle_fields(particle):
        off_shell = list(rng.uniform(-5, 5, (100, chart.dim)))
        wide = list(log_uniform(rng, -6, 6, (50, chart.dim)))
        points = off_shell + wide
        if chart == particle.full_chart:
            points += on_shell
        else:
            points += [np.concatenate([z[1:spatial_dim + 1], z[spatial_dim + 2:]])
                       for z in on_shell]
        assert_closed_form_equals_duals(field, points)


def test_closed_form_gradients_at_extreme_points(rng):
    particle = RelativisticParticle(mass=2.0, spatial_dim=3)
    for field, chart in particle_fields(particle):
        # momenta up to 1e155 square past the float range; near 1e308 they double past it
        half = chart.dim // 2
        points = np.column_stack([rng.uniform(-5, 5, (300, half)),
                                  log_uniform(rng, 0, 155, (300, half))])
        points[::3, half:] = log_uniform(rng, 307, 308, (100, half))
        finite = assert_closed_form_finite_like_duals(field, points)
        assert 0 < finite < 300 or field.name == "chi"


def test_energy_gradient_raises_like_duals_where_the_energy_vanishes():
    # 1e-170^2 underflows to 0, so at p = 0 both routes divide by sqrt(0)
    h = RelativisticParticle(mass=1e-170, spatial_dim=2).physical_hamiltonian
    assert h._trace is not None  # the traced route, which reruns the dual pass
    z = np.zeros(4)
    with pytest.raises(NumericDomainError) as closed:
        h.gradient_at(z)
    with pytest.raises(NumericDomainError) as dual:
        duals.gradient(h.func, z)
    assert str(closed.value) == str(dual.value) == "sqrt(0.0): float division by zero"


def test_particle_flight_runs_without_duals(tmp_path, monkeypatch):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "model": {"kind": "particle", "mass": 4.0, "spatial_dim": 3},
        "flow": {"kind": "poisson"}, "integrator": {"dt": 0.01, "steps": 100},
        "initial": {"x": [0.5, -1.0, 2.0], "p": [-2.5, 0.3, 1.1]}}))
    refuse_duals(monkeypatch)
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 0

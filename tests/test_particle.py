import math

import numpy as np
import pytest

from diracmech.brackets import poisson_bracket
from diracmech.dynamics import IntegratorConfig, PoissonFlow, evolve
from diracmech.errors import UsageError
from diracmech.models import RelativisticParticle


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


def test_pairing_bracket_values(rng):
    rest = RelativisticParticle(mass=1.0)
    x = rest.on_shell_point([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    cs = rest.constraint_set(tau=0.0)
    assert poisson_bracket(cs.fields[0], cs.fields[1], x) == pytest.approx(1.0)
    boosted = RelativisticParticle(mass=4.0)
    x2 = boosted.on_shell_point([1.0, 2.0, 3.0], [3.0, 0.0, 0.0])
    cs2 = boosted.constraint_set(tau=0.0)
    assert poisson_bracket(cs2.fields[0], cs2.fields[1], x2) == pytest.approx(5.0)


def test_bracket_report_on_shell(rng):
    particle = RelativisticParticle(mass=2.0)
    report = particle.bracket_report(particle.sample_on_shell(rng, 100))
    assert report["pairing"] < 1e-10
    assert report["xp"] < 1e-9
    assert report["xx"] < 1e-9 and report["pp"] < 1e-9


def test_bracket_report_rejects_off_shell():
    particle = RelativisticParticle(mass=1.0)
    bad = particle.full_chart.point([0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0])
    with pytest.raises(UsageError, match="off-shell"):
        particle.bracket_report([bad])


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

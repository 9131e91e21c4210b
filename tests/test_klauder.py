import json
import math

import numpy as np
import pytest

from diracmech import duals
from diracmech.cli import main
from diracmech.constraints import dirac_bracket
from diracmech.errors import NumericDomainError, UsageError
from diracmech.fields import coordinate_field, polynomial_field
from diracmech.models import KlauderModel, KRamp, RadialPotential

from conftest import (assert_closed_form_equals_duals, assert_closed_form_finite_like_duals,
                      log_uniform, refuse_duals)

HARMONIC = RadialPotential.harmonic()
QUARTIC = RadialPotential((0.3, -1.2, 0.5, 0.7, -0.2))


def coords_of(model):
    chart = model.polar_chart
    return {l: coordinate_field(chart, l) for l in chart.labels}


# -- reduced radial pair -------------------------------------------------------

def test_reduced_point_values():
    assert KlauderModel(alpha=1.0, k=1.0).reduced_point(0.0) == pytest.approx((1.0, 1.0))
    r_star, p_r_star = KlauderModel(alpha=1.0, k=0.0).reduced_point(2.0)
    assert r_star == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert p_r_star == 0.0


def test_reduced_point_lands_on_surface(rng):
    for alpha, k in ((1.0, 1.0), (2.5, 0.0), (0.7, -1.3)):
        model = KlauderModel(alpha=alpha, k=k)
        for _ in range(20):
            p_phi = rng.uniform(-5, 5)
            if k == 0.0 and abs(p_phi) < 1e-3:
                continue
            x = model.embed_reduced(rng.uniform(0, 2 * np.pi), p_phi)
            assert abs(model.constraint.value(x)) < 1e-12
            assert abs(model.gauge_condition.value(x)) < 1e-12


def test_reduced_point_degenerate_origin():
    with pytest.raises(NumericDomainError, match="origin"):
        KlauderModel(alpha=1.0, k=0.0).reduced_point(0.0)


def test_chart_excludes_nonpositive_radius():
    model = KlauderModel()
    with pytest.raises(NumericDomainError):
        model.polar_chart.point([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(NumericDomainError):
        model.polar_chart.point([-1.0, 0.0, 1.0, 1.0])


# -- closed-form bracket table ----------------------------------------------------

def test_oracle_fixed_entries(rng):
    model = KlauderModel(alpha=1.0, k=1.0)
    for x in model.sample_points(rng, 10):
        assert model.dirac_oracle(("r", "p_r"), x) == 0.0
        assert model.dirac_oracle(("phi", "p_phi"), x) == 1.0
        assert model.dirac_oracle(("p_r", "p_phi"), x) == 0.0
        assert model.dirac_oracle(("p_phi", "phi"), x) == -1.0  # antisymmetric lookup


def test_oracle_r_phi_value():
    model = KlauderModel(alpha=1.0, k=0.0)
    x = model.polar_chart.point([math.sqrt(2.0), 0.0, 0.0, 2.0])
    assert model.dirac_oracle(("r", "phi"), x) == pytest.approx(-math.sqrt(2.0) * 2.0 / 8.0)


def test_oracle_unknown_pair():
    model = KlauderModel()
    with pytest.raises(UsageError, match="unknown"):
        model.dirac_oracle(("r", "bogus"), model.polar_chart.point([1, 0, 0, 0]))


def test_engine_matches_oracle_everywhere(rng):
    # the core property: generic matrix-formula engine against all six closed forms
    model = KlauderModel(alpha=1.0, k=1.0)
    cs = model.constraint_set
    fields = coords_of(model)
    pairs = [("r", "p_r"), ("r", "p_phi"), ("r", "phi"),
             ("phi", "p_r"), ("phi", "p_phi"), ("p_r", "p_phi")]
    worst = 0.0
    for x in model.sample_points(rng, 1000):
        for a, b in pairs:
            engine = dirac_bracket(fields[a], fields[b], cs, x)
            worst = max(worst, abs(engine - model.dirac_oracle((a, b), x)))
    assert worst < 1e-9


def test_oracle_alpha_dependence(rng):
    model = KlauderModel(alpha=1.7, k=0.3)
    cs = model.constraint_set
    fields = coords_of(model)
    for x in model.sample_points(rng, 50):
        engine = dirac_bracket(fields["r"], fields["phi"], cs, x)
        assert engine == pytest.approx(model.dirac_oracle(("r", "phi"), x), abs=1e-10)


def test_surface_denominator_simplification(rng):
    model = KlauderModel(alpha=1.0, k=1.0)
    for _ in range(100):
        p_phi = rng.uniform(-5, 5)
        x = model.embed_reduced(rng.uniform(0, 2 * np.pi), p_phi)
        denom = x["p_phi"] ** 2 + (x["r"] * x["p_r"]) ** 2 + (model.alpha * x["r"] ** 2) ** 2
        assert denom == pytest.approx(model.surface_denominator(p_phi), abs=1e-10)


def test_rotational_invariance(rng):
    # any field of (r, p_r, p_phi) Dirac-commutes with the rotation generator
    model = KlauderModel(alpha=1.0, k=1.0)
    cs = model.constraint_set
    p_phi = coordinate_field(model.polar_chart, "p_phi")
    for _ in range(20):
        powers_pool = [0, 2, 3]  # skip the angle slot
        spec = []
        for _ in range(4):
            powers = [0, 0, 0, 0]
            for _ in range(rng.integers(1, 3)):
                powers[int(rng.choice(powers_pool))] += 1
            spec.append((rng.uniform(-1, 1), powers))
        field = polynomial_field(model.polar_chart, spec, name="rot_invariant")
        x = model.sample_points(rng, 1)[0]
        assert abs(dirac_bracket(field, p_phi, cs, x)) < 1e-9


# -- physical rates ------------------------------------------------------------------

def test_phi_rate_zero_cases():
    flat = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.zero())
    assert flat.phi_rate(3.0) == 0.0
    harmonic = KlauderModel(alpha=1.0, k=1.0, potential=HARMONIC)
    assert harmonic.phi_rate(0.0) == 0.0


def test_phi_rate_harmonic_value():
    # alpha=1, k=0, p_phi=2, U(r)=r^2/2: r* = sqrt2 and the rate is
    # p_phi U'(r*) / (2 alpha^2 r*^3) = 2 sqrt2 / (2 * 2 sqrt2) = 1/2
    model = KlauderModel(alpha=1.0, k=0.0, potential=HARMONIC)
    assert model.phi_rate(2.0) == pytest.approx(0.5, rel=1e-12)


def test_phi_rate_matches_reduced_hamiltonian_derivative(rng):
    # independent oracle: phi_dot = d U(r*(p_phi)) / d p_phi by central differences
    model = KlauderModel(alpha=1.3, k=0.8, potential=RadialPotential((0.0, 0.2, 0.5, 0.1)))
    for _ in range(20):
        p_phi = rng.uniform(-4, 4)
        h = 1e-6 * max(1.0, abs(p_phi))
        up = model.potential(model.reduced_point(p_phi + h)[0])
        dn = model.potential(model.reduced_point(p_phi - h)[0])
        assert model.phi_rate(p_phi) == pytest.approx((up - dn) / (2 * h), rel=1e-7, abs=1e-9)


def test_circular_orbit_closed_form():
    model = KlauderModel(alpha=1.0, k=0.0, potential=HARMONIC)
    ts = np.linspace(0.0, 10.0, 11)
    angles = model.circular_orbit(0.25, 2.0, ts)
    assert angles[0] == 0.25
    assert angles[-1] == pytest.approx(0.25 + 0.5 * 10.0)


# -- time-dependent gauge parameter ---------------------------------------------------

def test_ramp_values_and_flags():
    ramp = KRamp(1.0, 0.5)
    model = KlauderModel(alpha=1.0, k=ramp)
    assert model.time_dependent
    assert model.k(0.0) == 1.0 and model.k(2.0) == 2.0
    assert not KlauderModel(alpha=1.0, k=KRamp(1.0, 0.0)).time_dependent
    constant = KlauderModel(alpha=1.0, k=1.0)  # a number is the constant ramp
    assert constant.k == KRamp(1.0) and not constant.time_dependent
    for t in (-2.5, 0.0, 3.0):
        assert constant.k(t).hex() == (1.0).hex()
    cs = model.constraint_set
    x = model.embed_reduced(0.0, 1.0)
    vals_later = cs.values_along([2.0], [x.coords])[0]
    assert vals_later[0] == pytest.approx(-1.0)  # chi = r p_r - k(2) = 1 - 2


def test_potential_polynomial():
    u = RadialPotential((1.0, 2.0, 3.0))
    assert u(2.0) == 1.0 + 4.0 + 12.0
    assert u.derivative(2.0) == 2.0 + 12.0
    assert RadialPotential.zero()(5.0) == 0.0
    assert RadialPotential.zero().derivative(5.0) == 0.0


def test_model_validation():
    with pytest.raises(UsageError):
        KlauderModel(alpha=0.0)
    with pytest.raises(UsageError):
        KlauderModel(hbar=-1.0)


@pytest.mark.parametrize("alpha", [1e200, 1.5e154, math.nan])
def test_model_rejects_alpha_whose_square_is_not_finite(alpha):
    with pytest.raises(UsageError, match="alpha"):
        KlauderModel(alpha=alpha)


# -- closed-form gradients ---------------------------------------------------------

def klauder_fields(model):
    return (model.constraint, model.gauge_condition, model.hamiltonian())


@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
@pytest.mark.parametrize("k", [1.0, KRamp(1.0, 0.5), KRamp(0.0, -0.4)],
                         ids=["static", "ramped", "ramped_from_zero"])
@pytest.mark.parametrize("potential", [HARMONIC, QUARTIC], ids=["harmonic", "quartic"])
def test_closed_form_gradients_equal_dual_route(rng, alpha, k, potential):
    model = KlauderModel(alpha=alpha, k=k, potential=potential)
    wide = np.column_stack([10.0 ** rng.uniform(-6, 6, 50), *(log_uniform(rng, -6, 6, 50)
                                                               for _ in range(3))])
    polar = ([x.coords for x in model.sample_points(rng, 100)]
             + [x.coords for x in model.sample_surface(rng, 100)] + list(wide))
    for field in klauder_fields(model):
        assert_closed_form_equals_duals(field, polar)
    q = rng.uniform(-5, 5, (100, 2))
    angle = rng.uniform(0, 2 * np.pi, 100)
    zero_set = np.column_stack([q, alpha * np.hypot(*q.T)[:, None]
                                * np.column_stack([np.cos(angle), np.sin(angle)])])
    assert_closed_form_equals_duals(model.cartesian_generator,
                                    list(rng.uniform(-5, 5, (100, 4))) + list(zero_set))


def test_closed_form_gradients_at_extreme_points(rng):
    model = KlauderModel(alpha=1.7, k=KRamp(1.0, 0.5), potential=QUARTIC)
    n = 300
    r = np.where(rng.random(n) < 0.5, 1e-11, 10.0 ** rng.uniform(-11, 150, n))
    # p_phi up to 1e133 keeps p_phi^2/r^2 finite at r = 1e-11; beyond, it overflows
    p_phi = log_uniform(rng, 0, 133, n) * np.where(rng.random(n) < 0.5, 1.0, 1e27)
    polar = np.column_stack([r, rng.uniform(-5, 5, n), log_uniform(rng, 0, 155, n), p_phi])
    for field in klauder_fields(model):
        finite = assert_closed_form_finite_like_duals(field, polar)
        assert 0 < finite < n or field.name == "chi"
    assert_closed_form_finite_like_duals(model.cartesian_generator,
                                         log_uniform(rng, 0, 155, (n, 4)))


@pytest.mark.parametrize("r", [0.0, -0.0, 1e-170])
def test_constraint_closed_form_raises_like_dual_division(r):
    model = KlauderModel(alpha=1.0, k=1.0, potential=HARMONIC)
    z = np.array([r, 0.3, 1.0, 2.0])
    for field in (model.constraint, model.hamiltonian()):
        with pytest.raises(NumericDomainError) as closed:
            field.gradient_at(z)
        with pytest.raises(NumericDomainError) as dual:
            duals.gradient(field.func, z)
        assert str(closed.value) == str(dual.value) == "4.0 / 0.0: division by zero"


@pytest.mark.parametrize("model, flow, initial", [
    ({"alpha": 1.0, "k": 0.0, "potential": {"type": "poly", "coeffs": [0, 0, 0.5]}},
     {"kind": "dirac"}, {"surface": {"phi": 0.4, "p_phi": -1.5}}),
    ({"alpha": 1.0, "k": [1.0, 0.5], "potential": {"type": "poly", "coeffs": [0, 0, 0.5]}},
     {"kind": "dirac"}, {"surface": {"phi": 2.0, "p_phi": 0.8}}),
    ({"alpha": 1.0, "k": 0.0}, {"kind": "gauge", "multiplier": 1.0},
     {"coords": [0.6, -0.8, 0.0, 1.0]}),
], ids=["static_dirac", "ramped_dirac", "gauge"])
def test_orbit_flows_run_without_duals(tmp_path, monkeypatch, model, flow, initial):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": {"kind": "klauder", **model}, "flow": flow,
                                  "integrator": {"dt": 0.001, "steps": 100},
                                  "initial": initial}))
    refuse_duals(monkeypatch)
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "t.csv")]) == 0

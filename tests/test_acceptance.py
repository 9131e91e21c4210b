"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned here
and nowhere else; sampling is fixed-seed so the gate is reproducible.
"""

import math
import subprocess
import sys

import numpy as np

from diracmech.brackets import poisson_bracket
from diracmech.circle import (CircleState, PhiGrid, SpectrumTable, evolve_static,
                              evolve_time_dependent, expect_phi,
                              expect_phi_quadrature, expect_reduced)
from diracmech.constraints import dirac_bracket, observable_check, reduced_bracket_check
from diracmech.dynamics import (DiracFlow, GaugeFlow, IntegratorConfig, PoissonFlow,
                                evolve, gauge_orbit_closed_form)
from diracmech.fields import coordinate_field
from diracmech.models import (KlauderModel, KRamp, LatticeMaxwell, RadialPotential,
                              RelativisticParticle)

from conftest import random_polynomial

SEED = 8261


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def klauder_pairs(model):
    chart = model.polar_chart
    fields = {l: coordinate_field(chart, l) for l in chart.labels}
    pairs = [("r", "p_r"), ("r", "p_phi"), ("r", "phi"),
             ("phi", "p_r"), ("phi", "p_phi"), ("p_r", "p_phi")]
    return fields, pairs


def test_criterion_1_bracket_table():
    rng = np.random.default_rng(SEED)
    model = KlauderModel(alpha=1.0, k=1.0)
    fields, pairs = klauder_pairs(model)
    worst = 0.0
    for x in model.sample_points(rng, 1000, r_range=(0.1, 5.0)):
        for a, b in pairs:
            engine = dirac_bracket(fields[a], fields[b], model.constraint_set, x)
            worst = max(worst, abs(engine - model.dirac_oracle((a, b), x)))
    report(1, worst < 1e-9,
           f"6-pair Dirac table vs closed forms at 1000 points: max diff {worst:.3e} (tol 1e-9)")


def test_criterion_2_surface_simplification():
    rng = np.random.default_rng(SEED)
    model = KlauderModel(alpha=1.0, k=1.0)
    fields, _ = klauder_pairs(model)
    worst = 0.0
    for _ in range(100):
        p_phi = rng.uniform(-5.0, 5.0)
        x = model.embed_reduced(rng.uniform(0.0, 2.0 * math.pi), p_phi)
        denom = x["p_phi"] ** 2 + (x["r"] * x["p_r"]) ** 2 + (model.alpha * x["r"] ** 2) ** 2
        worst = max(worst, abs(denom - 2.0 * (model.k(0.0) ** 2 + p_phi ** 2)))
        engine = dirac_bracket(fields["r"], fields["phi"], model.constraint_set, x)
        closed = -x["r"] * p_phi / (2.0 * (p_phi ** 2 + model.k(0.0) ** 2))
        worst = max(worst, abs(engine - closed))
    report(2, worst < 1e-9,
           f"on-surface denominator and {{r,phi}} closed form at 100 points: "
           f"max diff {worst:.3e} (tol 1e-9)")


def test_criterion_3_observable_property():
    rng = np.random.default_rng(SEED)
    model = KlauderModel(alpha=1.0, k=1.0)
    samples = model.sample_points(rng, 100)
    worst = 0.0
    for trial in range(20):
        field = random_polynomial(model.polar_chart, rng, degree=3, name=f"obs{trial}")
        worst = max(worst, observable_check(field, model.constraint_set, samples).max_abs)
    report(3, worst < 1e-9,
           f"|{{A, Phi}}_D| for 20 random fields x 2 constraints x 100 points: "
           f"max {worst:.3e} (tol 1e-9)")


def test_criterion_4_reduced_bracket_theorem():
    rng = np.random.default_rng(SEED)
    model = KlauderModel(alpha=1.0, k=1.0)
    param = model.surface_parametrization
    worst = 0.0
    for trial in range(10):
        a = random_polynomial(model.polar_chart, rng, name="a")
        b = random_polynomial(model.polar_chart, rng, name="b")
        zred = param.reduced_chart.point([rng.uniform(0, 2 * math.pi), rng.uniform(-5, 5)])
        worst = max(worst,
                    reduced_bracket_check(a, b, model.constraint_set, param, zred).abs_diff)
    report(4, worst < 1e-8,
           f"Dirac vs reduced-variable Poisson for 10 random pairs: max diff {worst:.3e} "
           f"(tol 1e-8)")


def test_criterion_5_gauge_flow():
    from diracmech.constraints import ConstraintSet

    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([1.0, 0.0, 1.0, 0.0])
    monitor = ConstraintSet(model.cartesian_chart, (model.cartesian_generator,), ("C",))
    traj = evolve(x0, GaugeFlow(model.cartesian_generator, 1.0),
                  IntegratorConfig(dt=1e-3, steps=1000), monitor=monitor)
    q, p = gauge_orbit_closed_form([1.0, 0.0], [1.0, 0.0], alpha=1.0, T=1.0)
    end_diff = float(np.max(np.abs(traj.states[-1] - np.concatenate([q, p]))))
    residual = float(np.max(traj.residuals["C"]))
    report(5, end_diff < 1e-8 and residual < 1e-10,
           f"RK4 vs cosh/sinh at T=1: diff {end_diff:.3e} (tol 1e-8); "
           f"generator residual {residual:.3e} (tol 1e-10)")


def test_criterion_6_physical_flow():
    # The bracket table pinned by criteria 1-2 forces the angular rate:
    # phi_dot = {phi, C+U}_D = U'(r) {phi, r}_D = +p_phi U'(r*)/(2 alpha^2 r*^3)
    # on-surface, which is +0.5 for U = r^2/2, alpha = 1, k = 0, p_phi = 2. The
    # reduced-chart route d U(r*(p_phi))/d p_phi independently gives the same
    # value, so +0.5 is what the flow must produce.
    model = KlauderModel(alpha=1.0, k=0.0, potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.0, p_phi=2.0)
    traj = evolve(x0, DiracFlow(model.hamiltonian(), model.constraint_set),
                  IntegratorConfig(dt=1e-3, steps=10000))
    const_dev = max(float(np.max(np.abs(traj.states[:, i] - traj.states[0, i])))
                    for i in (0, 2, 3))
    measured_rate = (traj.states[-1, 1] - traj.states[0, 1]) / traj.times[-1]
    rate_dev = abs(measured_rate - 0.5)
    linearity = float(np.max(np.abs(traj.states[:, 1] - model.circular_orbit(0.0, 2.0,
                                                                             traj.times))))
    report(6, const_dev < 1e-8 and rate_dev < 1e-8 and linearity < 1e-8,
           f"(r,p_r,p_phi) constant to {const_dev:.3e} (tol 1e-8); "
           f"phi_dot {measured_rate:+.12f} vs +0.5, diff {rate_dev:.3e} (tol 1e-8); "
           f"|phi(t) - linear orbit| {linearity:.3e}")


def test_criterion_7_relativistic_particle():
    rng = np.random.default_rng(SEED)
    particle = RelativisticParticle(mass=4.0, spatial_dim=3)
    samples = particle.sample_on_shell(rng, 100)
    pairing = 0.0
    for x in samples:
        cs = particle.constraint_set  # at tau = 0: every on-shell sample has x0 = 0
        pairing = max(pairing, abs(poisson_bracket(cs.fields[0], cs.fields[1], x) - x["p0"]))
    report_values = particle.bracket_report(samples[:25])
    x0, p = np.array([0.0, -1.0, 2.0]), np.array([3.0, 0.0, 0.0])
    start = particle.spatial_chart.point(np.concatenate([x0, p]))
    traj = evolve(start, PoissonFlow(particle.physical_hamiltonian),
                  IntegratorConfig(dt=1e-3, steps=10000))
    traj_diff = float(np.max(np.abs(traj.states[-1, :3] - particle.trajectory(x0, p, 10.0))))
    ok = pairing < 1e-10 and traj_diff < 1e-8 and report_values["xp"] < 1e-9
    report(7, ok,
           f"{{chi,C}}=p0 to {pairing:.3e} (tol 1e-10); RK4 vs closed form {traj_diff:.3e} "
           f"(tol 1e-8); {{x,p}}_D=delta to {report_values['xp']:.3e} (tol 1e-9)")


def test_criterion_8_lattice_maxwell():
    rng = np.random.default_rng(SEED)
    worst_matrix, worst_proj, worst_energy, worst_gauss = 0.0, 0.0, 0.0, 0.0
    for side in (2, 4):
        model = LatticeMaxwell(side=side)
        projector = model.transverse_projector()
        worst_proj = max(worst_proj, float(np.max(np.abs(projector @ projector - projector))))
        worst_matrix = max(worst_matrix, float(np.max(np.abs(
            model.dirac_bracket_matrices() - projector))))
        a0 = model.random_transverse(rng)
        e0 = model.random_transverse(rng, 0.5)
        traj = model.evolve(a0, e0, IntegratorConfig(dt=1e-3, steps=10000))
        n = model.n_components
        start = model.energy(a0, e0)
        final = model.energy(traj.states[-1, :n], traj.states[-1, n:])
        worst_energy = max(worst_energy, abs(final - start) / max(1.0, abs(start)))
        worst_gauss = max(worst_gauss, float(np.max(traj.residuals["gauss"])))
    ok = (worst_matrix < 1e-8 and worst_proj < 1e-10
          and worst_energy < 1e-8 and worst_gauss < 1e-9)
    report(8, ok,
           f"L=2,4: Dirac matrix vs projector {worst_matrix:.3e} (tol 1e-8); "
           f"P^2-P {worst_proj:.3e} (tol 1e-10); energy drift {worst_energy:.3e} "
           f"(tol 1e-8); Gauss residual {worst_gauss:.3e} (tol 1e-9) over 1e4 steps")


def test_criterion_9_quantum():
    rng = np.random.default_rng(SEED)
    model = KlauderModel(alpha=1.0, k=0.5, potential=RadialPotential((0.0, 0.7)))
    table, grid = SpectrumTable.build(model, 8), PhiGrid.build(8, 4096)
    worst_norm, worst_quad = 0.0, 0.0
    for _ in range(100):
        state = CircleState.random(rng, 8)
        t = rng.uniform(0.0, 10.0)
        evolved = evolve_static(state, table, t)
        worst_norm = max(worst_norm, abs(evolved.norm_squared() - 1.0))
        worst_quad = max(worst_quad, abs(expect_phi(state, table, t).value
                                         - expect_phi_quadrature(state, table, t, 4096, grid)))
    ramp_model = KlauderModel(alpha=1.0, k=KRamp(0.5, 0.2), potential=RadialPotential((0.0, 0.7)))
    tdep = evolve_time_dependent(CircleState.random(rng, 8), ramp_model, 0.0, 2.0, 512)
    worst_norm = max(worst_norm, abs(tdep.norm_squared() - 1.0))

    single = expect_phi(CircleState.single_mode(2, 8), table, 1.3)
    single_dev = abs(single.value - math.pi)

    model0 = KlauderModel(alpha=1.0, k=0.0)
    reduced = expect_reduced(CircleState.single_mode(1, 4), SpectrumTable.build(model0, 4))
    reduced_dev = max(abs(reduced.r_mean - 1.0), abs(reduced.pr_mean),
                      abs(reduced.pphi_mean - 1.0))
    ok = (worst_norm < 1e-14 and worst_quad < 1e-6 and single_dev <= 1e-15
          and reduced_dev < 1e-12)
    report(9, ok,
           f"norm drift {worst_norm:.3e} (tol 1e-14); analytic-vs-quadrature <phi> "
           f"{worst_quad:.3e} (tol 1e-6) on 100 states; single-mode <phi>-pi "
           f"{single_dev:.3e}; reduced expectations dev {reduced_dev:.3e} (tol 1e-12)")


def test_criterion_10_time_dependent_k():
    rng = np.random.default_rng(SEED)
    model = KlauderModel(alpha=1.0, k=2.0, potential=RadialPotential((0.0, 0.0, 0.3)))
    table = SpectrumTable.build(model, 5)
    state = CircleState.random(rng, 5)
    static = evolve_static(state, table, 0.7)
    ramped = evolve_time_dependent(state, model, 0.0, 0.7, quadrature_steps=64)
    reduction_dev = float(np.max(np.abs(static.coeffs - ramped.coeffs)))

    ramp = KlauderModel(alpha=1.0, k=KRamp(0.0, 1.0), potential=RadialPotential((0.0, 1.0)))
    single = CircleState.single_mode(0, 1)
    out = evolve_time_dependent(single, ramp, 0.0, 1.0, quadrature_steps=2_000_000)
    phase = -np.angle(out.coeffs[1] / single.coeffs[1])
    phase_dev = abs(phase - 2.0 / 3.0)
    report(10, reduction_dev < 1e-12 and phase_dev < 1e-10,
           f"constant-k reduction {reduction_dev:.3e} (tol 1e-12); "
           f"k(t)=t phase vs 2/3: {phase_dev:.3e} (tol 1e-10)")


def test_criterion_11_verify_cli():
    clean = subprocess.run([sys.executable, "-m", "diracmech", "verify", "all"],
                           capture_output=True, text=True)
    fault = subprocess.run([sys.executable, "-m", "diracmech", "verify", "klauder",
                            "--inject-fault", "klauder.bracket_table"],
                           capture_output=True, text=True)
    ok = clean.returncode == 0 and fault.returncode == 1 \
        and "FAIL klauder.bracket_table" in fault.stdout
    report(11, ok,
           f"`verify all` exit {clean.returncode} (want 0); injected-fault exit "
           f"{fault.returncode} (want 1)")

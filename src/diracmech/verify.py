"""Named invariant checks behind the ``verify`` subcommand.

Each check measures a worst-case deviation against its tolerance and reports
one line. ``fault`` shifts the check's oracle (not its measurement) so a
deliberately broken expectation demonstrably fails; the CLI exposes this as
--inject-fault for negative-control runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brackets import poisson_bracket, poisson_bracket_field
from .circle import (CircleState, PhiGrid, SpectrumTable, evolve_static, evolve_time_dependent,
                     expect_cartesian, expect_cartesian_matrix_oracle, expect_phi,
                     expect_phi_quadrature, expect_reduced)
from .constraints import (ConstraintSet, classify, dirac_bracket, dirac_tensor,
                          observable_check, pair_jacobian_check, reduced_bracket_check)
from .dynamics import (IntegratorConfig, PoissonFlow, constraint_drift, evolve,
                       gauge_orbit_closed_form)
from .errors import UsageError
from .fields import (coordinate_field, field_product, gradient_consistency_check,
                     polynomial_field)
from .models import KlauderModel, KRamp, LatticeMaxwell, RadialPotential, RelativisticParticle
from .phase import ChartSpec

DEFAULT_SEED = 20250810
FAULT_SIZE = 1e-3  # the oracle shift of an injected fault


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"{status} {self.check_id}: measured {self.measured:.3e} "
                f"vs tolerance {self.threshold:.3e}{extra}")


def _result(check_id, measured, threshold, detail=""):
    return CheckResult(check_id=check_id, passed=bool(measured < threshold),
                       measured=float(measured), threshold=float(threshold),
                       detail=detail)


def _random_poly(chart, rng, degree=2, terms=5, name="poly"):
    dim = chart.dim
    spec = []
    for _ in range(terms):
        powers = [0] * dim
        for _ in range(rng.integers(1, degree + 1)):
            powers[rng.integers(0, dim)] += 1
        spec.append((rng.uniform(-1.0, 1.0), powers))
    return polynomial_field(chart, spec, name=name)


def _flat_chart(n_pairs=2):
    labels = tuple(f"q{i}" for i in range(1, n_pairs + 1)) + \
             tuple(f"p{i}" for i in range(1, n_pairs + 1))
    return ChartSpec(labels=labels, name="flat")


def _uniform_points(chart, rng, n):
    return [chart.point(rng.uniform(-3, 3, chart.dim)) for _ in range(n)]


# --------------------------------------------------------------------------
# core bracket engine


def check_canonical_relations(rng, fault):
    chart = _flat_chart(3)
    qs = [coordinate_field(chart, l) for l in chart.q_labels]
    ps = [coordinate_field(chart, l) for l in chart.p_labels]
    worst = 0.0
    for _ in range(20):
        x = chart.point(rng.uniform(-5, 5, chart.dim))
        for i in range(3):
            for j in range(3):
                target = (1.0 if i == j else 0.0) + fault
                worst = max(worst, abs(poisson_bracket(qs[i], ps[j], x) - target),
                            abs(poisson_bracket(qs[i], qs[j], x) - fault),
                            abs(poisson_bracket(ps[i], ps[j], x) - fault))
    return _result("core.canonical_relations", worst, 1e-15, "exact delta_ij structure")


def check_antisymmetry(rng, fault):
    chart = _flat_chart(2)
    worst = 0.0
    for trial in range(25):
        a = _random_poly(chart, rng, name=f"a{trial}")
        b = _random_poly(chart, rng, name=f"b{trial}")
        x = chart.point(rng.uniform(-3, 3, chart.dim))
        worst = max(worst, abs(poisson_bracket(a, b, x) + poisson_bracket(b, a, x) - fault))
    return _result("core.antisymmetry", worst, 1e-12)


def check_leibniz(rng, fault):
    chart = _flat_chart(2)
    worst = 0.0
    for trial in range(25):
        a, b, c = (_random_poly(chart, rng, name=n) for n in ("a", "b", "c"))
        x = chart.point(rng.uniform(-2, 2, chart.dim))
        left = poisson_bracket(field_product(a, b), c, x)
        right = a.value(x) * poisson_bracket(b, c, x) + b.value(x) * poisson_bracket(a, c, x)
        scale = max(1.0, abs(left), abs(right))
        worst = max(worst, abs(left - right - fault) / scale)
    return _result("core.leibniz", worst, 1e-10, "relative")


def check_jacobi(rng, fault):
    chart = _flat_chart(2)
    worst = 0.0
    for trial in range(20):
        a, b, c = (_random_poly(chart, rng, degree=2, terms=4, name=n)
                   for n in ("a", "b", "c"))
        x = chart.point(rng.uniform(-2, 2, chart.dim))
        total = (poisson_bracket(a, poisson_bracket_field(b, c), x)
                 + poisson_bracket(b, poisson_bracket_field(c, a), x)
                 + poisson_bracket(c, poisson_bracket_field(a, b), x))
        worst = max(worst, abs(total - fault))
    return _result("core.jacobi", worst, 1e-8, "nested brackets by finite differences")


def check_gradient_consistency(rng, fault):
    """Every model gradient (each a trace) and a polynomial's against central differences."""
    model = KlauderModel(alpha=1.3, k=0.7, potential=RadialPotential.harmonic())
    worst = 0.0
    for x in model.sample_points(rng, 20):
        worst = max(worst, gradient_consistency_check(model.constraint, x).max_rel_err,
                    gradient_consistency_check(model.gauge_condition, x).max_rel_err)
    chart = _flat_chart(2)
    poly = _random_poly(chart, rng)
    for _ in range(10):
        x = chart.point(rng.uniform(-3, 3, chart.dim))
        worst = max(worst, gradient_consistency_check(poly, x).max_rel_err)
    particle = RelativisticParticle(mass=2.0, spatial_dim=3)
    for fields, points in (
            ([model.hamiltonian()], model.sample_points(rng, 5)),
            ([model.cartesian_generator], _uniform_points(model.cartesian_chart, rng, 5)),
            ([particle.mass_shell, particle.time_gauge(0.4)],
             _uniform_points(particle.full_chart, rng, 5)),
            ([particle.physical_hamiltonian], _uniform_points(particle.spatial_chart, rng, 5))):
        for x in points:
            worst = max(worst, *(gradient_consistency_check(f, x).max_rel_err for f in fields))
    return _result("core.gradient_consistency", worst + fault, 1e-6)


# --------------------------------------------------------------------------
# constraint engine


def check_dirac_reduces_to_poisson(rng, fault):
    chart = _flat_chart(2)
    empty = ConstraintSet(chart=chart, fields=(), names=())
    worst = 0.0
    for trial in range(20):
        a, b = _random_poly(chart, rng, name="a"), _random_poly(chart, rng, name="b")
        x = chart.point(rng.uniform(-3, 3, chart.dim))
        worst = max(worst, abs(dirac_bracket(a, b, empty, x) - poisson_bracket(a, b, x) - fault))
    return _result("constraints.dirac_reduces_to_poisson", worst, 1e-12)


def check_dirac_antisymmetry(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    cs = model.constraint_set
    chart = model.polar_chart
    worst = 0.0
    for trial in range(15):
        a, b = _random_poly(chart, rng, name="a"), _random_poly(chart, rng, name="b")
        x = model.sample_points(rng, 1)[0]
        worst = max(worst, abs(dirac_bracket(a, b, cs, x) + dirac_bracket(b, a, cs, x) - fault))
    return _result("constraints.dirac_antisymmetry", worst, 1e-10)


def check_observable_identity(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    cs = model.constraint_set
    worst = 0.0
    samples = model.sample_points(rng, 25)
    for trial in range(5):
        a = _random_poly(model.polar_chart, rng, name=f"obs{trial}")
        worst = max(worst, observable_check(a, cs, samples).max_abs)
    return _result("constraints.observable_identity", worst + fault, 1e-9,
                   "|{A, Phi}_D| for random fields")


def check_classification(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    on_surface = model.sample_surface(rng, 10)
    kinds = []
    kinds.append(classify(model.constraint_set, on_surface, 1e-8).kind == "second_class")
    alone = ConstraintSet(model.polar_chart, (model.constraint,), ("C",))
    kinds.append(classify(alone, on_surface, 1e-8).kind == "first_class")
    chart = _flat_chart(2)
    q1q2 = ConstraintSet(chart, (coordinate_field(chart, "q1"), coordinate_field(chart, "q2")),
                         ("q1", "q2"))
    flat_samples = [chart.point([0.0, 0.0, rng.uniform(-3, 3), rng.uniform(-3, 3)])
                    for _ in range(5)]
    kinds.append(classify(q1q2, flat_samples, 1e-8).kind == "first_class")
    wrong = sum(1 for ok in kinds if not ok) + abs(fault) / FAULT_SIZE  # a fault: one wrong kind
    return _result("constraints.classification", wrong, 0.5,
                   "second class pair / first class singles")


# --------------------------------------------------------------------------
# planar model oracles


def check_bracket_table(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    chart = model.bracket_chart
    batch = model.sample(rng, 200)
    engine = dirac_tensor(model.constraint_set, batch)
    worst = 0.0
    for pair in model.bracket_pairs:
        value = engine[chart.index(pair[0])][chart.index(pair[1])]
        worst = max(worst, np.max(np.abs(value - (model.dirac_oracle(pair, batch) + fault))))
    return _result("klauder.bracket_table", worst, 1e-9, "matrix formula vs closed forms")


def check_surface_simplification(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    chart = model.polar_chart
    r, phi = coordinate_field(chart, "r"), coordinate_field(chart, "phi")
    worst = 0.0
    for _ in range(100):
        p_phi = rng.uniform(-5, 5)
        x = model.embed_reduced(rng.uniform(0, 2 * np.pi), p_phi)
        denom = x["p_phi"] ** 2 + (x["r"] * x["p_r"]) ** 2 + (model.alpha * x["r"] ** 2) ** 2
        worst = max(worst, abs(denom - model.surface_denominator(p_phi) - fault))
        engine = dirac_bracket(r, phi, model.constraint_set, x)
        closed = -x["r"] * p_phi / (2.0 * (p_phi ** 2 + model.k(0.0) ** 2))
        worst = max(worst, abs(engine - closed - fault))
    return _result("klauder.surface_simplification", worst, 1e-9,
                   "on-surface denominator 2(k^2+p_phi^2)")


def check_reduced_bracket_equivalence(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    chart = model.polar_chart
    param = model.surface_parametrization
    worst = 0.0
    for trial in range(10):
        a = _random_poly(chart, rng, name="a")
        b = _random_poly(chart, rng, name="b")
        zred = param.reduced_chart.point([rng.uniform(0, 2 * np.pi), rng.uniform(-5, 5)])
        report = reduced_bracket_check(a, b, model.constraint_set, param, zred)
        worst = max(worst, report.abs_diff + abs(fault))
    return _result("klauder.reduced_bracket_equivalence", worst, 1e-8,
                   "Dirac vs reduced-chart Poisson")


def check_measure_jacobian(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    worst = 0.0
    for x in model.sample_points(rng, 20):
        rep = pair_jacobian_check(model.gauge_condition, model.constraint, x, ("r", "p_r"))
        worst = max(worst, rep.abs_diff + abs(fault))
    return _result("klauder.measure_jacobian", worst, 1e-9,
                   "d(chi,C)/d(r,p_r) vs {chi,C}")


def check_rotational_invariance(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0)
    chart = model.polar_chart
    p_phi = coordinate_field(chart, "p_phi")
    worst = 0.0
    for trial in range(10):
        # fields of (r, p_r, p_phi) only: rotation generator must Dirac-commute
        spec = []
        for _ in range(4):
            powers = [0, 0, 0, 0]
            for _ in range(rng.integers(1, 3)):
                powers[int(rng.choice([0, 2, 3]))] += 1
            spec.append((rng.uniform(-1, 1), powers))
        a = polynomial_field(chart, spec, name="invariant")
        x = model.sample_points(rng, 1)[0]
        worst = max(worst, abs(dirac_bracket(a, p_phi, model.constraint_set, x)) + abs(fault))
    return _result("klauder.rotational_invariance", worst, 1e-9)


def check_circular_orbit(rng, fault):
    model = KlauderModel(alpha=1.0, k=0.0, potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.3, p_phi=2.0)
    traj = evolve(x0, model.flow("dirac")[0], IntegratorConfig(dt=1e-3, steps=1000))
    const_dev = max(float(np.max(np.abs(traj.states[:, i] - traj.states[0, i])))
                    for i in (0, 2, 3))
    measured_rate = (traj.states[-1, 1] - traj.states[0, 1]) / traj.times[-1]
    rate_dev = abs(measured_rate - (model.phi_rate(2.0) + fault))
    return _result("klauder.circular_orbit", max(const_dev, rate_dev), 1e-8,
                   "constant radius, linear angle")


# --------------------------------------------------------------------------
# dynamics


def check_gauge_closed_form(rng, fault):
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([1.0, 0.0, 1.0, 0.0])
    flow, monitor = model.flow("gauge", 1.0)
    traj = evolve(x0, flow, IntegratorConfig(dt=1e-3, steps=1000), monitor=monitor)
    q, p = gauge_orbit_closed_form([1.0, 0.0], [1.0, 0.0], 1.0, 1.0 + fault)
    end_dev = float(np.max(np.abs(traj.states[-1] - np.concatenate([q, p]))))
    residual = float(np.max(traj.residuals["C"]))
    # express both on the end-point scale: residual tolerance is 100x tighter
    measured = max(end_dev, residual * 1e2)
    return _result("dynamics.gauge_closed_form", measured, 1e-8,
                   f"cosh/sinh orbit diff {end_dev:.1e}; generator residual {residual:.1e} "
                   "(tol 1e-10)")


def check_gauge_residual_order(rng, fault):
    model = KlauderModel(alpha=1.0, k=0.0)
    x0 = model.cartesian_chart.point([1.3, -0.4, 0.9, 0.8])
    flow, monitor = model.flow("gauge", 1.0)
    start = abs(model.cartesian_generator.value(x0)) + abs(fault)  # the conserved value
    residuals = []
    for dt, steps in ((2e-2, 50), (1e-2, 100)):
        traj = evolve(x0, flow, IntegratorConfig(dt=dt, steps=steps), monitor=monitor)
        residuals.append(float(np.max(np.abs(traj.residuals["C"] - start))))
    ratio = residuals[0] / max(residuals[1], 1e-300)
    measured = 15.0 - ratio  # negative when the order-4 ratio holds
    return _result("dynamics.gauge_residual_order", measured, 0.0,
                   f"halving dt cut the residual {ratio:.1f}x (need >= 15)")


def check_energy_conservation(rng, fault):
    chart = _flat_chart(1)
    h = polynomial_field(chart, [(0.5, (2, 0)), (0.5, (0, 2))], name="oscillator")
    x0 = chart.point([1.0, 0.3])
    traj = evolve(x0, PoissonFlow(h), IntegratorConfig(dt=1e-3, steps=10000))
    values = traj.generator_values
    drift = float(np.max(np.abs(values - values[0]))) / max(1.0, abs(values[0]))
    return _result("dynamics.energy_conservation", drift + abs(fault), 1e-8,
                   "harmonic oscillator, 1e4 RK4 steps")


def check_dirac_surface_drift(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential.harmonic())
    x0 = model.embed_reduced(phi=0.0, p_phi=1.0)
    traj = evolve(x0, model.flow("dirac")[0], IntegratorConfig(dt=1e-3, steps=2000))
    drift = constraint_drift(traj)
    worst = max(stats.max_residual for stats in drift.values())
    return _result("dynamics.dirac_surface_drift", worst + abs(fault), 1e-8,
                   "flow tangent to the constraint surface")


# --------------------------------------------------------------------------
# relativistic particle


def check_bracket_suite(rng, fault):
    particle = RelativisticParticle(mass=2.0, spatial_dim=3)
    report = particle.bracket_report(particle.sample_on_shell(rng, 30))
    worst = max(report.values())
    return _result("particle.bracket_suite", worst + abs(fault), 1e-9,
                   "{chi,C}=p0 and canonical reduced pairs")


def check_trajectory(rng, fault):
    particle = RelativisticParticle(mass=4.0, spatial_dim=3)
    x0 = np.array([0.0, -1.0, 2.0])
    p = np.array([3.0, 0.0, 0.0])
    start = particle.spatial_chart.point(np.concatenate([x0, p]))
    traj = evolve(start, PoissonFlow(particle.physical_hamiltonian),
                  IntegratorConfig(dt=1e-2, steps=1000))
    closed = particle.trajectory(x0, p, 10.0) + fault
    dev = float(np.max(np.abs(traj.states[-1, :3] - closed)))
    return _result("particle.trajectory", dev, 1e-8, "straight line at p/E")


# --------------------------------------------------------------------------
# lattice gauge fields


def check_projector_identity(rng, fault):
    """The matrix-free maxwell footer, its CG Dirac route included."""
    worst = 0.0
    detail = []
    for side in (2, 4):
        model = LatticeMaxwell(side=side)
        res = model.projector_residuals()
        trace_dev = res["projector_trace_deviation"]
        worst = max(worst, res["projector_idempotency"] + abs(fault),
                    res["projector_symmetry"], abs(trace_dev), res["dirac_vs_projector"])
        detail.append(f"L={side} trace {2 * model.sites + 1 + trace_dev:.1f}")
    return _result("maxwell.projector_identity", worst, 1e-10, ", ".join(detail))


def check_projector_action(rng, fault):
    model = LatticeMaxwell(side=3)
    lam = rng.normal(size=model.sites)
    lam -= lam.mean()
    gradient = model.forward_gradient(lam)
    worst = (float(np.max(np.abs(model.project(gradient))))
             / max(1.0, float(np.max(np.abs(gradient)))))
    transverse = model.random_transverse(rng)
    worst = max(worst, float(np.max(np.abs(model.project(transverse) - transverse)))
                / max(1.0, float(np.max(np.abs(transverse)))))
    return _result("maxwell.projector_action", worst + abs(fault), 1e-10,
                   "kills gradients, fixes divergence-free fields")


def check_dirac_matrix(rng, fault):
    """{A,E}_D entry by entry by three routes: FFT on the identity, pinv and LU."""
    worst = 0.0
    for side in (2, 4):
        model = LatticeMaxwell(side=side)
        fft = model.project(np.eye(model.n_components))
        pinv = model.transverse_projector()
        lu = model.dirac_bracket_matrices()
        worst = max(worst, float(np.max(np.abs(lu - fft))) + abs(fault),
                    float(np.max(np.abs(pinv - fft))), float(np.max(np.abs(lu - pinv))))
    return _result("maxwell.dirac_matrix", worst, 1e-8,
                   "{A,E}_D by FFT, pseudo-inverse and LU agree")


def check_evolution(rng, fault):
    """The spectral RK4 over 2,000 steps: its energy drift, its Gauss residual, and its
    first 200 states against the stencil RK4 of the generic Poisson flow, relative to the
    field scale. Each measured at most 3.0e-15 over seeds 0-59 and the default."""
    model = LatticeMaxwell(side=2)
    a0, omega = model.lowest_standing_mode()
    e0 = model.random_transverse(rng, 0.3)
    traj = model.evolve(a0, e0, IntegratorConfig(dt=1e-3, steps=2000))
    energies = traj.generator_values[::100]
    drift = float(np.max(np.abs(energies - energies[0]))) / max(1.0, abs(energies[0]))
    gauss = float(np.max(traj.residuals["gauss"]))
    stencil = evolve(model.chart.point(np.concatenate([a0, e0])), PoissonFlow(model.hamiltonian),
                     IntegratorConfig(dt=1e-3, steps=200)).states
    deviation = float(np.max(np.abs(traj.states[:201] - stencil)) / np.max(np.abs(stencil)))
    return _result("maxwell.evolution", max(drift + abs(fault), gauss, deviation), 1e-13,
                   f"energy drift {drift:.1e}, Gauss residual {gauss:.1e}, "
                   f"stencil deviation {deviation:.1e}")


# --------------------------------------------------------------------------
# circle quantization


def check_unitarity(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential((0.0, 0.4, 0.1)))
    table = SpectrumTable.build(model, 8)
    worst = 0.0
    state = CircleState.random(rng, 8)
    for _ in range(200):
        state = evolve_static(state, table, rng.uniform(0, 5))
        worst = max(worst, abs(state.norm_squared() - 1.0))
    state2 = evolve_time_dependent(CircleState.random(rng, 8), model, 0.0, 2.0, 512)
    worst = max(worst, abs(state2.norm_squared() - 1.0))
    return _result("quantum.unitarity", worst + abs(fault), 1e-14)


def check_stationarity(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential((0.0, 1.0)))
    table = SpectrumTable.build(model, 6)
    state = CircleState.random(rng, 6)
    before = expect_reduced(state, table)
    after = expect_reduced(evolve_static(state, table, 3.7), table)
    worst = max(abs(before.r_mean - after.r_mean), abs(before.pr_mean - after.pr_mean),
                abs(before.pphi_mean - after.pphi_mean))
    return _result("quantum.stationarity", worst + abs(fault), 1e-12,
                   "diagonal observables frozen under static evolution")


def check_phi_vs_quadrature(rng, fault):
    model = KlauderModel(alpha=1.0, k=0.5, potential=RadialPotential((0.0, 0.7)))
    table = SpectrumTable.build(model, 8)
    grid = PhiGrid.build(8, 4096)
    worst = 0.0
    for _ in range(20):
        state = CircleState.random(rng, 8)
        t = rng.uniform(0, 10)
        analytic = expect_phi(state, table, t)
        quad = expect_phi_quadrature(state, table, t, 4096, grid)
        worst = max(worst, abs(analytic.value - quad - fault), abs(analytic.imag_residue))
    return _result("quantum.phi_vs_quadrature", worst, 1e-6,
                   "double sum vs 4096-node quadrature")


def check_cartesian_oracle(rng, fault):
    model = KlauderModel(alpha=1.0, k=1.0, potential=RadialPotential((0.0, 0.3)))
    table = SpectrumTable.build(model, 6)
    worst = 0.0
    for _ in range(10):
        state = CircleState.random(rng, 6)
        t = rng.uniform(0, 5)
        direct = expect_cartesian(state, table, t)
        oracle = expect_cartesian_matrix_oracle(state, table, t)
        worst = max(worst, abs(direct.xy - oracle.xy) + abs(fault),
                    abs(direct.pxy - oracle.pxy))
    return _result("quantum.cartesian_oracle", worst, 1e-10,
                   "adjacent-mode sums vs dense matrix elements")


def check_tdep_reduction(rng, fault):
    model = KlauderModel(alpha=1.0, k=2.0, potential=RadialPotential((0.0, 0.0, 0.3)))
    table = SpectrumTable.build(model, 5)
    state = CircleState.random(rng, 5)
    static = evolve_static(state, table, 0.7)
    ramped = evolve_time_dependent(state, model, 0.0, 0.7, 64)
    worst = float(np.max(np.abs(static.coeffs - ramped.coeffs)))
    return _result("quantum.tdep_reduction", worst + abs(fault), 1e-12,
                   "constant k collapses to static phases")


def check_tdep_phase(rng, fault):
    model = KlauderModel(alpha=1.0, k=KRamp(0.0, 1.0), potential=RadialPotential((0.0, 1.0)))
    state = CircleState.single_mode(0, 1)
    out = evolve_time_dependent(state, model, 0.0, 1.0)
    phase = -np.angle(out.coeffs[1] / state.coeffs[1])
    return _result("quantum.tdep_phase", abs(phase - (2.0 / 3.0 + fault)), 1e-10,
                   "k(t)=t, U(r)=r: phase integral of sqrt(t)")


# --------------------------------------------------------------------------

SUITES: dict[str, list[Callable]] = {
    "core": [check_canonical_relations, check_antisymmetry, check_leibniz,
             check_jacobi, check_gradient_consistency],
    "constraints": [check_dirac_reduces_to_poisson, check_dirac_antisymmetry,
                    check_observable_identity, check_classification],
    "klauder": [check_bracket_table, check_surface_simplification,
                check_reduced_bracket_equivalence, check_measure_jacobian,
                check_rotational_invariance, check_circular_orbit],
    "dynamics": [check_gauge_closed_form, check_gauge_residual_order,
                 check_energy_conservation, check_dirac_surface_drift],
    "particle": [check_bracket_suite, check_trajectory],
    "maxwell": [check_projector_identity, check_projector_action,
                check_dirac_matrix, check_evolution],
    "quantum": [check_unitarity, check_stationarity, check_phi_vs_quadrature,
                check_cartesian_oracle, check_tdep_reduction, check_tdep_phase],
}

_CHECK_IDS = {}
for _suite, _checks in SUITES.items():
    for _check in _checks:
        _CHECK_IDS[_check.__name__.replace("check_", f"{_suite}.")] = _check


def available_suites() -> list[str]:
    return ["all", *SUITES.keys()]


def run_suite(selector: str = "all", seed: int = DEFAULT_SEED,
              inject_fault: str | None = None) -> list[CheckResult]:
    """Run one suite (or all), optionally shifting the oracle of the check named
    by its short or qualified id (``bracket_table`` or ``klauder.bracket_table``)."""
    if selector == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif selector in SUITES:
        checks = SUITES[selector]
    else:
        raise UsageError(f"unknown suite {selector!r}; choose from {available_suites()}")
    ids = [{check.__name__.replace("check_", ""),
            *(cid for cid, fn in _CHECK_IDS.items() if fn is check)} for check in checks]
    if inject_fault is not None and not any(inject_fault in names for names in ids):
        raise UsageError(f"inject_fault {inject_fault!r} names no check of suite {selector!r}")
    results = []
    for check, names in zip(checks, ids):
        fault = FAULT_SIZE if inject_fault in names else 0.0
        rng = np.random.default_rng(seed)
        results.append(check(rng, fault))
    return results

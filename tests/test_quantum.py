import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.circle import (CircleState, PhiGrid, SpectrumTable, evolve_static,
                              evolve_time_dependent, expect_cartesian,
                              expect_cartesian_matrix_oracle, expect_phi,
                              expect_phi_quadrature, expect_reduced)
from diracmech.errors import NumericDomainError, UsageError
from diracmech.models import KlauderModel, KRamp, RadialPotential

LINEAR = RadialPotential((0.0, 1.0))


def table_for(alpha=1.0, k=1.0, m_max=4, potential=LINEAR, hbar=1.0):
    model = KlauderModel(alpha=alpha, k=k, hbar=hbar, potential=potential)
    return model, SpectrumTable.build(model, m_max)


# -- state plumbing -----------------------------------------------------------

def test_normalize_examples():
    s = CircleState(np.array([0, 0, 0, 2.0, 0, 0, 0], dtype=complex)).normalized()
    assert s.coeffs[3] == 1.0
    s2 = CircleState(np.array([0, 0, 0, 1.0, 1.0, 0, 0], dtype=complex)).normalized()
    assert s2.coeffs[3] == pytest.approx(1 / math.sqrt(2))
    again = s2.normalized()
    assert np.max(np.abs(again.coeffs - s2.coeffs)) < 1e-15


def test_normalize_zero_state():
    with pytest.raises(UsageError):
        CircleState(np.zeros(3, dtype=complex)).normalized()


def test_state_validation():
    with pytest.raises(UsageError):
        CircleState(np.zeros(4, dtype=complex))  # even length
    with pytest.raises(NumericDomainError):
        CircleState(np.array([np.nan + 0j, 1.0, 0.0]))
    with pytest.raises(UsageError):
        CircleState(np.array([1.0 + 0j]), hbar=0.0)


amplitudes = st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=5, max_size=5)


@given(amplitudes)
@example([(0.0, 0.0), (0.0, 2.2e-313), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)])  # squares to 0
@settings(max_examples=40, deadline=None)
def test_normalize_is_unit_norm(raw):
    coeffs = np.array([complex(a, b) for a, b in raw])
    if not np.any(coeffs):
        return
    assert CircleState(coeffs).normalized().norm_squared() == pytest.approx(1.0, abs=1e-14)


# -- static evolution -----------------------------------------------------------

def test_evolve_identity_at_zero(rng):
    model, table = table_for()
    state = CircleState.random(rng, 4)
    out = evolve_static(state, table, 0.0)
    assert np.max(np.abs(out.coeffs - state.coeffs)) < 1e-15


def test_single_mode_is_stationary():
    model, table = table_for()
    state = CircleState.single_mode(2, 4)
    out = evolve_static(state, table, 3.1)
    # a global phase: diagonal observables unchanged
    assert abs(abs(out.coeffs[6]) - 1.0) < 1e-15
    before, after = expect_reduced(state, table), expect_reduced(out, table)
    assert before == after
    assert expect_phi(out, table, 0.0).value == pytest.approx(math.pi, abs=1e-15)


def test_unitarity_many_phase_applications(rng):
    # 1e6 accumulated per-mode phase multiplications (129 modes x ~7800 steps)
    model, table = table_for(m_max=64)
    state = CircleState.random(rng, 64)
    applications = 0
    while applications < 1_000_000:
        state = evolve_static(state, table, 0.37)
        applications += len(state.coeffs)
    assert abs(state.norm_squared() - 1.0) < 1e-14


def test_evolve_requires_normalized(rng):
    model, table = table_for()
    raw = CircleState(np.full(9, 0.5 + 0.0j))
    with pytest.raises(UsageError, match="normalized"):
        evolve_static(raw, table, 1.0)


# -- time-dependent evolution ------------------------------------------------------

def test_constant_ramp_matches_static(rng):
    model = KlauderModel(alpha=1.0, k=2.0, potential=RadialPotential((0.0, 0.0, 0.3)))
    table = SpectrumTable.build(model, 5)
    state = CircleState.random(rng, 5)
    static = evolve_static(state, table, 0.7)
    ramped = evolve_time_dependent(state, model, 0.0, 0.7, quadrature_steps=64)
    assert np.max(np.abs(static.coeffs - ramped.coeffs)) < 1e-12


def test_linear_ramp_phase_integral():
    # k(t) = t with U(r) = r makes the m = 0 phase int_0^1 sqrt(t) dt = 2/3
    model = KlauderModel(alpha=1.0, k=KRamp(0.0, 1.0), potential=LINEAR)
    state = CircleState.single_mode(0, 1)
    out = evolve_time_dependent(state, model, 0.0, 1.0, quadrature_steps=2_000_000)
    phase = -np.angle(out.coeffs[1] / state.coeffs[1])
    assert phase == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_ramp_through_zero_integrates_the_cusp():
    # k = 0.5 - t vanishes at t* = 0.5: the m = 0 phase is int_0^1.3 sqrt|0.5 - t| dt
    model = KlauderModel(alpha=1.0, k=KRamp(0.5, -1.0), potential=LINEAR)
    state = CircleState.single_mode(0, 1)
    out = evolve_time_dependent(state, model, 0.0, 1.3)
    phase = -np.angle(out.coeffs[1] / state.coeffs[1])
    assert phase == pytest.approx((2.0 / 3.0) * (0.5 ** 1.5 + 0.8 ** 1.5), abs=1e-12)
    back = evolve_time_dependent(out, model, 1.3, 0.0)
    assert np.max(np.abs(back.coeffs - state.coeffs)) < 1e-14


def test_time_dependent_norm_preserved(rng):
    model = KlauderModel(alpha=1.2, k=KRamp(0.5, 0.3), potential=RadialPotential((0.0, 0.4)))
    state = CircleState.random(rng, 6)
    out = evolve_time_dependent(state, model, 0.0, 3.0, quadrature_steps=256)
    assert abs(out.norm_squared() - 1.0) < 1e-14


def test_nonfinite_ramp_rejected():
    model = KlauderModel(alpha=1.0, k=KRamp(np.inf, 0.0), potential=LINEAR)
    with pytest.raises(NumericDomainError):
        evolve_time_dependent(CircleState.single_mode(0, 1), model, 0.0, 1.0, 16)


def test_overflowing_reduced_spectrum_raises_without_warnings():
    # finite k whose square overflows, statically and under a ramp; then a finite r* whose U does
    octic = RadialPotential((0.0,) * 8 + (1.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDomainError, match="non-finite reduced spectrum"):
            SpectrumTable.build(KlauderModel(k=1e200, potential=LINEAR), 2)
        with pytest.raises(NumericDomainError, match="non-finite reduced spectrum"):
            evolve_time_dependent(CircleState.single_mode(1, 2),
                                  KlauderModel(k=KRamp(1.0, 1e308), potential=LINEAR), 0.0, 0.5)
        with pytest.raises(NumericDomainError, match="non-finite reduced spectrum"):
            SpectrumTable.build(KlauderModel(k=1e100, potential=octic), 1)  # r* = 1e50


def test_ramped_tables_carry_k_and_single_mode_pr_is_classical():
    # k = 0.5 - t crosses 0 at t = 0.5: <p_r> of mode m is p_r* = k(t)/r*(m hbar, t), with
    # r* = ((k(t)^2 + p_phi^2) / alpha^2)^(1/4)
    model = KlauderModel(alpha=1.3, k=KRamp(0.5, -1.0), hbar=0.7, potential=LINEAR)
    for m in (1, -2):
        state = CircleState.single_mode(m, 3, hbar=0.7)
        for t in (0.0, 0.3, 0.5, 1.0, 1.7):
            table = SpectrumTable.build(model, 3, t)
            assert table.k == model.k(t)
            evolved = evolve_time_dependent(state, model, 0.0, t) if t else state
            k, p_phi = model.k(t), m * model.hbar
            expected = k / ((k * k + p_phi * p_phi) / model.alpha ** 2) ** 0.25  # k(t) / r*
            assert expect_reduced(evolved, table).pr_mean == pytest.approx(expected, abs=1e-12)


def test_both_routes_refuse_a_state_of_another_hbar():
    model = KlauderModel(k=KRamp(1.0, 0.5), hbar=0.7, potential=LINEAR)
    state = CircleState.single_mode(1, 3)  # hbar = 1
    with pytest.raises(UsageError, match="state and model disagree on hbar"):
        evolve_time_dependent(state, model, 0.0, 0.5)
    with pytest.raises(UsageError, match="state and table disagree on hbar"):
        expect_reduced(state, SpectrumTable.build(model, 3))


# -- expectation values ----------------------------------------------------------------

def test_expect_reduced_examples():
    model0, table0 = table_for(k=0.0)
    out = expect_reduced(CircleState.single_mode(1, 4), table0)
    assert (out.r_mean, out.pr_mean, out.pphi_mean) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)

    symmetric = np.zeros(9, dtype=complex)
    symmetric[3] = symmetric[5] = 1.0  # m = -1 and +1
    out2 = expect_reduced(CircleState(symmetric).normalized(), table0)
    assert out2.pphi_mean == pytest.approx(0.0, abs=1e-15)

    model1, table1 = table_for(k=1.0)
    out3 = expect_reduced(CircleState.single_mode(0, 4), table1)
    assert (out3.r_mean, out3.pr_mean, out3.pphi_mean) == pytest.approx((1.0, 1.0, 0.0), abs=1e-12)


def test_expect_reduced_degenerate_mode_rejected():
    model, table = table_for(k=0.0)
    with pytest.raises(NumericDomainError, match="degenerate"):
        expect_reduced(CircleState.single_mode(0, 4), table)


def test_expect_reduced_stationary_under_evolution(rng):
    model, table = table_for(m_max=6, potential=RadialPotential((0.0, 0.3, 0.2)))
    state = CircleState.random(rng, 6)
    before = expect_reduced(state, table)
    for t in (0.5, 2.0, 9.0):
        after = expect_reduced(evolve_static(state, table, t), table)
        assert after.r_mean == pytest.approx(before.r_mean, abs=1e-12)
        assert after.pr_mean == pytest.approx(before.pr_mean, abs=1e-12)
        assert after.pphi_mean == pytest.approx(before.pphi_mean, abs=1e-12)


def test_expect_phi_two_mode_example():
    model, table = table_for()
    coeffs = np.zeros(9, dtype=complex)
    coeffs[4] = coeffs[5] = 1.0
    state = CircleState(coeffs).normalized()
    out = expect_phi(state, table, 0.0)
    assert out.value == pytest.approx(math.pi, abs=1e-12)
    assert abs(out.imag_residue) < 1e-12


def test_expect_phi_orientation():
    # c_0 = 1/sqrt2, c_1 = i/sqrt2 gives |psi|^2 = 1 - sin(phi): mean angle pi + 1
    model, table = table_for()
    coeffs = np.zeros(9, dtype=complex)
    coeffs[4] = 1.0
    coeffs[5] = 1.0j
    state = CircleState(coeffs).normalized()
    assert expect_phi(state, table, 0.0).value == pytest.approx(math.pi + 1.0, abs=1e-12)
    assert (expect_phi_quadrature(state, table, 0.0, 4096, PhiGrid.build(4, 4096))
            == pytest.approx(math.pi + 1.0, abs=1e-8))


def test_expect_phi_matches_quadrature_randomly(rng):
    model, table = table_for(m_max=8, k=0.5, potential=RadialPotential((0.0, 0.7)))
    grid = PhiGrid.build(8, 4096)
    for _ in range(100):
        state = CircleState.random(rng, 8)
        t = rng.uniform(0.0, 10.0)
        analytic = expect_phi(state, table, t)
        assert abs(analytic.imag_residue) < 1e-12
        assert analytic.value == pytest.approx(expect_phi_quadrature(state, table, t, 4096, grid),
                                               abs=1e-6)


def per_call_phi_quadrature(state, table, t, nodes):
    """The quadrature oracle as each call once built it: the grid, the basis
    e^{i m phi} and the evolved coefficients, then Simpson's weights."""
    n = nodes + nodes % 2
    phis = np.linspace(0.0, 2.0 * np.pi, n + 1)
    m_values = np.arange(-state.m_max, state.m_max + 1)
    evolved = CircleState(state.coeffs * np.exp(-1j * (table.u_values * t) / state.hbar),
                          state.hbar)
    values = phis * np.abs(np.exp(1j * np.outer(phis, m_values)) @ evolved.coeffs) ** 2
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(((2.0 * np.pi) / n / 3.0) * (values @ weights) / (2.0 * np.pi))


@pytest.mark.parametrize("m_max", [0, 1, 8, 64])
@pytest.mark.parametrize("nodes", [2, 7, 4096, 4097])
def test_phi_quadrature_on_one_grid_has_the_bits_of_the_per_call_grid(rng, m_max, nodes):
    model, table = table_for(m_max=m_max, k=0.5, potential=RadialPotential((0.0, 0.7)))
    grid = PhiGrid.build(m_max, nodes)
    for _ in range(3):
        state = CircleState.random(rng, m_max)
        t = rng.uniform(0.0, 10.0)
        expected = per_call_phi_quadrature(state, table, t, nodes)
        assert expect_phi_quadrature(state, table, t, nodes, grid) == expected


@pytest.mark.parametrize("m_max, nodes", [(3, 4096), (4, 2048), (4, 4095)])
def test_phi_quadrature_rejects_a_grid_of_another_size(rng, m_max, nodes):
    model, table = table_for(m_max=4)
    with pytest.raises(UsageError, match="phi grid does not match"):
        expect_phi_quadrature(CircleState.random(rng, 4), table, 0.5, nodes,
                              PhiGrid.build(m_max, 4096))


def test_expect_cartesian_examples():
    model, table = table_for(k=1.0)
    single = CircleState.single_mode(1, 4)
    out = expect_cartesian(single, table, 2.0)
    assert out.xy == 0.0 and out.pxy == 0.0

    coeffs = np.zeros(9, dtype=complex)
    coeffs[4] = coeffs[5] = 1.0
    pair = CircleState(coeffs).normalized()
    out2 = expect_cartesian(pair, table, 0.0)
    assert out2.xy == pytest.approx(0.5, abs=1e-12)  # r*_0 = 1 at k = 1
    assert out2.pxy == pytest.approx((1.0 + 0.0j) * 0.5, abs=1e-12)


def test_expect_cartesian_matches_matrix_oracle(rng):
    model, table = table_for(m_max=6, k=0.8, potential=RadialPotential((0.0, 0.2, 0.1)))
    for _ in range(25):
        state = CircleState.random(rng, 6)
        t = rng.uniform(0.0, 8.0)
        direct = expect_cartesian(state, table, t)
        oracle = expect_cartesian_matrix_oracle(state, table, t)
        assert abs(direct.xy - oracle.xy) < 1e-10
        assert abs(direct.pxy - oracle.pxy) < 1e-10


def test_expect_cartesian_degenerate_mode_rejected():
    model, table = table_for(k=0.0)
    coeffs = np.zeros(9, dtype=complex)
    coeffs[4] = coeffs[5] = 1.0  # weight on the (0, 1) coherence with r*_0 = 0
    message = r"^degenerate r\* = 0 mode carries weight; <p> undefined$"
    for route in (expect_cartesian, expect_cartesian_matrix_oracle):
        with pytest.raises(NumericDomainError, match=message):
            route(CircleState(coeffs).normalized(), table, 0.0)


def test_window_mismatch_rejected(rng):
    model, table = table_for(m_max=4)
    with pytest.raises(UsageError, match="window"):
        expect_reduced(CircleState.random(rng, 3), table)


@pytest.mark.parametrize("nodes", [0, 1, -4])
def test_quadrature_needs_two_intervals(nodes):
    model, table = table_for()
    state = CircleState.single_mode(1, 4)
    with pytest.raises(UsageError, match="at least 2"):
        PhiGrid.build(state.m_max, nodes)
    with pytest.raises(UsageError, match="at least 2"):
        evolve_time_dependent(state, model, 0.0, 1.0, quadrature_steps=nodes)

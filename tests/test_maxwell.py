import csv
import gc
import json
import warnings
import weakref

import numpy as np
import pytest

from diracmech.cli import main
from diracmech.constraints import ConstraintSet, dirac_tensor
from diracmech.dynamics import IntegratorConfig, PoissonFlow, evolve
from diracmech.errors import NumericDomainError, UsageError
from diracmech.fields import ScalarField
from diracmech.models import LatticeMaxwell


@pytest.fixture(scope="module")
def small():
    return LatticeMaxwell(side=2)


# -- discrete calculus -----------------------------------------------------------

@pytest.mark.parametrize("side", [2, 3])
def test_chart_is_built_once_per_side_with_the_same_name_and_labels(side):
    names = []
    for prefix in ("A", "E"):
        for c in range(3):
            for site in range(side ** 3):
                names.append(f"{prefix}{c}.{site}")
    chart = LatticeMaxwell(side=side).chart
    assert chart.labels == tuple(names) and chart.name == f"maxwell L={side}"
    assert LatticeMaxwell(side=side, spacing=0.5).chart is chart


def test_divergence_is_negative_adjoint_of_gradient(small, rng):
    u = rng.normal(size=small.sites)
    v = rng.normal(size=small.n_components)
    lhs = float(small.forward_gradient(u) @ v)
    rhs = -float(u @ small.backward_divergence(v))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_laplacian_is_seven_point_stencil(small):
    u = np.zeros(small.sites)
    u[0] = 1.0
    lap = small.laplacian(u).reshape((2, 2, 2))
    assert lap[0, 0, 0] == -6.0
    # each axis neighbour (forward and backward coincide at L=2) picks up +2
    assert lap[1, 0, 0] == 2.0 and lap[0, 1, 0] == 2.0 and lap[0, 0, 1] == 2.0


def test_vector_laplacian_matches_composition(small, rng):
    v = rng.normal(size=small.n_components)
    by_parts = np.concatenate([
        small.laplacian(v[i * small.sites:(i + 1) * small.sites]) for i in range(3)])
    assert np.allclose(small.vector_laplacian(v), by_parts, atol=1e-13)


# np.roll reference stencils: the lattice calculus as first written, on
# (3, L, L, L) grids, kept here as the bitwise oracle for the index gathers

def roll_forward_gradient(model, u):
    u = np.asarray(u, dtype=float).reshape((model.side,) * 3)
    out = np.empty((3,) + u.shape)
    for i in range(3):
        out[i] = (np.roll(u, -1, axis=i) - u) / model.spacing
    return out.reshape(-1)


def roll_backward_divergence(model, v):
    v = np.asarray(v, dtype=float).reshape((3,) + (model.side,) * 3)
    out = np.zeros(v.shape[1:])
    for i in range(3):
        out += (v[i] - np.roll(v[i], 1, axis=i)) / model.spacing
    return out.reshape(-1)


def roll_vector_laplacian(model, v):
    v = np.asarray(v, dtype=float).reshape((3,) + (model.side,) * 3)
    out = -6.0 * v
    for axis in (1, 2, 3):
        out += np.roll(v, -1, axis=axis) + np.roll(v, 1, axis=axis)
    return (out / model.spacing ** 2).reshape(-1)


def roll_energy(model, a, e):
    v = np.asarray(a, dtype=float).reshape((3,) + (model.side,) * 3)
    grad_sq = 0.0
    for axis in (1, 2, 3):
        diff = (np.roll(v, -1, axis=axis) - v) / model.spacing
        grad_sq += float(np.sum(diff * diff))
    e = np.asarray(e, dtype=float)
    return 0.5 * (float(e @ e) + grad_sq)


@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_stencils_match_roll_reference_bitwise(side, rng):
    model = LatticeMaxwell(side=side, spacing=0.7)
    u = rng.normal(size=model.sites)
    a = rng.normal(size=model.n_components)
    e = rng.normal(size=model.n_components)
    assert np.array_equal(model.forward_gradient(u), roll_forward_gradient(model, u))
    assert np.array_equal(model.backward_divergence(a), roll_backward_divergence(model, a))
    assert np.array_equal(model.vector_laplacian(a), roll_vector_laplacian(model, a))
    assert model.energy(a, e) == roll_energy(model, a, e)


@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_batched_stencils_are_bitwise_rows(side, rng):
    model = LatticeMaxwell(side=side, spacing=0.7)
    a = rng.normal(size=(4, model.n_components))
    e = rng.normal(size=(4, model.n_components))
    assert np.array_equal(model.vector_laplacian(a), [model.vector_laplacian(v) for v in a])
    energies = model.energy(a, e)
    assert energies.shape == (4,)
    assert np.array_equal(energies, [model.energy(u, v) for u, v in zip(a, e)])
    assert np.array_equal(model.energy(a.reshape(2, 2, -1), e.reshape(2, 2, -1)),
                          energies.reshape(2, 2))


@pytest.mark.parametrize("side", [2, 3, 5, 8])
def test_energy_matches_roll_reference_bitwise_on_nearly_one_dimensional_fields(side, rng):
    # fields that vary along x with a ripple along y and z: the y and z sums fall near
    # an ulp of the x sum, so adding the three directions in any other order moves bits
    model = LatticeMaxwell(side=side, spacing=0.7)
    ripples = np.geomspace(1e-9, 1e-6, 40)[:, None, None, None, None]
    a = rng.normal(size=(40, 3, side, 1, 1)) + ripples * rng.normal(size=(40, 3) + (side,) * 3)
    a = a.reshape(40, model.n_components)
    e = rng.normal(size=a.shape)
    assert np.array_equal(model.energy(a, e), [roll_energy(model, u, v) for u, v in zip(a, e)])


def test_batched_energy_equals_the_trajectory_generator_values(small, rng):
    a0, _ = small.lowest_standing_mode()
    e0 = small.random_transverse(rng, 0.3)
    traj = small.evolve(a0, e0, IntegratorConfig(dt=1e-2, steps=200))
    n = small.n_components
    assert np.array_equal(small.energy(traj.states[:, :n], traj.states[:, n:]),
                          traj.generator_values)


def stencil_route(model, a0, e0, cfg):
    """The generic RK4 of H on Python floats: J grad H from the stencil Laplacian."""
    return evolve(model.chart.point(np.concatenate([a0, e0])), PoissonFlow(model.hamiltonian),
                  cfg)


# |spectral - stencil| <= c steps eps max|z|; over rng seeds 0-9 the largest c measured was
# 0.14 (40 steps at dt 0.05) and 0.012 (2,000 steps at dt 1e-3)
SPECTRAL_AGREEMENT = 0.5


@pytest.mark.parametrize("dt, steps", [(0.05, 40), (1e-3, 2000)])
@pytest.mark.parametrize("spacing", [1.0, 0.7])
@pytest.mark.parametrize("side", [2, 3])
def test_spectral_rk4_agrees_with_the_stencil_route(side, spacing, dt, steps, rng):
    # the same RK4 map: per Fourier mode in closed form, and by the stencil step by step
    model = LatticeMaxwell(side=side, spacing=spacing)
    a0, e0 = model.random_transverse(rng), model.random_transverse(rng, 0.5)
    cfg = IntegratorConfig(dt=dt, steps=steps)
    spectral, stencil = model.evolve(a0, e0, cfg), stencil_route(model, a0, e0, cfg)
    assert spectral.times.tobytes() == stencil.times.tobytes()
    scale = np.finfo(float).eps * float(np.max(np.abs(stencil.states)))
    assert np.max(np.abs(spectral.states - stencil.states)) <= SPECTRAL_AGREEMENT * steps * scale


@pytest.mark.parametrize("side, dt, t", [(2, 1.5, 13.5), (2, 2.0, 14.0), (3, 1.7, 15.3),
                                         (4, 3.0, 15.0)])
def test_unstable_step_blows_up_when_the_stencil_route_does(side, dt, t):
    # past x = 2 sqrt(2) RK4 amplifies the fastest modes; both routes stop at the same row
    model = LatticeMaxwell(side=side)
    rng = np.random.default_rng(5)
    a0, e0 = model.random_transverse(rng), model.random_transverse(rng, 0.5)
    cfg = IntegratorConfig(dt=dt, steps=400)
    messages = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (model.evolve, lambda a, e, c: stencil_route(model, a, e, c)):
            with pytest.raises(NumericDomainError) as err:
                route(a0, e0, cfg)
            messages.append(str(err.value))
    assert messages == [f"trajectory blew up at t={t:g} (|z| > 1e+12 or NaN)"] * 2


def test_constant_fields_drift_at_constant_speed():
    # the k = 0 mode alone: A(t) = A0 + t E0 and E(t) = E0
    model = LatticeMaxwell(side=3, spacing=0.7)
    a0 = np.repeat([0.3, -1.2, 0.7], model.sites)
    e0 = np.repeat([0.25, 0.5, -0.125], model.sites)
    traj = model.evolve(a0, e0, IntegratorConfig(dt=0.1, steps=100))
    n, eps = model.n_components, np.finfo(float).eps
    exact = a0 + traj.times[:, None] * e0
    assert np.max(np.abs(traj.states[:, :n] - exact)) <= 4 * eps * np.max(np.abs(exact))
    assert np.max(np.abs(traj.states[:, n:] - e0)) <= 4 * eps * np.max(np.abs(e0))
    assert max(np.max(traj.residuals["gauss"]), np.max(traj.residuals["transverse"])) < 1e-12


@pytest.mark.parametrize("length", [-1, 1])
def test_stencils_reject_a_vector_of_another_length(small, length):
    v = np.zeros(small.n_components + length)
    with pytest.raises(ValueError, match="24 components"):
        small.vector_laplacian(v)
    with pytest.raises(ValueError, match="24 components"):
        small.energy(v, np.zeros(small.n_components))
    with pytest.raises(ValueError, match="24 components"):
        small.backward_divergence(v)


def test_batched_divergence_matches_rows(rng):
    model = LatticeMaxwell(side=3, spacing=0.7)
    batch = rng.normal(size=(4, model.n_components))
    rows = np.stack([model.backward_divergence(v) for v in batch])
    assert np.array_equal(model.backward_divergence(batch), rows)


def test_batched_longitudinal_content_matches_rows(rng):
    model = LatticeMaxwell(side=3, spacing=0.7)
    batch = rng.normal(size=(2, 4, model.n_components))
    rows = [[model.longitudinal_content(v) for v in block] for block in batch]
    assert np.array_equal(model.longitudinal_content(batch), rows)


# -- transverse projector -----------------------------------------------------------

@pytest.mark.parametrize("side", [2, 3, 4])
def test_projector_identities(side):
    model = LatticeMaxwell(side=side)
    p = model.transverse_projector()
    assert np.max(np.abs(p @ p - p)) < 1e-10
    assert np.max(np.abs(p - p.T)) < 1e-10
    assert np.trace(p) == pytest.approx(2 * side ** 3 + 1, abs=1e-8)


def test_projector_annihilates_gradients(rng):
    model = LatticeMaxwell(side=4)
    lam = rng.normal(size=model.sites)
    lam -= lam.mean()
    gradient = model.forward_gradient(lam)
    assert np.max(np.abs(model.transverse_projector() @ gradient)) < 1e-10


@pytest.mark.parametrize("side, spacing", [(2, 1.0), (3, 0.7), (4, 1.0)])
def test_fft_projector_matches_dense_entrywise(side, spacing):
    model = LatticeMaxwell(side=side, spacing=spacing)
    fft = model.project(np.eye(model.n_components)).T  # column i is P e_i
    assert np.max(np.abs(fft - model.transverse_projector())) <= 1e-14


def test_fft_projector_batch_is_bitwise_rows(rng):
    model = LatticeMaxwell(side=3, spacing=0.7)
    batch = rng.normal(size=(2, 3, model.n_components))
    rows = np.stack([[model.project(v) for v in group] for group in batch])
    assert np.array_equal(model.project(batch), rows)


@pytest.fixture
def no_dense(monkeypatch):
    """Make every dense route raise, so a test shows it builds no 3L^3 x 3L^3 array."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense route called")

    for name in ("transverse_projector", "dirac_bracket_matrices"):
        monkeypatch.setattr(LatticeMaxwell, name, refuse)
    for name in ("gradient_matrix", "scalar_laplacian_matrix", "_mean_zero_basis"):
        monkeypatch.setattr(LatticeMaxwell, name, property(refuse))


def test_fft_projector_at_l16_is_matrix_free(no_dense):
    model = LatticeMaxwell(side=16)  # 24,576 components
    v = model.project(np.random.default_rng(5).normal(size=model.n_components))
    assert np.max(np.abs(model.project(v) - v)) < 1e-13
    assert model.longitudinal_content(v) <= 1e-13
    res = model.projector_residuals()
    assert abs(res["projector_trace_deviation"]) < 1e-10  # trace P = 2 L^3 + 1
    assert max(res["projector_idempotency"], res["projector_symmetry"]) < 1e-13
    assert res["dirac_vs_projector"] < 1e-12


def test_projector_fixes_divergence_free(rng):
    model = LatticeMaxwell(side=3)
    p = model.transverse_projector()
    v = model.random_transverse(rng)
    assert np.max(np.abs(p @ v - v)) < 1e-10 * max(1.0, np.max(np.abs(v)))


# -- Dirac matrix -----------------------------------------------------------------

@pytest.mark.parametrize("side", [2, 4])
def test_dirac_matrix_equals_projector(side):
    model = LatticeMaxwell(side=side)
    ae = model.dirac_bracket_matrices()
    p = model.transverse_projector()
    assert np.max(np.abs(ae - p)) < 1e-8
    # the footer's real-space route: conjugate gradients on the stencil Laplacian
    v = np.random.default_rng(side).normal(size=(3, model.n_components))
    assert np.max(np.abs(model.dirac_correction(v) - v @ ae.T)) < 1e-12


def test_dirac_matrices_match_generic_engine(small):
    """The LU-route matrices recomputed as blocks of the generic engine's Dirac tensor.

    The per-site constraints are linear fields on the 48-dim chart; the
    mean-zero reduction is realised by differencing site 0 against each other
    site, which spans the same space as the orthonormal basis used internally
    (Dirac brackets are invariant under invertible recombinations). The
    engine's {A,A}_D and {E,E}_D blocks, which the LU route does not build,
    are measured here against 0.
    """
    chart = small.chart
    n = small.n_components
    b = -small.gradient_matrix.T  # divergence matrix, (sites, 3V)

    def linear_field(row, offset, name):
        grad = np.zeros(2 * n)
        grad[offset:offset + n] = row

        def func(z, row=row, offset=offset, n=n):
            z = np.asarray(z, dtype=float)
            return float(row @ z[offset:offset + n])

        return ScalarField(name=name, chart=chart, func=func, grad=lambda z, g=grad: g)

    fields, names = [], []
    for site in range(1, small.sites):
        diff = b[site] - b[0]
        fields.append(linear_field(diff, 0, f"chi{site}"))
        names.append(f"chi{site}")
    for site in range(1, small.sites):
        diff = b[site] - b[0]
        fields.append(linear_field(diff, n, f"gauss{site}"))
        names.append(f"gauss{site}")
    cs = ConstraintSet(chart, tuple(fields), tuple(names))
    x = chart.point(np.zeros(2 * n))

    engine = np.array(dirac_tensor(cs, x))
    assert np.max(np.abs(engine[:n, n:] - small.dirac_bracket_matrices())) < 1e-9
    assert np.max(np.abs(engine[:n, :n])) < 1e-12
    assert np.max(np.abs(engine[n:, n:])) < 1e-12


# -- evolution ----------------------------------------------------------------------

def test_standing_mode_oscillates(small):
    a0, omega = small.lowest_standing_mode()
    traj = small.evolve(a0, np.zeros_like(a0), IntegratorConfig(dt=1e-3, steps=2000))
    expected = a0 * np.cos(omega * traj.times[-1])
    assert np.max(np.abs(traj.states[-1, :small.n_components] - expected)) < 1e-8


def test_zero_fields_stay_zero(small):
    zero = np.zeros(small.n_components)
    traj = small.evolve(zero, zero, IntegratorConfig(dt=1e-2, steps=10))
    assert np.max(np.abs(traj.states)) == 0.0


def test_longitudinal_initial_data_rejected(small, rng):
    lam = rng.normal(size=small.sites)
    lam -= lam.mean()
    with pytest.raises(UsageError, match="transverse"):
        small.evolve(small.forward_gradient(lam), np.zeros(small.n_components),
                     IntegratorConfig(dt=1e-3, steps=1))


def test_energy_and_gauss_conservation(rng):
    model = LatticeMaxwell(side=3)
    a0 = model.random_transverse(rng)
    e0 = model.random_transverse(rng, 0.5)
    traj = model.evolve(a0, e0, IntegratorConfig(dt=1e-3, steps=2000))
    n = model.n_components
    start = model.energy(a0, e0)
    for i in (500, 1000, 2000):
        energy = model.energy(traj.states[i, :n], traj.states[i, n:])
        assert abs(energy - start) / max(1.0, start) < 1e-8
    assert np.max(traj.residuals["gauss"]) < 1e-9
    assert np.max(traj.residuals["transverse"]) < 1e-9


def test_cmd_maxwell_at_l8_builds_no_dense_array(no_dense, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 3,
        "model": {"kind": "maxwell", "side": 8},
        "integrator": {"dt": 0.001, "steps": 20},
        "maxwell": {"initial": "random", "e_scale": 0.3},
    }))
    out = tmp_path / "mx.csv"
    assert main(["maxwell", "--config", str(config), "--out", str(out)]) == 0
    with open(out) as handle:
        footer = [row for row in csv.reader(handle) if row[0] == "check"]
    assert [row[1] for row in footer] == [
        "projector_idempotency", "projector_symmetry", "projector_trace_deviation",
        "dirac_vs_projector", "dirac_aa_max", "dirac_ee_max"]
    assert max(float(row[2]) for row in footer) < 1e-10


def test_lattice_is_freed_by_reference_counting():
    model = LatticeMaxwell(side=2)
    a0, _ = model.lowest_standing_mode()
    model.evolve(a0, model.random_transverse(np.random.default_rng(3), 0.2),
                 IntegratorConfig(dt=1e-2, steps=2))
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("side, spacing", [
    (1, 1.0), (2.5, 1.0), ("2", 1.0), (2, 0.0), (2, float("nan")), (2, float("inf")),
    (2, -1.0), (2, 1e-150), (2, 1e150), (2, 5e-324)])
def test_invalid_lattice_rejected(side, spacing):
    with pytest.raises(UsageError, match="lattice"):
        LatticeMaxwell(side=side, spacing=spacing)


@pytest.mark.parametrize("spacing", [1e-60, 1e-6, 1e3, 1e60])
def test_projected_field_is_transverse_at_any_accepted_spacing(spacing):
    # max |div v| of the FFT's roundoff scales as 1/a; the test weighs a |div v|
    model = LatticeMaxwell(side=4, spacing=spacing)
    v = model.random_transverse(np.random.default_rng(2))
    model.require_transverse(v, "initial A")
    lam = np.random.default_rng(3).normal(size=model.sites)
    with pytest.raises(UsageError, match="not transverse"):
        model.require_transverse(model.forward_gradient(lam - lam.mean()) * spacing, "initial A")


@pytest.mark.parametrize("spacing", [1e-150, 1e150])
def test_cmd_maxwell_rejects_an_extreme_spacing_without_a_warning(spacing, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 1,
        "model": {"kind": "maxwell", "side": 4, "spacing": spacing},
        "integrator": {"dt": 0.001, "steps": 20},
        "maxwell": {"initial": "random", "e_scale": 0.3},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["maxwell", "--config", str(config), "--out", str(tmp_path / "mx.csv")])
    assert code in (2, 3)
    assert capsys.readouterr().err.startswith("error: lattice spacing must lie in")


@pytest.mark.parametrize("entry, value, where", [
    (0, np.nan, "entry 0 \\(component 0, site 0\\) is nan"),
    (13, np.inf, "entry 13 \\(component 1, site 5\\) is inf")])
def test_nonfinite_field_is_not_transverse(small, entry, value, where):
    v = np.zeros(small.n_components)
    v[entry] = value
    with pytest.raises(UsageError, match=where):
        small.require_transverse(v, "initial A")


def test_validation():
    model = LatticeMaxwell(side=2)
    with pytest.raises(UsageError, match="components"):
        model.evolve(np.zeros(5), np.zeros(5), IntegratorConfig(dt=0.1, steps=1))

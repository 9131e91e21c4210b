import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import duals, kernels
from diracmech.brackets import poisson_bracket, poisson_tensor
from diracmech.constraints import (DEGENERACY_RTOL, ConstraintSet, _eliminate,
                                   _pairing_multipliers,
                                   _second_class, classify,
                                   constraint_matrix, pairing_matrix_of_rows,
                                   degeneracy_scale, dirac_bracket, dirac_tensor,
                                   faddeev_popov_determinant, observable_check,
                                   pair_jacobian_check, pairing_det, reduced_bracket_check)
from diracmech.errors import DegeneracyError, NumericDomainError, UsageError
from diracmech.fields import ScalarField, coordinate_field, polynomial_field
from diracmech.models import CustomModel, KlauderModel, KRamp, RelativisticParticle
from diracmech.phase import ChartSpec

from conftest import array_twin_set, fd_poisson_bracket, random_polynomial

FLAT = ChartSpec(labels=("q1", "q2", "p1", "p2"), name="flat")


@pytest.fixture
def model():
    return KlauderModel(alpha=1.0, k=1.0)


@pytest.fixture
def polar_coords(model):
    chart = model.polar_chart
    return {l: coordinate_field(chart, l) for l in chart.labels}


# -- constraint matrix ---------------------------------------------------------

def test_matrix_for_gauge_constraint_pair(model):
    x = model.polar_chart.point([1.0, 0.0, 1.0, 0.0])
    m = constraint_matrix(model.constraint_set, x)
    assert np.allclose(m, [[0.0, 2.0], [-2.0, 0.0]], atol=1e-12)
    # cross-check the entry against the value-only finite-difference oracle
    fd = fd_poisson_bracket(model.gauge_condition, model.constraint, x.coords)
    assert m[0, 1] == pytest.approx(fd, abs=1e-7)


def test_matrix_single_constraint():
    cs = ConstraintSet(FLAT, (coordinate_field(FLAT, "q1"),), ("q1",))
    m = constraint_matrix(cs, FLAT.point([0.0, 1.0, 2.0, 3.0]))
    assert m.shape == (1, 1) and m[0, 0] == 0.0


def test_matrix_canonical_pair():
    cs = ConstraintSet(FLAT, (coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "p1")),
                       ("q1", "p1"))
    m = constraint_matrix(cs, FLAT.point([0.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(m, [[0.0, 1.0], [-1.0, 0.0]])


def test_matrix_antisymmetry_random(model, rng):
    for x in model.sample_points(rng, 25):
        m = constraint_matrix(model.constraint_set, x)
        assert np.max(np.abs(m + m.T)) < 1e-12


# -- classification -------------------------------------------------------------

def test_classify_second_class_pair(model, rng):
    samples = model.sample_surface(rng, 20)
    result = classify(model.constraint_set, samples, tol=1e-8)
    assert result.kind == "second_class"
    assert result.rank == 2
    # |det M| = ({chi, C})^2 = (2 alpha^2 r*^2)^2 at every sample
    dets = []
    for x in samples:
        r_star = x["r"]
        dets.append((2.0 * model.alpha ** 2 * r_star ** 2) ** 2)
    assert result.det_M == pytest.approx(min(dets), rel=1e-9)


def test_classify_constraint_alone_first_class(model, rng):
    alone = ConstraintSet(model.polar_chart, (model.constraint,), ("C",))
    samples = model.sample_surface(rng, 10)
    result = classify(alone, samples, tol=1e-8)
    assert result.kind == "first_class"
    assert any("odd" in note for note in result.notes)


def test_classify_two_positions_first_class(rng):
    cs = ConstraintSet(FLAT, (coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "q2")),
                       ("q1", "q2"))
    samples = [FLAT.point([0.0, 0.0, *rng.uniform(-3, 3, 2)]) for _ in range(5)]
    assert classify(cs, samples, tol=1e-8).kind == "first_class"


def test_classify_empty_set_has_unit_pairing_det(rng):
    # det of the 0x0 pairing matrix is the empty product
    samples = [FLAT.point(rng.uniform(-3, 3, 4)) for _ in range(3)]
    result = classify(ConstraintSet(FLAT, (), ()), samples, tol=1e-8)
    assert result.det_M == 1.0
    assert result.kind == "first_class" and result.rank == 0


def test_classify_rejects_off_surface_sample(model):
    off = model.polar_chart.point([2.0, 0.0, 3.0, 1.0])
    with pytest.raises(UsageError, match="chi|C"):
        classify(model.constraint_set, [off], tol=1e-8)


def _solves_everywhere(cs, samples):
    try:
        for x in samples:
            dirac_tensor(cs, x)
    except DegeneracyError:
        return False
    return True


def _scaled(cs, factor):
    return ConstraintSet(cs.chart, tuple(
        ScalarField(f.name, cs.chart, lambda z, f=f: factor * f.func(z)) for f in cs.fields),
        cs.names)


LINE = ChartSpec(labels=("q", "p"), name="line")
# M = [[0, inf], [-inf, 0]] at the origin, which lies on the surface
HUGE_PAIR = ConstraintSet(LINE, (polynomial_field(LINE, [(1e300, (1, 0))], name="A"),
                                 polynomial_field(LINE, [(1e300, (0, 1))], name="B")), ("A", "B"))


@pytest.mark.parametrize("case", ["tiny_radius_k0", "scaled_by_1e-3", "klauder_random",
                                  "particle_random", "overflowing_pair"])
def test_classify_second_class_exactly_where_dirac_tensor_solves(case):
    rng = np.random.default_rng(17)
    if case == "tiny_radius_k0":
        cs, samples = KlauderModel(k=0.0).constraint_set, [
            KlauderModel(k=0.0).polar_chart.point([1e-5, 0.3, 0.0, 0.0])]
    elif case == "scaled_by_1e-3":
        model = KlauderModel(k=1.0)
        cs, samples = _scaled(model.constraint_set, 1e-3), [model.embed_reduced(0.0, 0.5)]
    elif case == "klauder_random":
        model = KlauderModel(alpha=1.3, k=0.7)
        cs, samples = model.constraint_set, model.sample_surface(rng, 20)
    elif case == "particle_random":
        particle = RelativisticParticle(mass=0.8)
        cs, samples = particle.constraint_set, particle.sample_on_shell(rng, 20)
    else:  # a non-finite M has no rank to report, and the pairing solve rejects it too
        cs, samples = HUGE_PAIR, [LINE.point([0.0, 0.0])]
        with pytest.raises(NumericDomainError, match="non-finite entry"):
            classify(cs, samples, tol=1e-8)
        assert not _solves_everywhere(cs, samples)
        return
    second = classify(cs, samples, tol=1e-8).kind == "second_class"
    assert second == _solves_everywhere(cs, samples)
    assert second == (case in ("klauder_random", "particle_random"))


def test_classify_and_dirac_tensor_switch_at_the_same_point():
    # k = 0: {chi, C} = 2|p_phi| on the surface, so det M crosses the guard inside the sweep
    model = KlauderModel(k=0.0)
    verdicts = set()
    for p_phi in np.logspace(-8, -2, 25):
        x = model.embed_reduced(0.3, p_phi)
        second = classify(model.constraint_set, [x], tol=1e-8).kind == "second_class"
        assert second == _solves_everywhere(model.constraint_set, [x])
        verdicts.add(second)
    assert verdicts == {True, False}


def test_require_on_surface_names_worst_constraint(model):
    x = model.polar_chart.point([2.0, 0.0, 3.0, 1.0])  # chi = 5, C = 2.625
    with pytest.raises(UsageError, match=r"^probe is off the constraint surface: "
                                         r"\|chi\| = 5\.000e\+00, tolerance 1e-09$"):
        model.constraint_set.require_on_surface(x.coords, "probe")
    with pytest.raises(UsageError, match=r"\|chi\| = 5\.000e\+00, tolerance 4$"):
        model.constraint_set.require_on_surface(x.coords, "probe", tol=4.0)
    model.constraint_set.require_on_surface(x.coords, "probe", tol=5.5)
    nan_point = np.array([2.0, 0.0, np.nan, 1.0])
    with pytest.raises(UsageError, match=r"\|chi\| = nan"):
        model.constraint_set.require_on_surface(nan_point, "probe")
    # chi(z, t) = r p_r - k(t): on the surface at t = 0, off it at t = 1
    ramped = KlauderModel(k=KRamp(1.0, 1.0))
    start = ramped.embed_reduced(0.0, 1.0)
    ramped.constraint_set.require_on_surface(start.coords, "start")
    chi, c = np.abs(ramped.constraint_set.values_along([1.0], [start.coords])[0])
    assert f"{chi:.3e}" == "1.000e+00" and c < 1e-9


def test_overflowing_pairing_matrix_warns_nowhere():
    chart = ChartSpec(labels=("q", "p"), name="line")
    cs = ConstraintSet(chart, (polynomial_field(chart, [(1e300, (1, 1))], name="A"),
                               polynomial_field(chart, [(1e300, (0, 2))], name="B")),
                       ("A", "B"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.all(np.isfinite(constraint_matrix(cs, chart.point([0.5, -1.5]))))
        with pytest.raises(NumericDomainError, match="non-finite entry"):
            classify(HUGE_PAIR, [LINE.point([0.0, 0.0])], tol=1e-8)


def test_classify_nonfinite_pairing_matrix_raises_at_any_sample():
    # A = 1e200 q1, B = 1e200 p1 q2 on the surface q1 = p1 = 0: M_AB = 1e400 q2, which
    # is Second Class at q2 = 1e-300 (M = 1e100) and overflows to inf at q2 = 1
    cs = ConstraintSet(FLAT, (polynomial_field(FLAT, [(1e200, (1, 0, 0, 0))], name="A"),
                              polynomial_field(FLAT, [(1e200, (0, 1, 1, 0))], name="B")),
                       ("A", "B"))
    good, bad = FLAT.point([0.0, 1e-300, 0.0, 0.0]), FLAT.point([0.0, 1.0, 0.0, 0.0])
    assert classify(cs, [good], tol=1e-8).kind == "second_class"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDomainError, match="pairing matrix has a non-finite entry"):
            classify(cs, [good, bad], tol=1e-8)


def test_classify_mixed(rng):
    # (q1, p1, q2): canonical pair plus a commuting extra -> mixed, rank 2
    cs = ConstraintSet(FLAT, (coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "p1"),
                              coordinate_field(FLAT, "q2")), ("q1", "p1", "q2"))
    samples = [FLAT.point([0.0, 0.0, 0.0, rng.uniform(-3, 3)]) for _ in range(5)]
    result = classify(cs, samples, tol=1e-8)
    assert result.kind == "mixed_or_degenerate"
    assert result.rank == 2


def test_classify_rank_cutoff_scales_with_the_largest_singular_value():
    # block-diagonal M with brackets 1e2 and 1e-8: |det M| = 1e-12 is not Second Class and
    # max |M| = 1e2 not First Class; singular values (1e2, 1e2, 1e-8, 1e-8) against the
    # cutoff tol * max(s[0], 1) = 1e-7 give rank 2, where a cutoff of tol alone gives 4
    cs = ConstraintSet(FLAT, (polynomial_field(FLAT, [(10.0, (1, 0, 0, 0))], name="A"),
                              polynomial_field(FLAT, [(10.0, (0, 0, 1, 0))], name="B"),
                              polynomial_field(FLAT, [(1e-4, (0, 1, 0, 0))], name="C"),
                              polynomial_field(FLAT, [(1e-4, (0, 0, 0, 1))], name="D")),
                       ("A", "B", "C", "D"))
    x = FLAT.point([0.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(np.linalg.svd(constraint_matrix(cs, x), compute_uv=False),
                               [1e2, 1e2, 1e-8, 1e-8], rtol=1e-12)
    result = classify(cs, [x], tol=1e-9)
    assert result.kind == "mixed_or_degenerate"
    assert result.det_M == pytest.approx(1e-12, rel=1e-12)
    assert result.rank == 2


# -- dirac bracket --------------------------------------------------------------

def test_dirac_radial_pair_vanishes(model, polar_coords, rng):
    for x in model.sample_surface(rng, 10):
        assert abs(dirac_bracket(polar_coords["r"], polar_coords["p_r"],
                                 model.constraint_set, x)) < 1e-12


def test_dirac_angle_pair_stays_canonical(model, polar_coords, rng):
    for x in model.sample_points(rng, 10):
        assert dirac_bracket(polar_coords["phi"], polar_coords["p_phi"],
                             model.constraint_set, x) == pytest.approx(1.0, abs=1e-12)


def test_dirac_r_phi_closed_form(polar_coords):
    # at (r=sqrt2, p_r=0, p_phi=2), alpha=1, k=0: -p_phi/(r (p^2 + r^2)) = -1/(2 sqrt2)
    model = KlauderModel(alpha=1.0, k=0.0)
    x = model.polar_chart.point([math.sqrt(2.0), 0.0, 0.0, 2.0])
    value = dirac_bracket(polar_coords["r"], polar_coords["phi"], model.constraint_set, x)
    assert value == pytest.approx(-2.0 / (math.sqrt(2.0) * 4.0), abs=1e-12)
    assert value == pytest.approx(model.dirac_oracle(("r", "phi"), x), abs=1e-12)


def test_dirac_reduces_to_poisson_on_empty_set(rng):
    empty = ConstraintSet(FLAT, (), ())
    for _ in range(25):
        a, b = random_polynomial(FLAT, rng, name="a"), random_polynomial(FLAT, rng, name="b")
        x = FLAT.point(rng.uniform(-4, 4, 4))
        assert abs(dirac_bracket(a, b, empty, x) - poisson_bracket(a, b, x)) < 1e-12


def test_dirac_antisymmetry(model, rng):
    for _ in range(30):
        a = random_polynomial(model.polar_chart, rng, name="a")
        b = random_polynomial(model.polar_chart, rng, name="b")
        x = model.sample_points(rng, 1)[0]
        assert abs(dirac_bracket(a, b, model.constraint_set, x)
                   + dirac_bracket(b, a, model.constraint_set, x)) < 1e-10


def test_dirac_degenerate_set_raises():
    # a pair of commuting constraints has a singular pairing matrix
    cs = ConstraintSet(FLAT, (coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "q2")),
                       ("q1", "q2"))
    a, b = coordinate_field(FLAT, "p1"), coordinate_field(FLAT, "q1")
    with pytest.raises(DegeneracyError, match="Second Class"):
        dirac_bracket(a, b, cs, FLAT.point([0.0, 0.0, 1.0, 1.0]))


def test_dirac_nonfinite_pairing_matrix_raises():
    # 1e300 q p and 1e300 p^2 overflow M to [[nan, inf], [-inf, 0]]; the unscaled
    # pair (q p, p^2) gives {q, p}_D = 0 there, so no finite answer may pass
    chart = ChartSpec(labels=("q", "p"), name="line")
    cs = ConstraintSet(chart, (polynomial_field(chart, [(1e300, (1, 1))], name="A"),
                               polynomial_field(chart, [(1e300, (0, 2))], name="B")),
                       ("A", "B"))
    x = chart.point([0.5, -1.5])
    assert not np.all(np.isfinite(constraint_matrix(cs, x)))
    with pytest.raises(DegeneracyError, match="Second Class"):
        dirac_bracket(coordinate_field(chart, "q"), coordinate_field(chart, "p"), cs, x)


# -- Dirac tensor -----------------------------------------------------------------

# four constraints on three pairs: the pairing solve takes the LU route
CUSTOM_FOUR = CustomModel(labels=("q1", "q2", "q3", "p1", "p2", "p3"), constraints=(
    ("A", ((1.0, (1, 0, 0, 0, 0, 0)), (1.0, (0, 1, 0, 0, 0, 1)))),
    ("B", ((1.0, (0, 0, 0, 1, 0, 0)),)),
    ("C", ((1.0, (0, 1, 0, 0, 0, 0)), (0.5, (0, 0, 2, 0, 0, 0)))),
    ("D", ((1.0, (0, 0, 0, 0, 1, 0)), (1.0, (0, 0, 2, 0, 0, 0))))))
# on its surface: q2 = -q3^2 / 2, q1 = -q2 p3, p1 = 0 and p2 = -q3^2
CUSTOM_FOUR_SURFACE = [
    CUSTOM_FOUR.chart.point([q3 * q3 * p3 / 2, -q3 * q3 / 2, q3, 0.0, -q3 * q3, p3])
    for q3, p3 in ((0.5, 0.25), (-1.2, 0.7), (0.3, -2.0))]


def tensor_points(rng):
    """(constraint set, point) at Klauder, particle and four-constraint custom samples."""
    for model in (KlauderModel(alpha=1.3, k=KRamp(0.7, 0.2)), RelativisticParticle(mass=2.0),
                  CUSTOM_FOUR):
        for x in model.sample(rng, 10):
            yield model.constraint_set, x


def reference_bracket(a, b, cs, x):
    """The per-pair formula {a,b} + {Phi,a} . M^-1 {Phi,b}, with M solved by LU."""
    n = x.chart.n_pairs
    ga, gb = np.array(a.gradient(x)), np.array(b.gradient(x))
    rows = reference_gradient_rows(cs, x.coords)

    def with_constraints(g):  # {Phi_I, g}
        return rows[:, :n] @ g[n:] - rows[:, n:] @ g[:n]

    m = np.stack([with_constraints(row) for row in rows], axis=1)
    pb = ga[:n] @ gb[n:] - ga[n:] @ gb[:n]
    return pb + with_constraints(ga) @ np.linalg.solve(m, with_constraints(gb))


def test_dirac_tensor_antisymmetric_and_canonical_without_constraints(rng):
    for cs, x in tensor_points(rng):
        d = np.array(dirac_tensor(cs, x))
        assert np.max(np.abs(d + d.T)) <= 1e-12 * np.max(np.abs(d))
    x = FLAT.point(rng.uniform(-3, 3, 4))
    j = poisson_tensor(2)
    assert np.array_equal(j, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert not np.any(np.signbit(j[j == 0]))  # a -0.0 would print as "-0" in tables
    d = np.array(dirac_tensor(ConstraintSet(FLAT, (), ()), x))
    assert np.array_equal(d, j) and not np.any(np.signbit(d[d == 0]))


def test_dirac_and_poisson_tensors_are_fresh_writable_arrays(rng):
    # dirac_tensor adds one J shared per chart size: a caller that writes its D's nested
    # lists, with or without constraints, changes no later D
    empty = ConstraintSet(FLAT, (), ())
    for cs, x in [*tensor_points(rng), (empty, FLAT.point(rng.uniform(-3, 3, 4)))]:
        d = dirac_tensor(cs, x)
        expected = repr(d)
        for row in d:
            row[:] = [math.nan] * len(row)
        assert repr(dirac_tensor(cs, x)) == expected
    j = poisson_tensor(2)
    j[0, 2] = 5.0
    assert poisson_tensor(2)[0, 2] == 1.0


def test_dirac_tensor_annihilates_constraint_gradients(rng):
    # {z_a, Phi_I}_D = (D grad Phi_I)_a = 0: every coordinate is an observable
    for cs, x in tensor_points(rng):
        d = np.array(dirac_tensor(cs, x))
        rows = np.array(cs.gradient_rows(x.coords))
        assert np.max(np.abs(d @ rows.T)) <= 1e-12 * np.max(np.abs(d)) * np.max(np.abs(rows))


def test_dirac_tensor_matches_per_pair_formula(rng):
    for cs, x in tensor_points(rng):
        chart = x.chart
        coords = [coordinate_field(chart, label) for label in chart.labels]
        d = np.array(dirac_tensor(cs, x))
        expected = np.array([[reference_bracket(a, b, cs, x) for b in coords] for a in coords])
        assert np.max(np.abs(d - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
        a = random_polynomial(chart, rng, name="a")
        b = random_polynomial(chart, rng, name="b")
        assert dirac_bracket(a, b, cs, x) == pytest.approx(reference_bracket(a, b, cs, x),
                                                           rel=1e-12, abs=1e-12)
        # the bracket is grad a . D . grad b with this D, bit for bit: one correctly rounded
        # sum of the products, as fsum takes it
        assert math.fsum(u * dab * v for u, row in zip(a.gradient(x), d)
                         for dab, v in zip(row, b.gradient(x))) == dirac_bracket(a, b, cs, x)


def test_dirac_tensor_chart_mismatch_raises(model):
    x = FLAT.point([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(UsageError, match="different charts"):
        dirac_tensor(model.constraint_set, x)


# -- the pairing guard and the gradient stack against their numpy forms ------------

def reference_degeneracy_scale(m):
    """The guard's scale max(1, prod of row norms), computed by numpy."""
    if m.shape[0] == 0:
        return 1.0
    return float(max(np.prod(np.linalg.norm(m, axis=1)), 1.0))


def reference_elimination(m, b):
    """(det M, M^-1 b) by Gaussian elimination with partial pivoting on numpy arrays: the
    first largest |entry| of each column is its pivot, each row below takes f = a_ij / pivot
    times the pivot row off its entries right of j and of b, det is the product of the
    pivots with a sign flip per swap, then back substitution from the last row; (0.0, None)
    at a zero pivot. For b of k entries or of k rows."""
    k = len(m)
    a = np.hstack([np.array(m, dtype=float), np.array(b, dtype=float).reshape(k, -1)])
    det = 1.0
    for j in range(k):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if a[p, j] == 0.0:
            return 0.0, None
        if p != j:
            a[[j, p]] = a[[p, j]]
            det = -det
        det = det * a[j, j]
        for i in range(j + 1, k):
            f = a[i, j] / a[j, j]
            a[i, j + 1:] = a[i, j + 1:] - f * a[j, j + 1:]
    x = np.empty((k, a.shape[1] - k))
    for j in range(k - 1, -1, -1):
        v = a[j, k:]
        for i in range(j + 1, k):
            v = v - a[j, i] * x[i]
        x[j] = v / a[j, j]
    return float(det), x.reshape(np.shape(b))


def reference_gradient_rows(cs, coords):
    """ConstraintSet.gradient_rows, stacked by np.stack."""
    return np.stack([f.gradient_at(coords) for f in cs.fields])


GUARD_CASES = ("dense", "nonfinite_entry", "underflowing_row", "near_threshold", "all_tiny")


def random_pairing_matrix(rng, size, case):
    """A random antisymmetric M of the given size for one of GUARD_CASES."""
    if case == "near_threshold":
        # det M within a factor 3 of DEGENERACY_RTOL * scale, randomly relabelled
        m = np.zeros((size, size))
        if size == 2:  # scale 1: |m01| near 1e-5
            m[0, 1] = 1e-5 * 10.0 ** rng.uniform(-0.25, 0.25)
        else:  # scale > 1: the Pfaffian m01 m23 - m02 m13 + m03 m12 cancelled down to p
            m[:4, :4] = np.triu(rng.uniform(1.0, 10.0, (4, 4)) * 10.0 ** rng.uniform(0.0, 3.0), 1)
            m[4:, 4:] = np.triu(rng.uniform(1.0, 10.0, (size - 4, size - 4)), 1)  # Pf factor m45
            for p in (0.0, 1.0):  # p from the scale of the cancelled block
                m[0, 3] = (p - m[0, 1] * m[2, 3] + m[0, 2] * m[1, 3]) / m[1, 2]
                p = math.sqrt(1e-10 * reference_degeneracy_scale(m[:4, :4] - m[:4, :4].T))
            m[0, 3] = (p * 10.0 ** rng.uniform(-0.25, 0.25) - m[0, 1] * m[2, 3]
                       + m[0, 2] * m[1, 3]) / m[1, 2]
        perm = rng.permutation(size)
        return (m - m.T)[perm][:, perm]
    m = np.triu(rng.normal(size=(size, size)) * 10.0 ** rng.uniform(-3.0, 3.0), 1)
    m = m - m.T
    if case == "nonfinite_entry":
        i, j = rng.choice(size, 2, replace=False)
        value = rng.choice([np.inf, -np.inf, np.nan])
        m[i, j], m[j, i] = value, -value
    elif case == "underflowing_row":  # its squares underflow, and numpy's norm reads 0
        i = rng.integers(size)
        tiny = 10.0 ** rng.uniform(-250.0, -160.0)
        m[i] *= tiny
        m[:, i] *= tiny
    elif case == "all_tiny":
        m *= 10.0 ** rng.uniform(-200.0, -150.0)
    return m


def test_guard_decision_matches_the_numpy_scale(rng):
    decisions = set()
    for trial in range(2400):
        case = GUARD_CASES[trial % len(GUARD_CASES)]
        m = random_pairing_matrix(rng, (2, 4, 6)[trial // len(GUARD_CASES) % 3], case)
        with np.errstate(all="ignore"):  # det of a non-finite M warns in LU
            det = pairing_det(m)
        second = _second_class(m, det)
        assert second == (abs(det) > DEGENERACY_RTOL * reference_degeneracy_scale(m)), (case, m)
        decisions.add((case, second))
        if case == "nonfinite_entry":
            assert not math.isfinite(degeneracy_scale(m))
        elif case in ("dense", "near_threshold"):
            assert degeneracy_scale(m) == pytest.approx(reference_degeneracy_scale(m),
                                                        rel=1e-14)
    assert {second for case, second in decisions if case == "near_threshold"} == {True, False}
    assert ("nonfinite_entry", False) in decisions and ("dense", True) in decisions


def test_degeneracy_scale_where_a_squared_row_norm_overflows():
    # m03 = 1e155 squares to inf in numpy's row norm, but the product of the row norms,
    # 1e155 * 1e-10 * 1e-10 * 1e155 = 1e290, is finite: M is Second Class by the true scale
    m = np.zeros((4, 4))
    m[0, 3], m[1, 2] = 1e155, 1e-10
    m = m - m.T
    det = pairing_det(m)
    assert degeneracy_scale(m) == pytest.approx(1e290, rel=1e-14)
    assert _second_class(m, det)
    with np.errstate(over="ignore"):
        assert reference_degeneracy_scale(m) == math.inf


def test_nonfinite_pairing_matrix_raises_degeneracy_error():
    for bad in (math.inf, -math.inf, math.nan):
        # M = [[0, 1], [-1, nan]] has the finite 2x2 det m01^2 = 1: only the scale sees the NaN
        rows = np.array([[1.0, 0.0], [bad, 1.0]])
        with pytest.raises(DegeneracyError, match="has a non-finite entry"):
            _pairing_multipliers(pairing_matrix_of_rows(rows.tolist(), 1), np.ones(2),
                                 [0.0, 0.0])
    with pytest.raises(DegeneracyError, match="has a non-finite entry"):
        dirac_tensor(HUGE_PAIR, LINE.point([0.0, 0.0]))


def test_guard_passes_an_invertible_pairing_whose_det_and_scale_overflow():
    # M = [[0, 1e200], [-1e200, 0]] on the pair (1e200 q, p), and the block-diagonal
    # 4x4 of two such pairs: det M and the scale overflow to inf alike, while
    # {z_a, z_b}_D = 0 is finite
    pair = ConstraintSet(LINE, (polynomial_field(LINE, [(1e200, (1, 0))], name="A"),
                                polynomial_field(LINE, [(1.0, (0, 1))], name="B")), ("A", "B"))
    four = ConstraintSet(FLAT, (polynomial_field(FLAT, [(1e200, (1, 0, 0, 0))], name="A"),
                                polynomial_field(FLAT, [(1.0, (0, 0, 1, 0))], name="B"),
                                polynomial_field(FLAT, [(1e200, (0, 1, 0, 0))], name="C"),
                                polynomial_field(FLAT, [(1.0, (0, 0, 0, 1))], name="D")),
                         ("A", "B", "C", "D"))
    for cs, x in ((pair, LINE.point([0.0, 0.0])), (four, FLAT.point([0.0, 0.0, 0.0, 0.0]))):
        m = constraint_matrix(cs, x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert degeneracy_scale(m) == math.inf
            assert np.array_equal(np.array(dirac_tensor(cs, x)), np.zeros((x.chart.dim,) * 2))
            assert classify(cs, [x], tol=1e-8).kind == "second_class"


def test_guard_decision_survives_a_power_of_two_that_overflows_the_scale(rng):
    # M * 2^900 keeps M's decision wherever M's scale is its product of row norms, not 1
    decisions = set()
    for trial in range(600):
        m = random_pairing_matrix(rng, (2, 4, 6)[trial % 3], ("dense", "near_threshold")[trial % 2])
        if degeneracy_scale(m) == 1.0:
            continue
        big = np.ldexp(m, 900)
        with np.errstate(all="ignore"):  # det by LU overflows with a warning
            big_det = pairing_det(big)
        assert degeneracy_scale(big) == math.inf
        second = _second_class(m, pairing_det(m))
        assert _second_class(big, big_det) == second, m
        decisions.add(second)
    assert decisions == {True, False}


def test_gradient_rows_equals_the_numpy_stack(rng):
    for cs, x in tensor_points(rng):
        rows = cs.gradient_rows(x.coords.tolist())
        expected = reference_gradient_rows(cs, x.coords)
        assert all(type(v) is float for row in rows for v in row)
        assert np.array(rows).tobytes() == expected.tobytes()


def test_gradient_rows_give_python_floats_for_every_gradient_kind():
    # a closed-form grad, a coordinate field's unit grad, a trace and the dual pass of a func
    # that compares a value, at a tolist() point
    square = polynomial_field(FLAT, [(1.0, (2, 0, 1, 0))])
    plain = ScalarField("sin_p2", FLAT, lambda z: duals.sin(z[3]))
    branchy = ScalarField("branchy", FLAT, lambda z: z[0] * z[3] if z[0] > 0.0 else z[1])
    fields = (square, coordinate_field(FLAT, "p1"), plain, branchy)
    cs = ConstraintSet(FLAT, fields, ("square", "p1", "plain", "branchy"))
    z = np.array([0.3, -1.2, 0.8, 2.1])
    rows = cs.gradient_rows(z.tolist())
    for field, row in zip(fields, rows, strict=True):
        assert type(row) is list and all(type(v) is float for v in row), field.name
        assert repr(row) == repr(field.gradient_at(z).tolist()), field.name


def test_array_grads_give_the_bits_of_their_list_twins_in_dirac_tensor_and_classify(rng):
    # rows of float64 arrays: S, M, det M and D with the bits of the list rows
    for cs, x in tensor_points(rng):
        twin = array_twin_set(cs)
        assert type(twin.gradient_rows(x.coords.tolist())[0]) is np.ndarray
        d = np.array(dirac_tensor(cs, x))
        assert np.array(dirac_tensor(twin, x)).tobytes() == d.tobytes()
    klauder, particle = KlauderModel(alpha=1.3, k=0.7), RelativisticParticle(mass=2.0)
    for cs, samples in ((klauder.constraint_set, klauder.sample_surface(rng, 10)),
                        (particle.constraint_set, particle.sample_on_shell(rng, 10)),
                        (CUSTOM_FOUR.constraint_set, CUSTOM_FOUR_SURFACE)):
        for x in samples:
            expected = classify(cs, [x], 1e-9)
            result = classify(array_twin_set(cs), [x], 1e-9)
            assert result.kind == expected.kind == "second_class"
            assert repr(result.det_M) == repr(expected.det_M)


def fraction_elimination(m, b):
    """(det M, M^-1 b) in exact rationals of the float entries, by Gaussian elimination on
    the first nonzero pivot; (0, None) for a singular M."""
    k = len(m)
    a = [[*map(Fraction, row), Fraction(v)] for row, v in zip(m, b)]
    det = Fraction(1)
    for j in range(k):
        p = next((i for i in range(j, k) if a[i][j]), None)
        if p is None:
            return Fraction(0), None
        if p != j:
            a[j], a[p], det = a[p], a[j], -det
        det *= a[j][j]
        for i in range(j + 1, k):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    x = [Fraction(0)] * k
    for j in range(k - 1, -1, -1):
        x[j] = (a[j][k] - sum(a[j][i] * x[i] for i in range(j + 1, k))) / a[j][j]
    return det, x


@st.composite
def elimination_cases(draw):
    """(kind, M, b): a general k x k M (k = 3..6) or an antisymmetric pairing matrix (k = 4
    or 6), each entry 0 or of magnitude 2^-10..10 times one power of two, so that no product
    under- or overflows, the error bound's domain; the same with a zero first row and column,
    a zero leading pivot; or the singular u v^T - v u^T of small integers."""
    kind = draw(st.sampled_from(["general", "antisymmetric", "zero_column", "singular"]))
    k = draw(st.integers(3, 6) if kind == "general" else st.sampled_from([4, 6]))
    e = draw(st.integers(-30, 30))
    magnitude = st.one_of(st.just(0.0), st.floats(2.0 ** -10, 10.0))
    entry = st.builds(lambda v, sign: math.ldexp(sign * v, e), magnitude, st.sampled_from([1, -1]))
    b = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    if kind == "singular":
        u, v = (draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) for _ in range(2))
        return kind, [[float(u[i] * v[j] - v[i] * u[j]) for j in range(k)] for i in range(k)], b
    m = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)))
    if kind != "general":
        m = np.triu(m, 1) - np.triu(m, 1).T
    if kind == "zero_column":
        m[0], m[:, 0] = 0.0, 0.0
    return kind, m.tolist(), b


@given(elimination_cases())
@settings(max_examples=200, deadline=None)
def test_elimination_is_within_its_error_bound_of_the_exact_det_and_solution(case):
    # Higham 2002, thms 9.3-9.4 and lemma 9.6: the computed LU is that of M + E and x solves
    # (M + E') x = b, |E| <= gamma_k |L||U|, |E'| <= gamma_3k |L||U|, and with partial
    # pivoting || |L||U| || <= (1 + 2 (k^2 - k) 2^(k-1)) ||M|| in the infinity norm. So
    # ||b - M x|| <= gamma_3k c ||M|| ||x||, and by Hadamard's inequality row by row the
    # det moves by at most k d (R + d)^(k-1) for rows moved by d = sqrt(k) gamma_k c ||M||
    # and R the largest row norm, and once more by gamma_k in the pivots' product. Every
    # bound is taken in exact rationals
    kind, m, b = case
    k = len(m)
    exact_det, exact_x = fraction_elimination(m, b)
    det, x = _eliminate(m, b)
    if kind in ("zero_column", "singular"):
        assert exact_det == 0
        with pytest.raises(DegeneracyError, match=r"is singular \(det=") as err:
            _pairing_multipliers(m, b, [0.0] * k)
        if kind == "zero_column":
            assert (det, x) == (0.0, None) and "det=0.000e+00" in str(err.value)
        return

    def gamma(j):
        return j * Fraction(1, 2 ** 53) / (1 - j * Fraction(1, 2 ** 53))

    c = 1 + 2 * (k * k - k) * 2 ** (k - 1)
    norm = max(sum(abs(Fraction(v)) for v in row) for row in m)
    d = 3 * gamma(k) * c * norm  # sqrt(k) <= 3 for k <= 6
    rows = Fraction(max(math.hypot(*row) for row in m)) * (1 + gamma(1))
    assert abs(Fraction(det) - exact_det) <= k * d * (rows + d) ** (k - 1) + gamma(k) * abs(
        Fraction(det)), (m, det)
    if x is not None:  # and ||x - M^-1 b|| <= ||M^-1|| ||b - M x||
        residual = max(abs(Fraction(v) - sum(Fraction(a) * Fraction(y) for a, y in zip(row, x)))
                       for row, v in zip(m, b))
        bound = gamma(3 * k) * c * norm * max(abs(Fraction(v)) for v in x)
        assert residual <= bound, (m, x)
        if exact_x is not None:
            inverse = [fraction_elimination(m, [float(i == j) for i in range(k)])[1]
                       for j in range(k)]
            inverse_norm = max(sum(abs(column[i]) for column in inverse) for i in range(k))
            assert max(abs(Fraction(v) - w) for v, w in zip(x, exact_x)) <= inverse_norm * bound
        # k rows of rhs take the elimination column by column, with the bits of each column
        columns = [[v, -v, 2.0 * v] for v in b]
        assert _eliminate(m, columns)[1] == [[v, w, y] for v, w, y in zip(
            x, _eliminate(m, [-v for v in b])[1], _eliminate(m, [2.0 * v for v in b])[1])]
    if kind == "antisymmetric" and abs(det) > DEGENERACY_RTOL * degeneracy_scale(m):
        assert _pairing_multipliers(m, b, [0.0] * k) == x  # the guard's det is this det


def test_two_by_two_det_squares_without_a_numpy_warning():
    # M_01 = 3e198 squares past the float range: inf, and no "overflow in scalar multiply"
    m = np.array([[0.0, 3e198], [-3e198, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pairing_det(m) == math.inf and pairing_det(m.tolist()) == math.inf


def dot_from_zero(u, v):
    """u . v summed from +0.0 in index order."""
    total = 0.0
    for x, y in zip(u, v):
        total += x * y
    return total


def test_float_pairing_matrix_det_and_scale_equal_the_numpy_route(rng):
    # one pair, so every q.p is a single product and BLAS has nothing to fuse: the float
    # lists must give numpy's M, det M and scale by repr, signed zeros, inf and NaN included
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e-200]
    for trial in range(400):
        rows = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-5.0, 5.0, (2, 2))
        hit = rng.random(rows.shape) < 0.3
        rows[hit] = rng.choice(specials, int(hit.sum()))
        with np.errstate(all="ignore"):
            a = rows[:, :1] @ rows[:, 1:].T
            m = a - a.T
        assert repr(pairing_matrix_of_rows(rows.tolist(), 1)) == repr(m.tolist()), rows
        assert repr(pairing_det(m.tolist())) == repr(pairing_det(m))
        assert repr(degeneracy_scale(m.tolist())) == repr(degeneracy_scale(m))
    # n pairs and k rows on both sides of the unroll bound n (k + 2)^2 <= 128, and k = 0, 1
    # and 3, against a_IJ = q_I . p_J summed from +0.0 in index order
    for n, k in [(8, 2), (9, 2), (2, 4), (4, 4), (3, 0), (40, 0), (3, 1), (3, 3)]:
        for trial in range(25):
            rows = rng.normal(size=(k, 2 * n)) * 10.0 ** rng.uniform(-5.0, 5.0, (k, 2 * n))
            hit = rng.random(rows.shape) < 0.2
            rows[hit] = rng.choice(specials, int(hit.sum()))
            rows = rows.tolist()
            a = [[dot_from_zero(r[:n], s[n:]) for s in rows] for r in rows]
            m = [[a[i][j] - a[j][i] for j in range(k)] for i in range(k)]
            assert repr(pairing_matrix_of_rows(rows, n)) == repr(m), (n, k, rows)


def tensor_function(monkeypatch, n, k, unroll_terms):
    """The generated ``tensor`` for n pairs and k constraints, built from ``_source`` with
    the unroll bound set to ``unroll_terms``: spelled out where n (k + 2)^2 is within it."""
    monkeypatch.setattr(kernels, "_UNROLL_TERMS", unroll_terms)
    namespace = {}
    exec(kernels._source("tensor", n, k), namespace)
    return namespace["tensor"]


@pytest.mark.parametrize("n, k", [(8, 2), (9, 2), (3, 4), (1, 0)])
def test_tensor_source_spelled_out_and_in_loops_gives_the_same_bits(monkeypatch, rng, n, k):
    # on both sides of the unroll bound n (k + 2)^2 <= 128, with four constraints (LU) and
    # none (D = J); each entry is J_ab + (S_0a L_0b + S_1a L_1b + ...) left to right
    spelled_out = tensor_function(monkeypatch, n, k, n * (k + 2) ** 2)
    in_loops = tensor_function(monkeypatch, n, k, n * (k + 2) ** 2 - 1)
    j = poisson_tensor(n).tolist()
    for trial in range(20):
        # rows scaled as a whole: the guard's det / prod of row norms does not depend on it
        rows = (rng.normal(size=(k, 2 * n)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 1))).tolist()
        grads = tuple(lambda z, row=row: row for row in rows)
        z = [0.0] * (2 * n)
        d = spelled_out(grads, _pairing_multipliers)(z)
        assert repr(d) == repr(in_loops(grads, _pairing_multipliers)(z))
        s = [[-v for v in row[n:]] + row[:n] for row in rows]
        lam = _pairing_multipliers(pairing_matrix_of_rows(rows, n), s, z) if k else []
        expected = [[j[a][b] + sum_in_order(s[i][a] * lam[i][b] for i in range(k)) if k
                     else j[a][b] for b in range(2 * n)] for a in range(2 * n)]
        assert repr(d) == repr(expected)


def sum_in_order(terms):
    """The terms summed left to right from the first one."""
    terms = iter(terms)
    total = next(terms)
    for term in terms:
        total = total + term
    return total


def test_lu_pivot_that_underflows_is_judged_without_a_numpy_warning():
    # the elimination of this M, with entries near 1e161 beside subnormal ones, meets a
    # pivot that underflows (numpy's LU warned "divide by zero encountered in det" there);
    # the guard judges the det
    m = np.zeros((4, 4))
    upper = {(0, 2): 6.872e-162, (0, 3): 5.076e161, (1, 2): -7.806e-322, (1, 3): -39.17,
             (2, 3): -2.04e-321}
    for (i, j), value in upper.items():
        m[i, j], m[j, i] = value, -value
    # the Faddeev-Popov det of {chi_i, C_j} = [[0, 0], [5e-324, 1]] takes the same elimination
    chi = [coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "q2")]
    c = [polynomial_field(FLAT, [(5e-324, (0, 0, 0, 1))], name="C1"),
         coordinate_field(FLAT, "p2")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError, match="is singular"):
            _pairing_multipliers(m.tolist(), [1.0, 0.0, 0.0, 0.0], [0.0] * 4)
        assert faddeev_popov_determinant(chi, c, FLAT.point([0.0] * 4)) == 0.0


def array_dirac_tensor(cs, x, ordered):
    """(D, |J| + |S|^T |L|) for D = J + S^T L, L = M^-1 S, by numpy arrays: M = a - a^T and
    the closed 2x2 solve or the reference elimination. ``ordered`` sums a_IJ and S^T L by
    elementwise products left to right from the first one, the order of the generated tensor;
    otherwise S comes from products with the identity and every contraction from matmul
    (BLAS)."""
    n = x.chart.n_pairs
    rows = reference_gradient_rows(cs, x.coords)
    q, p = rows[:, :n], rows[:, n:]
    if ordered:
        s = np.hstack([-p, q])
        products = q[:, None, :] * p[None, :, :]
        a = 0.0 + products[..., 0]
        for i in range(1, n):
            a = a + products[..., i]
    else:
        eye = np.eye(x.chart.dim)
        s = q @ eye[n:] - p @ eye[:n]
        a = q @ p.T
    m = a - a.T
    lam = (np.array([-s[1] / m[0, 1], s[0] / m[0, 1]]) if len(m) == 2
           else reference_elimination(m, s)[1])
    if ordered:
        correction = s[0][:, None] * lam[0][None, :]
        for i in range(1, len(s)):
            correction = correction + s[i][:, None] * lam[i][None, :]
    else:
        correction = s.T @ lam
    j = poisson_tensor(n)
    return j + correction, np.abs(j) + np.abs(s.T) @ np.abs(lam)


def test_dirac_tensor_equals_the_array_formula_bitwise(rng):
    # bitwise the ordered elementwise formula. BLAS may sum the products of S^T L in any
    # order or fuse them; each side is within gamma_{k+1} (|J| + |S|^T |L|) of the exact
    # J + S^T L (Higham 2002, sec. 3.1). Every q.p here has at most one nonzero product,
    # so both formulas share M and L
    eps = np.finfo(float).eps
    for cs, x in tensor_points(rng):
        d = np.array(dirac_tensor(cs, x))
        assert d.tobytes() == array_dirac_tensor(cs, x, ordered=True)[0].tobytes(), x
        blas, magnitude = array_dirac_tensor(cs, x, ordered=False)
        gamma = (len(cs) + 1) * eps / 2 / (1 - (len(cs) + 1) * eps / 2)
        assert np.all(np.abs(d - blas) <= 2 * gamma * magnitude), x


def test_four_constraint_pairing_matrix_equals_numpy_by_repr(rng):
    n = CUSTOM_FOUR.chart.n_pairs
    for x in CUSTOM_FOUR.sample(rng, 50):
        rows = CUSTOM_FOUR.constraint_set.gradient_rows(x.coords.tolist())
        a = np.array(rows)[:, :n] @ np.array(rows)[:, n:].T
        assert repr(pairing_matrix_of_rows(rows, n)) == repr((a - a.T).tolist()), x


@pytest.mark.parametrize("count", [2, 4, 6])
def test_dense_pairing_matrix_within_the_inner_product_bound_of_numpy(rng, count):
    # |float sum - BLAS sum| <= 2 gamma_n sum |q_k p_k| per product a_IJ (Higham 2002,
    # sec. 3.1), plus the rounding of a_IJ - a_JI: 4 n eps sum |q_k p_k| covers both
    n = 5
    for _ in range(200):
        rows = rng.normal(size=(count, 2 * n)) * 10.0 ** rng.uniform(-3.0, 3.0, (count, 2 * n))
        q, p = rows[:, :n], rows[:, n:]
        a = q @ p.T
        magnitude = np.abs(q) @ np.abs(p).T
        bound = 4 * n * np.finfo(float).eps * (magnitude + magnitude.T)
        m = np.array(pairing_matrix_of_rows(rows.tolist(), n))
        assert np.all(np.abs(m - (a - a.T)) <= bound)
        assert np.array_equal(m, -m.T)


# -- observables -----------------------------------------------------------------

def test_observables_commute_with_constraints(model, polar_coords, rng):
    samples = model.sample_points(rng, 100)
    assert observable_check(polar_coords["r"], model.constraint_set, samples).max_abs < 1e-9
    assert observable_check(model.gauge_condition, model.constraint_set,
                            samples).max_abs < 1e-9
    any_poly = random_polynomial(model.polar_chart, rng, degree=3, name="obs")
    assert observable_check(any_poly, model.constraint_set, samples).max_abs < 1e-9


def test_observable_check_on_an_empty_set_is_a_usage_error(model, polar_coords, rng):
    samples = model.sample_points(rng, 3)
    with pytest.raises(UsageError, match="at least one constraint"):
        observable_check(polar_coords["r"], ConstraintSet(model.polar_chart, (), ()), samples)


# -- reduced-bracket theorem -------------------------------------------------------

def test_reduced_bracket_angle_pair(model, polar_coords):
    param = model.surface_parametrization
    zred = param.reduced_chart.point([0.7, 2.0])
    report = reduced_bracket_check(polar_coords["phi"], polar_coords["p_phi"],
                                   model.constraint_set, param, zred)
    assert report.dirac_value == pytest.approx(1.0, abs=1e-12)
    assert report.reduced_pb_value == pytest.approx(1.0, abs=1e-12)
    assert report.abs_diff < 1e-12


def test_reduced_bracket_radial_pair(model, polar_coords):
    # r and p_r both embed as functions of p_phi alone: reduced bracket vanishes
    param = model.surface_parametrization
    zred = param.reduced_chart.point([1.2, -3.0])
    report = reduced_bracket_check(polar_coords["r"], polar_coords["p_r"],
                                   model.constraint_set, param, zred)
    assert abs(report.dirac_value) < 1e-10
    assert abs(report.reduced_pb_value) < 1e-10


def test_reduced_bracket_phi_r_closed_form(model, polar_coords):
    param = model.surface_parametrization
    p_phi = 2.0
    zred = param.reduced_chart.point([0.0, p_phi])
    report = reduced_bracket_check(polar_coords["phi"], polar_coords["r"],
                                   model.constraint_set, param, zred)
    r_star = model.reduced_point(p_phi)[0]
    expected = r_star * p_phi / (2.0 * (p_phi ** 2 + model.k(0.0) ** 2))
    assert report.dirac_value == pytest.approx(expected, abs=1e-10)
    assert report.abs_diff < 1e-10


def test_reduced_bracket_rejects_off_surface_embedding(model, polar_coords):
    from diracmech.constraints import SurfaceParametrization

    broken = SurfaceParametrization(
        reduced_chart=model.reduced_chart,
        embed=lambda z: [2.0, z[0], 0.0, z[1]])  # not on the surface
    zred = model.reduced_chart.point([0.0, 1.0])
    with pytest.raises(UsageError, match="surface"):
        reduced_bracket_check(polar_coords["phi"], polar_coords["p_phi"],
                              model.constraint_set, broken, zred)


def test_reduced_bracket_random_fields(model, rng):
    param = model.surface_parametrization
    for _ in range(10):
        a = random_polynomial(model.polar_chart, rng, name="a")
        b = random_polynomial(model.polar_chart, rng, name="b")
        zred = param.reduced_chart.point([rng.uniform(0, 2 * np.pi), rng.uniform(-5, 5)])
        assert reduced_bracket_check(a, b, model.constraint_set, param, zred).abs_diff < 1e-8


# -- canonical-measure weight -------------------------------------------------------

def test_fp_determinant_values(model):
    x = model.polar_chart.point([1.0, 0.0, 1.0, 0.0])
    assert faddeev_popov_determinant([model.gauge_condition], [model.constraint], x) \
        == pytest.approx(2.0, abs=1e-12)
    # canonical pair as gauge/constraint
    q1, p1 = coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "p1")
    assert faddeev_popov_determinant([q1], [p1], FLAT.point([0, 0, 0, 0])) == 1.0
    # on the surface with k=1, p_phi=0: r* = 1, weight 2 alpha^2 r*^2 = 2
    x_surf = model.embed_reduced(0.0, 0.0)
    assert faddeev_popov_determinant([model.gauge_condition], [model.constraint], x_surf) \
        == pytest.approx(2.0, abs=1e-12)
    # two pairs, swapped: {q_i, p_j} = delta_ij in reversed column order
    q2, p2 = coordinate_field(FLAT, "q2"), coordinate_field(FLAT, "p2")
    assert faddeev_popov_determinant([q1, q2], [p2, p1], FLAT.point([0, 0, 0, 0])) \
        == pytest.approx(-1.0, abs=1e-15)
    # no gauge fixing at all: the weight of the empty set is 1
    assert faddeev_popov_determinant([], [], x) == 1.0


def test_fp_determinant_count_mismatch(model):
    with pytest.raises(UsageError, match="equally many"):
        faddeev_popov_determinant([model.gauge_condition], [],
                                  model.polar_chart.point([1.0, 0.0, 0.0, 0.0]))


def test_pair_jacobian_matches_bracket(model, rng):
    x = model.polar_chart.point([1.0, 0.0, 1.0, 0.0])
    report = pair_jacobian_check(model.gauge_condition, model.constraint, x, ("r", "p_r"))
    assert report.jacobian_det == pytest.approx(2.0, abs=1e-12)
    assert report.bracket_value == pytest.approx(2.0, abs=1e-12)

    x2 = model.polar_chart.point([2.0, 0.0, 0.0, 3.0])
    report2 = pair_jacobian_check(model.gauge_condition, model.constraint, x2, ("r", "p_r"))
    assert report2.jacobian_det == pytest.approx(6.25, abs=1e-12)  # p^2 + r^2 = 9/4 + 4

    for x3 in model.sample_points(rng, 20):
        assert pair_jacobian_check(model.gauge_condition, model.constraint, x3,
                                   ("r", "p_r")).abs_diff < 1e-9


def column_fp_determinant(gauge_conditions, constraints, x):
    """det {chi_i, C_j} from the brackets {chi_i, C_j} = q_chi . p_C - p_chi . q_C on numpy
    arrays, not from the pairing matrix: each dot product is summed as an outer product
    per pair in index order from +0.0, as the float sums of the constraint engine are, and
    the det is the reference elimination's."""
    n = x.chart.n_pairs
    chi = np.array([f.gradient(x) for f in gauge_conditions])
    c = np.array([f.gradient(x) for f in constraints])
    qp, pq = np.zeros((len(chi), len(c))), np.zeros((len(chi), len(c)))
    for i in range(n):
        qp = qp + np.outer(chi[:, i], c[:, n + i])
        pq = pq + np.outer(chi[:, n + i], c[:, i])
    m = qp - pq
    if len(constraints) == 1:
        return float(m[0, 0])
    return reference_elimination(m, np.zeros(len(m)))[0]


def fp_cases(rng):
    """(gauge conditions, constraints, points): Klauder samples off and on the surface,
    particle on-shell points, and flat K = 2 sets."""
    klauder = KlauderModel(alpha=1.3, k=0.7)
    particle = RelativisticParticle(mass=1.5, spatial_dim=2)
    q1, q2, p1, p2 = (coordinate_field(FLAT, l) for l in FLAT.labels)
    flat_points = [FLAT.point(rng.uniform(-3, 3, 4)) for _ in range(5)]
    polys = [random_polynomial(FLAT, rng, name=f"f{i}") for i in range(4)]
    return [([klauder.gauge_condition], [klauder.constraint],
             list(klauder.sample_points(rng, 20)) + klauder.sample_surface(rng, 20)),
            ([particle.time_gauge(0.0)], [particle.mass_shell], particle.sample_on_shell(rng, 20)),
            ([q1, q2], [p2, p1], flat_points),
            (polys[:2], polys[2:], flat_points)]


def test_fp_determinant_is_the_column_formula_bitwise(rng):
    for chis, cs, points in fp_cases(rng):
        for x in points:
            fp = faddeev_popov_determinant(chis, cs, x)
            assert repr(fp) == repr(column_fp_determinant(chis, cs, x))


def test_pairing_det_is_the_square_of_the_fp_determinant_where_cc_vanishes(rng):
    # {C, C} = 0: det M = det({chi, C})^2 whatever {chi, chi} is
    klauder = KlauderModel(alpha=1.3, k=0.7)
    particle = RelativisticParticle(mass=1.5, spatial_dim=2)
    q1, q2, p1, p2 = (coordinate_field(FLAT, l) for l in FLAT.labels)
    cases = [(klauder.constraint_set, klauder.sample_surface(rng, 20)),
             (particle.constraint_set, particle.sample_on_shell(rng, 20)),
             (ConstraintSet(FLAT, (q1, q2, p1, p2), ("q1", "q2", "p1", "p2")),
              [FLAT.point(rng.uniform(-3, 3, 4)) for _ in range(5)])]
    for cs, points in cases:
        k = len(cs) // 2
        for x in points:
            fp = faddeev_popov_determinant(cs.fields[:k], cs.fields[k:], x)
            assert pairing_det(constraint_matrix(cs, x)) == fp ** 2


def test_pair_jacobian_bracket_is_the_fp_determinant(rng):
    model = KlauderModel(alpha=1.3, k=0.7)
    for x in model.sample_points(rng, 20):
        report = pair_jacobian_check(model.gauge_condition, model.constraint, x, ("r", "p_r"))
        fp = faddeev_popov_determinant([model.gauge_condition], [model.constraint], x)
        assert repr(report.bracket_value) == repr(fp)


# -- constraint set validation --------------------------------------------------------

def test_constraint_set_validation(model):
    with pytest.raises(UsageError):
        ConstraintSet(FLAT, (coordinate_field(FLAT, "q1"),), ("a", "b"))
    too_many = tuple(coordinate_field(FLAT, l) for l in FLAT.labels)
    with pytest.raises(UsageError):
        ConstraintSet(FLAT, too_many + (polynomial_field(FLAT, [(1.0, (2, 0, 0, 0))]),),
                      tuple("c" + str(i) for i in range(5)))
    assert not ConstraintSet(model.polar_chart, (model.constraint,), ("C",)).even_count


def test_constraint_names_must_be_distinct():
    # one name for C = q1 and C = p1 would leave one residual series and one drift row
    fields = (coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "p1"))
    with pytest.raises(UsageError, match="^constraint names must be distinct$"):
        ConstraintSet(FLAT, fields, ("C", "C"))
    assert ConstraintSet(FLAT, fields, ("C", "C\x00")).names == ("C", "C\x00")


def test_a_set_and_its_classification_refuse_malformed_input():
    q1, p1 = coordinate_field(FLAT, "q1"), coordinate_field(FLAT, "p1")
    with pytest.raises(UsageError, match=r"^one time ramp \(or None\) per constraint field$"):
        ConstraintSet(FLAT, (q1, p1), ("q1", "p1"), time_ramps=(None,))
    cs = ConstraintSet(FLAT, (q1, p1), ("q1", "p1"))
    with pytest.raises(UsageError, match="^classification tolerance must be positive$"):
        classify(cs, [FLAT.point([0.0, 1.0, 0.0, 2.0])], 0.0)
    with pytest.raises(UsageError, match="^classification needs at least one sample$"):
        classify(cs, [], 1e-8)

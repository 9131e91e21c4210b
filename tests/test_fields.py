import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import duals
from diracmech.brackets import poisson_bracket_field
from diracmech.errors import NumericDomainError, UsageError
from diracmech.fields import (BLOCK_COORDINATES, ScalarField, central_difference_gradient,
                              coordinate_field, field_product, gradient_consistency_check,
                              polynomial_field, pullback_field)
from diracmech.models import (KlauderModel, KRamp, LatticeMaxwell, RadialPotential,
                              RelativisticParticle)
from diracmech.phase import ChartSpec

from conftest import random_polynomial

CHART = ChartSpec(labels=("q1", "q2", "p1", "p2"), name="flat")


# -- dual numbers ------------------------------------------------------------

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(finite, finite)
@settings(max_examples=50, deadline=None)
def test_dual_arithmetic_matches_finite_differences(a, b):
    def f(z):
        return z[0] * z[0] * z[1] + 3.0 * z[0] - z[1] / (2.0 + z[1] * z[1])

    coords = np.array([a, b])
    grad = duals.gradient(f, coords)
    expected = np.array([2 * a * b + 3.0,
                         a * a - (2.0 - b * b) / (2.0 + b * b) ** 2])
    assert np.allclose(grad, expected, rtol=1e-12, atol=1e-12)


def test_dual_transcendentals():
    x = duals.seed([0.7])[0]
    for fn, deriv in ((duals.sin, math.cos(0.7)), (duals.cos, -math.sin(0.7)),
                      (duals.exp, math.exp(0.7)), (duals.sinh, math.cosh(0.7)),
                      (duals.cosh, math.sinh(0.7)), (duals.sqrt, 0.5 / math.sqrt(0.7)),
                      (duals.log, 1.0 / 0.7)):
        out = fn(x)
        assert out.eps[0] == pytest.approx(deriv, rel=1e-14)
    y = duals.atan2(x, 2.0)
    assert y.eps[0] == pytest.approx(2.0 / (4.0 + 0.49), rel=1e-14)


COMPLEX_STEP = 1e-200  # Im f(x + ih)/h is f'(x) to rounding: no difference is taken


def directed(a, t):
    """The dual of value a and tangent t: a plus t_j times seeded coordinate j at 0."""
    return a + sum(tj * e for tj, e in zip(t, duals.seed([0.0] * len(t))))


def entries(out, n=3):
    """The first n tangent entries of a dual, a missing one 0.0."""
    return [out.eps.get(j, 0.0) for j in range(n)]


# (dual form, complex form where it differs, "d" a dual and "f" a float argument, positive)
DUAL_OPERATORS = {
    "dual+dual": (lambda a, b: a + b, None, "dd", False),
    "dual+float": (lambda a, b: a + b, None, "df", False),
    "float+dual": (lambda a, b: a + b, None, "fd", False),
    "dual-dual": (lambda a, b: a - b, None, "dd", False),
    "dual-float": (lambda a, b: a - b, None, "df", False),
    "float-dual": (lambda a, b: a - b, None, "fd", False),
    "dual*dual": (lambda a, b: a * b, None, "dd", False),
    "dual*float": (lambda a, b: a * b, None, "df", False),
    "float*dual": (lambda a, b: a * b, None, "fd", False),
    "dual/dual": (lambda a, b: a / b, None, "dd", False),
    "dual/float": (lambda a, b: a / b, None, "df", False),
    "float/dual": (lambda a, b: a / b, None, "fd", False),
    "square": (lambda a: a ** 2, None, "d", False),
    "cube": (lambda a: a ** 3, None, "d", False),
    "power": (lambda a: a ** -1.5, None, "d", True),
    "neg": (lambda a: -a, None, "d", False),
    "sqrt": (duals.sqrt, cmath.sqrt, "d", True),
    "exp": (duals.exp, cmath.exp, "d", False),
    "log": (duals.log, cmath.log, "d", True),
    "sin": (duals.sin, cmath.sin, "d", False),
    "cos": (duals.cos, cmath.cos, "d", False),
    "sinh": (duals.sinh, cmath.sinh, "d", False),
    "cosh": (duals.cosh, cmath.cosh, "d", False),
}


@pytest.mark.parametrize("name", list(DUAL_OPERATORS))
def test_dual_operator_matches_the_complex_step_derivative(name, rng):
    dual_fn, complex_fn, kinds, positive = DUAL_OPERATORS[name]
    complex_fn = complex_fn or dual_fn
    for _ in range(20):
        args = rng.uniform(0.5, 2.0, len(kinds))
        if not positive:
            args *= rng.choice([-1.0, 1.0], len(kinds))
        tangents = rng.uniform(-3.0, 3.0, (len(kinds), 3))  # three non-unit directions
        out = dual_fn(*(directed(a, t) if kind == "d" else float(a)
                        for a, t, kind in zip(args, tangents, kinds)))
        expected = [complex_fn(*(complex(a, COMPLEX_STEP * t[j]) if kind == "d" else float(a)
                                 for a, t, kind in zip(args, tangents, kinds)))
                    for j in range(3)]
        assert out.val == pytest.approx(expected[0].real, rel=1e-15)
        np.testing.assert_allclose(entries(out), [e.imag / COMPLEX_STEP for e in expected],
                                   rtol=1e-13, atol=1e-15)


def test_dual_atan2_matches_its_closed_form_partials(rng):
    for _ in range(20):
        y, x = rng.uniform(-2.0, 2.0, 2)
        ty, tx = rng.uniform(-3.0, 3.0, (2, 3))
        r2 = x * x + y * y
        d_dy, d_dx = x / r2, -y / r2
        for out, tangent in ((duals.atan2(directed(y, ty), directed(x, tx)),
                              d_dy * ty + d_dx * tx),
                             (duals.atan2(directed(y, ty), x), d_dy * ty),
                             (duals.atan2(y, directed(x, tx)), d_dx * tx)):
            assert out.val == math.atan2(y, x)
            np.testing.assert_allclose(entries(out), tangent, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("fn, arg, dual", [
    (duals.log, -1.0, False), (duals.log, -1.0, True), (duals.log, 0.0, True),
    (duals.sqrt, -1.0, False), (duals.sqrt, -1.0, True), (duals.sqrt, 0.0, True),
    (duals.exp, 1000.0, False), (duals.exp, 1000.0, True),
    (duals.sinh, 1000.0, False), (duals.cosh, 1000.0, True),
    (duals.sin, math.inf, False), (duals.cos, math.inf, True)])
def test_dual_math_errors_are_numeric_domain_errors(fn, arg, dual):
    with pytest.raises(NumericDomainError):
        fn(duals.seed([arg])[0] if dual else arg)


@pytest.mark.parametrize("func, coords, message", [
    (lambda z: 1.0 / z[0], [0.0, 1.0], "1.0 / 0.0: division by zero"),
    (lambda z: z[1] / z[0], [0.0, 2.0], "2.0 / 0.0: division by zero"),
    (lambda z: z[1] / 0.0, [0.0, 3.0], "3.0 / 0.0: division by zero"),
    (lambda z: z[0] ** 0.5, [0.0, 1.0], "(0.0) ** 0.5: 0.0 cannot be raised"),
    (lambda z: z[0] ** 0.25, [-1.0, 1.0], "(-1.0) ** 0.25: complex result"),
    (lambda z: z[0] ** 2.5, [1e200, 1.0], "(1e+200) ** 2.5: Numerical result out of range"),
    # atan2's partials x / r2 and -y / r2 at r2 = 0, exact or underflowed
    (lambda z: duals.atan2(z[0], z[1]), [0.0, -0.0], "atan2(0.0, -0.0): division by zero"),
    (lambda z: duals.atan2(z[0], 0.0), [-0.0, 1.0], "atan2(-0.0, 0.0): division by zero"),
    (lambda z: duals.atan2(0.0, z[1]), [1.0, 0.0], "atan2(0.0, 0.0): division by zero"),
    (lambda z: duals.atan2(z[0], z[1]), [1e-170, -1e-170],
     "atan2(1e-170, -1e-170): division by zero")],
    ids=["reciprocal", "quotient", "by_constant", "sqrt_at_zero", "complex", "overflow",
         "atan2_origin", "atan2_dual_y", "atan2_dual_x", "atan2_underflow"])
def test_dual_operator_errors_are_numeric_domain_errors(func, coords, message):
    with pytest.raises(NumericDomainError) as err:
        duals.gradient(func, coords)
    assert str(err.value).startswith(message)


def test_dual_numpy_scalars_do_not_swallow_duals():
    x = duals.seed([2.0])[0]
    out = np.float64(3.0) * x + np.float64(1.0)
    assert isinstance(out, duals.Dual)
    assert out.val == 7.0 and out.eps[0] == 3.0


# -- charts and points --------------------------------------------------------

def test_chart_rejects_bad_labels():
    with pytest.raises(UsageError):
        ChartSpec(labels=("q", "q"))
    with pytest.raises(UsageError):
        ChartSpec(labels=("q", "p", "extra"))


def test_point_validation():
    with pytest.raises(UsageError):
        CHART.point([1.0, 2.0])
    with pytest.raises(NumericDomainError):
        CHART.point([1.0, np.nan, 0.0, 0.0])
    excluded = ChartSpec(labels=("r", "p"), domain=lambda z: z[0] > 0,
                         domain_description="r > 0")
    with pytest.raises(NumericDomainError):
        excluded.point([-1.0, 0.0])
    x = CHART.point([1.0, 2.0, 3.0, 4.0])
    assert x["p1"] == 3.0
    with pytest.raises(ValueError):
        x.coords[0] = 9.0  # read-only


# -- scalar fields -------------------------------------------------------------

def test_coordinate_and_constant_fields():
    x = CHART.point([1.0, 2.0, 3.0, 4.0])
    q1 = coordinate_field(CHART, "q1")
    assert q1.value(x) == 1.0
    assert np.array_equal(q1.gradient(x), [1.0, 0.0, 0.0, 0.0])
    c = polynomial_field(CHART, [(7.5, (0, 0, 0, 0))])
    assert c.value(x) == 7.5
    assert np.array_equal(c.gradient(x), np.zeros(4))


def test_polynomial_field_gradient_matches_ad(rng):
    for _ in range(10):
        f = random_polynomial(CHART, rng, degree=3)
        z = rng.uniform(-2, 2, 4)
        assert np.allclose(f.gradient_at(z), duals.gradient(f.func, z),
                           rtol=1e-13, atol=1e-13)


def numpy_scalar_polynomial_gradient(terms, z):
    """The polynomial gradient with every power taken on a numpy scalar, where an
    overflow is inf rather than OverflowError."""
    z = np.asarray(z, dtype=float)
    g = np.zeros(len(z))
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff, powers in terms:
            for j, pj in enumerate(powers):
                if pj == 0:
                    continue
                term = coeff * pj
                for i, p in enumerate(powers):
                    e = p - 1 if i == j else p
                    if e:
                        term *= z[i] ** e
                g[j] += term
    return g


def test_polynomial_gradient_on_floats_has_the_bits_of_numpy_scalar_powers(rng):
    # x ** e on a Python float raises OverflowError where a numpy scalar gives +-inf
    terms = [(1.0, (40, 0, 0, 0)), (-2.5, (0, 39, 1, 0)), (0.5, (3, 0, 0, 7)),
             (1e-3, (0, 0, 21, 2)), (0.7, (1, 0, 0, 0))]
    f = polynomial_field(CHART, terms)
    points = list(rng.uniform(-3, 3, (50, 4))) + [
        [1e11, -1e11, 3.0, -1e9], [-1e11, 1e11, -1e20, 0.0], [1e-200, -1e-200, 1e300, -1e-300]]
    for z in points:
        expected = numpy_scalar_polynomial_gradient(terms, z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = f._gradient(np.asarray(z, dtype=float).tolist())
        assert np.array(g).tobytes() == expected.tobytes(), (z, g, expected)
    signed = f._gradient([1e11, -1e11, 3.0, -1e9])
    assert signed[0] == math.inf and signed[1] == -math.inf  # both overflow signs are met


def test_gradient_purity():
    f = polynomial_field(CHART, [(1.5, (2, 0, 1, 0)), (-0.25, (0, 1, 0, 3))])
    z = np.array([1.1, -0.7, 2.2, 0.4])
    first = f.gradient_at(z)
    for _ in range(3):
        assert np.array_equal(f.gradient_at(z), first)
        assert f.value(CHART.point(z)) == f.value(CHART.point(z))


def test_gradient_consistency_simple_square():
    f = polynomial_field(CHART, [(1.0, (2, 0, 0, 0))], name="q1_squared")
    x = CHART.point([3.0, 0.0, 0.0, 0.0])
    assert gradient_consistency_check(f, x).max_rel_err < 1e-6


def test_gradient_consistency_negative_control():
    base = polynomial_field(CHART, [(1.0, (2, 0, 0, 0))])
    broken = ScalarField(name="broken", chart=CHART, func=base.func,
                         grad=lambda z: np.array(base.grad(z)) + 1.0)
    x = CHART.point([3.0, 0.0, 0.0, 0.0])
    assert gradient_consistency_check(broken, x).max_rel_err > 0.1


def blackbox(z):
    return float(np.sin(z[0]) * z[3])  # np.sin refuses a dual: no dual pass through it


BLACKBOX = ScalarField("blackbox", CHART, blackbox,
                       lambda z: central_difference_gradient(blackbox, z))


def test_blackbox_field_with_finite_difference_grad():
    x = CHART.point([0.5, 0.0, 0.0, 2.0])
    g = BLACKBOX.gradient(x)
    assert g[0] == pytest.approx(2.0 * math.cos(0.5), rel=1e-7)
    assert g[3] == pytest.approx(math.sin(0.5), rel=1e-7)


def test_field_product_without_grad_takes_the_dual_pass():
    square = polynomial_field(CHART, [(1.0, (2, 0, 0, 0))])
    plain = ScalarField("sin_p2", CHART, lambda z: duals.sin(z[3]))
    product = field_product(square, plain)
    assert product.grad is None
    z = np.array([0.3, -1.2, 0.8, 2.1])
    expected = duals.gradient(lambda w: square.func(w) * plain.func(w), z)
    assert np.array_equal(product.gradient_at(z), expected)


def test_field_product_with_finite_difference_factor_uses_the_product_rule():
    square = polynomial_field(CHART, [(1.0, (0, 2, 1, 0))])
    product = field_product(square, BLACKBOX)
    z = np.array([0.5, -0.7, 1.3, 2.0])
    assert np.array_equal(product.gradient_at(z),
                          square.func(z) * BLACKBOX.grad(z) + BLACKBOX.func(z) * np.array(square.grad(z)))
    assert gradient_consistency_check(product, CHART.point(z)).max_rel_err < 1e-6



def closed_form_fields():
    """(field, points) for every kind of field the package builds: the traced gradients of
    the Klauder and particle models, a coordinate field, a traced sine, the dual pass of a
    func that compares a value, a bracket field's central differences, a product of traced
    fields and the L=2 lattice Maxwell H."""
    rng = np.random.default_rng(11)
    klauder = KlauderModel(alpha=1.3, k=KRamp(0.7, 0.2), potential=RadialPotential((0.0, 0.4, 0.1)))
    polar = [x.coords for x in klauder.sample_points(rng, 20)]
    for field in (klauder.constraint, klauder.gauge_condition, klauder.hamiltonian()):
        yield field, polar
    yield klauder.cartesian_generator, list(rng.uniform(-3, 3, (20, 4)))
    particle = RelativisticParticle(mass=2.0, spatial_dim=3)
    on_shell = [x.coords for x in particle.sample(rng, 20)]
    yield particle.mass_shell, on_shell
    yield particle.physical_hamiltonian, list(rng.uniform(-3, 3, (20, 6)))
    yield particle.time_gauge(), on_shell
    flat = list(rng.uniform(-3, 3, (20, 4)))
    yield coordinate_field(CHART, "p1"), flat
    yield ScalarField("q1_sin_p2", CHART, lambda z: duals.sin(z[3]) * z[0]), flat
    yield ScalarField("branchy", CHART, lambda z: z[0] * z[3] if z[0] > 0.0 else z[1]), flat
    yield poisson_bracket_field(klauder.constraint, klauder.hamiltonian()), polar[:5]
    yield field_product(klauder.constraint, klauder.gauge_condition), polar
    maxwell = LatticeMaxwell(side=2)
    yield maxwell.hamiltonian, list(rng.normal(size=(5, maxwell.chart.dim)))


def test_closed_form_grads_return_python_floats():
    # the flows and the constraint engine read _gradient as it is; a numpy scalar would put
    # numpy back into every float operation of the pairing solve
    for field, points in closed_form_fields():
        for z in points:
            g = field._gradient(np.asarray(z, dtype=float).tolist())
            assert type(g) is list and all(type(v) is float for v in g), (field.name, g)
            at = field.gradient_at(z)
            assert at.dtype == np.float64 and at.tolist() == g


def test_coordinate_field_gradient_is_a_new_list_per_call():
    for field in (coordinate_field(CHART, "q2"), RelativisticParticle(mass=1.0).time_gauge()):
        z = [0.5] * field.chart.dim
        expected = field._gradient(z)
        first = field._gradient(z)
        first[0] = 7.0
        first.append(1.0)
        assert field._gradient(z) == expected and first is not field._gradient(z)


def test_field_product_of_closed_forms_returning_lists():
    model = KlauderModel(alpha=1.3, k=0.7)
    product = field_product(model.constraint, model.gauge_condition)
    z = np.array([1.1, 0.4, -0.6, 1.9])
    c, chi = model.constraint, model.gauge_condition
    expected = c.func(z) * chi.gradient_at(z) + chi.func(z) * c.gradient_at(z)
    assert np.array_equal(product.gradient_at(z), expected)
    assert gradient_consistency_check(product, model.polar_chart.point(z)).max_rel_err < 1e-6


def test_nonfinite_gradient_names_label():
    f = ScalarField("divergent", CHART, lambda z: z[0] / (z[1] * 0.0 + 0.0)
                    if not isinstance(z, list) else z[0],
                    lambda z: np.array([np.inf, 0.0, 0.0, 0.0]))
    x = CHART.point([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericDomainError, match="q1"):
        f.gradient(x)


@pytest.mark.parametrize("name", ["sqrt", "exp", "log", "sin", "cos", "sinh", "cosh"])
def test_a_lift_of_a_block_is_its_value_at_each_entry(name, rng):
    # libm entry by entry, as on a float, so a (dim, B) block keeps each point's bits
    lift = getattr(duals, name)
    block = rng.uniform(0.1, 3.0, (4, 7))
    expected = np.array([[lift(v) for v in row] for row in block.tolist()])
    got = lift(block)
    assert got.shape == block.shape and got.tobytes() == expected.tobytes()
    assert lift(block[2]).tobytes() == expected[2].tobytes()  # one coordinate's column
    assert lift(block[:, :0]).shape == (4, 0)


def test_atan2_of_a_block_is_its_value_at_each_entry(rng):
    y, x = rng.uniform(-3.0, 3.0, (2, 4, 7))
    expected = [[math.atan2(a, b) for a, b in zip(*rows)] for rows in zip(y.tolist(), x.tolist())]
    assert duals.atan2(y, x).tobytes() == np.array(expected).tobytes()
    assert duals.atan2(y[0], 2.0).tobytes() == np.array([math.atan2(a, 2.0)
                                                         for a in y[0].tolist()]).tobytes()
    assert type(duals.atan2(1.0, 2.0)) is float


def test_a_lift_of_a_block_raises_the_error_of_its_first_bad_entry():
    with pytest.raises(NumericDomainError, match=r"^sqrt\(-1\.0\): math domain error$"):
        duals.sqrt(np.array([[4.0, -1.0], [-2.0, 1.0]]))


# -- batches of states -------------------------------------------------------------

BATCH_KLAUDER = KlauderModel(alpha=1.3, k=KRamp(0.7, 0.2),
                             potential=RadialPotential((0.0, 0.4, 0.1)))
BATCH_PARTICLE = RelativisticParticle(mass=2.0, spatial_dim=3)
BATCH_LATTICE = LatticeMaxwell(side=2, spacing=0.7)


def polar_states(rng, count):
    return np.column_stack([rng.uniform(0.1, 5.0, count), rng.uniform(-5.0, 5.0, (count, 3))])


def uniform_states(dim):
    return lambda rng, count: rng.uniform(-3.0, 3.0, (count, dim))


def reduced_pullback():
    param = BATCH_KLAUDER.surface_parametrization
    return pullback_field(BATCH_KLAUDER.hamiltonian(), param.embed, param.reduced_chart)


# every field factory of the package: (builder, sampler of (count, dim) states in its domain)
BATCH_FIELDS = {
    "klauder-C": (lambda: BATCH_KLAUDER.constraint, polar_states),
    "klauder-chi": (lambda: BATCH_KLAUDER.gauge_condition, polar_states),
    "klauder-H_phys": (BATCH_KLAUDER.hamiltonian, polar_states),
    "klauder-C_cartesian": (lambda: BATCH_KLAUDER.cartesian_generator, uniform_states(4)),
    "particle-C": (lambda: BATCH_PARTICLE.mass_shell, uniform_states(8)),
    "particle-chi": (lambda: BATCH_PARTICLE.time_gauge(0.4), uniform_states(8)),
    "particle-H_phys": (lambda: BATCH_PARTICLE.physical_hamiltonian, uniform_states(6)),
    "polynomial": (lambda: polynomial_field(CHART, [(1.5, (2, 0, 1, 0)), (-0.3, (0, 3, 0, 1)),
                                                    (2.0, (0, 0, 0, 0))]), uniform_states(4)),
    "coordinate": (lambda: coordinate_field(CHART, "p1"), uniform_states(4)),
    "product": (lambda: field_product(BATCH_KLAUDER.constraint, BATCH_KLAUDER.gauge_condition),
                polar_states),
    "maxwell-H": (lambda: BATCH_LATTICE.hamiltonian, uniform_states(48)),
    "poisson-bracket": (lambda: poisson_bracket_field(
        BATCH_LATTICE.hamiltonian, coordinate_field(BATCH_LATTICE.chart, "A1.3")),
        uniform_states(48)),
    "reduced-pullback": (reduced_pullback, uniform_states(2)),
    "lifts": (lambda: ScalarField("lifts", CHART, lambda z: duals.sqrt(1.0 + z[0] * z[0])
                                  + duals.exp(z[1]) * duals.sin(z[2]) - duals.cos(z[3])
                                  + duals.log(2.0 + duals.sinh(z[0]) * duals.sinh(z[0]))
                                  * duals.cosh(z[1]) + duals.atan2(z[2], z[3])),
              uniform_states(4)),
}


# state counts as (states, blocks): none, one, and one block of rows less one, exact and plus one
@pytest.mark.parametrize("size", [(0, 0), (1, 0), (-1, 1), (0, 1), (1, 1)],
                         ids=["0", "1", "block-1", "block", "block+1"])
@pytest.mark.parametrize("name", list(BATCH_FIELDS))
def test_batch_route_equals_value_at_bitwise(name, size):
    build, sample = BATCH_FIELDS[name]
    field = build()
    count = size[0] + size[1] * max(1, BLOCK_COORDINATES // field.chart.dim)
    states = sample(np.random.default_rng(17), count)
    batch = field.values_along(states)
    expected = np.array([float(field.func(z)) for z in states], dtype=float)
    assert batch.shape == (count,) and batch.tobytes() == expected.tobytes()


def test_a_dual_compares_by_value_and_shows_its_tangent():
    x, y = duals.seed([0.7, -1.5])
    assert repr(x) == "Dual(0.7, {0: 1.0})"
    assert +x is x
    assert (x < y, x <= 0.7, x >= y, y >= 0.7) == (False, True, True, False)
    with pytest.raises(TypeError, match="^dual exponents are not supported$"):
        x ** y


def test_a_polynomial_term_needs_one_non_negative_exponent_per_coordinate():
    chart = ChartSpec(labels=("q", "p"))
    with pytest.raises(UsageError, match="^term exponents need length 2, got 3$"):
        polynomial_field(chart, [(1.0, (0, 0, 2))])
    with pytest.raises(UsageError, match="^polynomial exponents must be non-negative$"):
        polynomial_field(chart, [(1.0, (-1, 2))])

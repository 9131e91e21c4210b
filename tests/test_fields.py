import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import duals
from diracmech.errors import NumericDomainError, UsageError
from diracmech.fields import (ScalarField, constant_field, coordinate_field,
                              function_field, gradient_consistency_check,
                              polynomial_field)
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
    (lambda z: z[0] ** 2.5, [1e200, 1.0], "(1e+200) ** 2.5: Numerical result out of range")],
    ids=["reciprocal", "quotient", "by_constant", "sqrt_at_zero", "complex", "overflow"])
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


def test_point_replace():
    x = CHART.point([1.0, 2.0, 3.0, 4.0])
    y = x.replace(q1=5.0)
    assert y["q1"] == 5.0 and x["q1"] == 1.0


# -- scalar fields -------------------------------------------------------------

def test_coordinate_and_constant_fields():
    x = CHART.point([1.0, 2.0, 3.0, 4.0])
    q1 = coordinate_field(CHART, "q1")
    assert q1.value(x) == 1.0
    assert np.array_equal(q1.gradient(x), [1.0, 0.0, 0.0, 0.0])
    c = constant_field(CHART, 7.5)
    assert c.value(x) == 7.5
    assert np.array_equal(c.gradient(x), np.zeros(4))


def test_polynomial_field_gradient_matches_ad(rng):
    for _ in range(10):
        f = random_polynomial(CHART, rng, degree=3)
        z = rng.uniform(-2, 2, 4)
        assert np.allclose(f.gradient_at(z), duals.gradient(f.func, z),
                           rtol=1e-13, atol=1e-13)


def test_gradient_purity():
    f = polynomial_field(CHART, [(1.5, (2, 0, 1, 0)), (-0.25, (0, 1, 0, 3))])
    z = np.array([1.1, -0.7, 2.2, 0.4])
    first = f.gradient_at(z)
    for _ in range(3):
        assert np.array_equal(f.gradient_at(z), first)
        assert f.value_at(z) == f.value_at(z)


def test_gradient_consistency_simple_square():
    f = polynomial_field(CHART, [(1.0, (2, 0, 0, 0))], name="q1_squared")
    x = CHART.point([3.0, 0.0, 0.0, 0.0])
    assert gradient_consistency_check(f, x).max_rel_err < 1e-6


def test_gradient_consistency_negative_control():
    base = polynomial_field(CHART, [(1.0, (2, 0, 0, 0))])
    broken = ScalarField(name="broken", chart=CHART, func=base.func,
                         grad=lambda z: base.grad(z) + 1.0)
    x = CHART.point([3.0, 0.0, 0.0, 0.0])
    assert gradient_consistency_check(broken, x).max_rel_err > 0.1


def test_numerical_gradient_kind():
    f = function_field(CHART, "blackbox", lambda z: float(np.sin(z[0]) * z[3]),
                       numerical=True)
    assert f.gradient_kind.startswith("numerical")
    x = CHART.point([0.5, 0.0, 0.0, 2.0])
    g = f.gradient(x)
    assert g[0] == pytest.approx(2.0 * math.cos(0.5), rel=1e-7)
    assert g[3] == pytest.approx(math.sin(0.5), rel=1e-7)


def test_nonfinite_gradient_names_label():
    f = function_field(CHART, "divergent", lambda z: z[0] / (z[1] * 0.0 + 0.0)
                       if not isinstance(z, list) else z[0],
                       grad=lambda z: np.array([np.inf, 0.0, 0.0, 0.0]))
    x = CHART.point([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericDomainError, match="q1"):
        f.gradient(x)

"""The point path: one validated point in, each field's gradient list out, checked once.

``ScalarField.gradient`` gives the list its gradient route returns, after one check of its
length and one of its finiteness, and the point brackets use that list as it is. The
property below holds them to an ndarray transcription of the route they replace, which
turned each gradient into a float64 array, tested it with ``np.isfinite`` and read it
back by ``tolist()``: the same bits, and the same error where a gradient is not finite.
A batch given to a point API, and a ``grad`` with the wrong number of entries, are usage
errors that name what is wrong.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.brackets import poisson_bracket
from diracmech.constraints import (ConstraintSet, JacobianReport, ObservableReport,
                                   dirac_bracket, dirac_tensor, faddeev_popov_determinant,
                                   observable_check, pair_jacobian_check)
from diracmech.dynamics import IntegratorConfig, PoissonFlow, evolve
from diracmech.errors import DiracMechError, NumericDomainError, UsageError
from diracmech.fields import (ScalarField, coordinate_field, gradient_consistency_check,
                              polynomial_field)
from diracmech.phase import ChartSpec

CHART = ChartSpec(labels=("q1", "q2", "p1", "p2"), name="flat")
Q1 = coordinate_field(CHART, "q1")
SQUARE = polynomial_field(CHART, [(1.0, (2, 0, 0, 1))], name="square")
PAIR = ConstraintSet(CHART, (Q1, polynomial_field(CHART, [(1.0, (0, 0, 1, 0))], "p1")),
                     ("q1", "p1"))


# -- the route replaced, transcribed on arrays --------------------------------------

def old_gradient(field, x):
    g = np.asarray(field._gradient(np.asarray(x.coords, dtype=float).tolist()), dtype=float)
    if not np.isfinite(g).all():
        bad = field.chart.labels[int(np.argmin(np.isfinite(g)))]
        raise NumericDomainError(f"gradient of {field.name!r} is non-finite in coordinate {bad!r}")
    return g


def old_contraction(ga, d, gb):
    return math.fsum((ga[:, None] * np.array(d) * gb).ravel().tolist())


def old_poisson(a, b, x):
    n = x.chart.n_pairs
    ga, gb = old_gradient(a, x), old_gradient(b, x)
    return math.fsum((ga * np.concatenate([gb[n:], -gb[:n]])).tolist())  # ga . J gb


def old_dirac(a, b, cs, x):
    return old_contraction(old_gradient(a, x), dirac_tensor(cs, x), old_gradient(b, x))


def old_observable(a, cs, samples):
    worst = [0.0] * len(cs)
    for x in samples:
        d, ga = dirac_tensor(cs, x), old_gradient(a, x)
        worst = [max(w, abs(old_contraction(ga, d, np.array(row))))
                 for w, row in zip(worst, cs.gradient_rows(x.columns))]
    per_constraint = dict(zip(cs.names, worst))
    return ObservableReport(max_abs=max(per_constraint.values()), per_constraint=per_constraint)


def old_faddeev_popov(gauge, constraint, x):
    # {chi, C} = a_01 - a_10, a_IJ = q_I . p_J summed from +0.0 in index order
    n, rows = x.chart.n_pairs, [old_gradient(gauge, x), old_gradient(constraint, x)]
    a01 = a10 = 0.0
    for i in range(n):
        a01 = a01 + rows[0][i] * rows[1][n + i]
        a10 = a10 + rows[1][i] * rows[0][n + i]
    return float(a01 - a10)


def old_pair_jacobian(gauge, constraint, x):
    g_chi, g_c = old_gradient(gauge, x), old_gradient(constraint, x)
    jac = g_chi[0] * g_c[2] - g_chi[2] * g_c[0]  # the pair (q1, p1)
    bracket = old_faddeev_popov(gauge, constraint, x)
    return JacobianReport(jacobian_det=float(jac), bracket_value=bracket,
                          abs_diff=abs(float(jac) - bracket))


def outcome(fn, *args):
    """repr of fn's result, or its error's type and message: a float's repr is its bits."""
    try:
        with np.errstate(all="ignore"):
            return repr(fn(*args))
    except (DiracMechError, ArithmeticError, ValueError) as err:
        return repr((type(err), str(err)))


# coordinates whose powers overflow, so that a gradient entry is inf, beside plain ones
COORD = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e300])
TERMS = st.lists(st.tuples(st.floats(-2.0, 2.0), st.tuples(*[st.integers(0, 3)] * 4)),
                 min_size=1, max_size=3)


@given(TERMS, TERMS, st.lists(COORD, min_size=4, max_size=4),
       st.lists(COORD, min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
# a gradient of a finite first entry and an inf second one, and a cube past the range
@example([(1.0, (2, 1, 0, 0))], [(1.0, (0, 0, 1, 0))], [1e200, 1.0, 0.5, 0.5],
         [0.0, 0.0, 0.0, 0.0]).via("the first non-finite coordinate")
@example([(1.0, (3, 0, 0, 0))], [(1.0, (0, 0, 2, 0))], [1e200, 1.0, 1.0, 1.0],
         [1.0, 1.0, 1.0, 1.0]).via("an overflowing power")
def test_point_brackets_give_the_bits_and_errors_of_the_array_route(ta, tb, z, z2):
    a, b = polynomial_field(CHART, ta, "a"), polynomial_field(CHART, tb, "b")
    cs = ConstraintSet(CHART, (Q1, b), ("q1", "b"))
    x, x2 = CHART.point(z), CHART.point(z2)
    for new, old, args in [(poisson_bracket, old_poisson, (a, b, x)),
                           (dirac_bracket, old_dirac, (a, b, cs, x)),
                           (dirac_bracket, old_dirac, (a, b, PAIR, x)),
                           (observable_check, old_observable, (a, cs, [x2, x])),
                           (observable_check, old_observable, (a, PAIR, [x2, x])),
                           (faddeev_popov_determinant, lambda g, c, y: old_faddeev_popov(
                               g[0], c[0], y), ([a], [b], x)),
                           (pair_jacobian_check, lambda g, c, y, _: old_pair_jacobian(g, c, y),
                            (a, b, x, ("q1", "p1")))]:
        assert outcome(new, *args) == outcome(old, *args), new.__name__


def test_gradient_is_the_route_list_as_it_is():
    x = CHART.point([0.5, -1.5, 2.0, 0.25])
    g = SQUARE.gradient(x)
    assert g.__class__ is list and all(v.__class__ is float for v in g)
    assert repr(g) == repr(old_gradient(SQUARE, x).tolist())


# -- a batch given to a point API ---------------------------------------------------

BATCH = CHART.point(np.arange(1.0, 13.0).reshape(3, 4))
POINT_APIS = {
    "gradient": lambda x: SQUARE.gradient(x),
    "coordinate_gradient": lambda x: Q1.gradient(x),
    "value": lambda x: SQUARE.value(x),
    "poisson_bracket": lambda x: poisson_bracket(Q1, SQUARE, x),
    "dirac_bracket": lambda x: dirac_bracket(Q1, SQUARE, PAIR, x),
    "observable_check": lambda x: observable_check(SQUARE, PAIR, [x]),
    "faddeev_popov_determinant": lambda x: faddeev_popov_determinant([Q1], [SQUARE], x),
    "pair_jacobian_check": lambda x: pair_jacobian_check(Q1, SQUARE, x, ("q1", "p1")),
    "gradient_consistency_check": lambda x: gradient_consistency_check(SQUARE, x),
}


@pytest.mark.parametrize("name", POINT_APIS)
def test_a_point_api_refuses_a_batch_naming_its_rows(name):
    with pytest.raises(UsageError, match="not a batch of 3 rows"):
        POINT_APIS[name](BATCH)
    POINT_APIS[name](BATCH[1])  # each row is a point it takes


# -- a grad with the wrong number of entries ----------------------------------------

def short_fields(calls):
    """Fields of three gradient entries on four coordinates: one the tracer takes, one it
    refuses (it converts a value), each counting its calls."""
    def traced(z):
        calls.append(z)
        return [z[1], z[0], 0.0]

    def called(z):
        calls.append(z)
        return [float(z[1]), float(z[0]), 0.0]

    func = lambda z: z[0] * z[1]  # noqa: E731
    return {"traced": ScalarField("short", CHART, func, grad=traced),
            "called": ScalarField("short", CHART, func, grad=called)}


@pytest.mark.parametrize("kind", ["traced", "called"])
def test_a_grad_of_the_wrong_length_is_a_usage_error_naming_the_field(kind):
    x = CHART.point([0.5, -1.5, 2.0, 0.25])
    field = short_fields([])[kind]
    message = "grad of 'short' gives 3 entries for the 4 coordinates of chart 'flat'"
    with pytest.raises(UsageError, match=message):
        field.gradient(x)
    with pytest.raises(UsageError, match=message):
        poisson_bracket(field, Q1, x)


@pytest.mark.parametrize("kind, calls_made", [("traced", 1), ("called", 2)])
def test_evolve_refuses_a_grad_of_the_wrong_length_before_a_step(kind, calls_made):
    # the traced grad at its trace; the called one once at the start, after its refused trace
    calls = []
    field = short_fields(calls)[kind]
    with pytest.raises(UsageError, match="grad of 'short' gives 3 entries"):
        evolve(CHART.point([0.5, -1.5, 2.0, 0.25]), PoissonFlow(field),
               IntegratorConfig(dt=1e-3, steps=10))
    assert len(calls) == calls_made


def test_a_chart_names_a_missing_label_and_a_point_shows_its_coordinates():
    chart = ChartSpec(labels=("q", "p"), name="line")
    with pytest.raises(UsageError, match="^chart 'line' has no coordinate 'x'$"):
        chart.index("x")
    assert repr(chart) == "ChartSpec('line', dim=2)"
    assert repr(chart.point([1.0, -0.5])) == "PhaseSpacePoint(q=1, p=-0.5)"
    assert repr(chart.point([[1.0, 0.0], [2.0, 3.0]])) == "PhaseSpacePoint(2 rows of chart 'line')"

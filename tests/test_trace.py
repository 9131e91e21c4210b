"""The traced gradient: each field's dual pass, or its registered ``grad``, recorded once as
straight-line float code.

A dual pass's trace is that pass recorded, so it gives the pass's bits everywhere, inf and
NaN included; it is what the RK4 loops run in their four stages, bit for bit the call form of
the same loop, and a ``func`` the tracer cannot record keeps the dual pass. Every error still
ends in the dual pass's message. A
polynomial's traced term table gives every orbit the bits of its called one, and an
overflowing power ends in the blow-up the term table's signed inf gives.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracmech import duals
from diracmech.constraints import ConstraintSet
from diracmech.dynamics import (BLOWUP_LIMIT, DiracFlow, GaugeFlow, IntegratorConfig,
                                PoissonFlow, _generated, _kernel_args, _loop, evolve)
from diracmech.errors import DiracMechError, NumericDomainError
from diracmech.fields import ScalarField, polynomial_field
from diracmech.models import KlauderModel, KRamp, RadialPotential, RelativisticParticle
from diracmech.phase import ChartSpec, PhaseSpacePoint

CHART = ChartSpec(labels=("q1", "q2", "p1", "p2"), name="flat")

coefficients = st.lists(st.floats(-2.0, 2.0), max_size=5)
ramps = st.builds(KRamp, st.floats(-2.0, 2.0), st.sampled_from([0.0]) | st.floats(-1.0, 1.0))
klauder_models = st.builds(KlauderModel, alpha=st.floats(0.1, 5.0), k=ramps,
                           potential=st.builds(RadialPotential, coefficients))
particles = st.builds(RelativisticParticle, mass=st.floats(0.05, 10.0),
                      spatial_dim=st.integers(1, 3))
# wide magnitudes, with signed zeros, and values whose squares overflow
coordinate = (st.floats(-1e6, 1e6, allow_subnormal=False) | st.sampled_from([0.0, -0.0])
              | st.floats(1e150, 1e200) | st.floats(-1e200, -1e150))


def fields_of(model):
    if isinstance(model, KlauderModel):
        return (model.constraint, model.gauge_condition, model.hamiltonian(),
                model.cartesian_generator)
    return (model.mass_shell, model.time_gauge(0.7), model.physical_hamiltonian)


def outcome(fn, z):
    """The gradient fn gives at z, or the type and message of its error."""
    try:
        return fn(z), None
    except DiracMechError as err:
        return None, (type(err), str(err))


@given(st.one_of(klauder_models, particles), st.data())
@settings(max_examples=150, deadline=None)
def test_traced_gradient_equals_the_dual_pass(model, data):
    for field in fields_of(model):
        assert field.grad is None and field._trace is not None, field.name
        z = data.draw(st.lists(coordinate, min_size=field.chart.dim, max_size=field.chart.dim))
        if field.chart.name == "polar":  # r > 0: inside the chart
            z[0] = abs(z[0]) or 1.0
        traced = outcome(field._gradient, z)
        assert repr(traced) == repr(outcome(lambda w: duals.gradient(field.func, w), z)), (
            field.name, z, traced)


def test_an_overflowing_product_gives_the_dual_pass_bits_without_a_warning():
    # the structural zeros of q q's tangent in p and of the other factor's in q are skipped,
    # not taken as 0 * inf = NaN
    field = ScalarField("F", ChartSpec(("q", "p")), lambda z: (z[0] * z[0]) * (z[1] * 1e308 * 10))
    assert field._trace is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traced, dual = field._gradient([1.0, 2.0]), duals.gradient(field.func, [1.0, 2.0])
    assert repr(traced) == repr(dual) == "[inf, inf]"


def call_form(flow):
    """The flow's RK4 loop with every gradient called through its route."""
    kind, k, args, _ = _kernel_args(flow)
    return _generated(kind, flow.chart.n_pairs, k)(*args)


def rows_or_error(run, z, dt, steps=1000):
    rows = []
    try:
        end = run(z, dt, 0, steps, BLOWUP_LIMIT, rows)
    except DiracMechError as err:
        return repr(rows), (type(err), str(err))
    return repr(rows), end


@st.composite
def starts(draw):
    """(flow, start) of a static or ramped Klauder Dirac orbit, a gauge orbit or a particle
    flight."""
    kind = draw(st.sampled_from(["dirac", "gauge", "particle"]))
    if kind == "particle":
        particle = draw(particles)
        z = draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * particle.spatial_dim,
                          max_size=2 * particle.spatial_dim))
        return particle.flow("poisson")[0], z
    model = draw(klauder_models)
    if kind == "gauge":
        return model.flow("gauge", draw(st.floats(-2.0, 2.0)))[0], draw(
            st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    p_phi = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    start = model.embed_reduced(draw(st.floats(0.0, 6.0)), p_phi)
    return model.flow("dirac")[0], start.coords.tolist()


@given(starts())
@settings(max_examples=30, deadline=None)
def test_written_in_loop_gives_the_rows_of_the_call_form(start):
    flow, z = start
    assert all(f._trace is not None for f in _kernel_args(flow)[3])
    with np.errstate(all="ignore"):
        assert rows_or_error(_loop(flow), z, 1e-3) == rows_or_error(call_form(flow), z, 1e-3)


def loop_form_and_mixed_flows():
    """(flow, start): a Dirac flow of a traced H and two polynomial constraints, Poisson and
    gauge flows on 33 pairs (the loop form) and a four-constraint Dirac loop form."""
    h = ScalarField("H", CHART, lambda z: 0.5 * (z[2] * z[2] + z[3] * z[3])
                    + duals.sin(z[0]) * z[1])
    polys = ConstraintSet(CHART, (polynomial_field(CHART, [(1.0, (0, 1, 0, 0))]),
                                  polynomial_field(CHART, [(1.0, (0, 0, 0, 1))])), ("q2", "p2"))
    yield DiracFlow(h, polys), [0.3, 0.0, 0.5, 0.0]
    n = 33
    big = ChartSpec(tuple(f"q{i}" for i in range(n)) + tuple(f"p{i}" for i in range(n)))
    wide = ScalarField("H", big, lambda z: 0.5 * sum((z[n + i] * z[n + i] + duals.cos(z[i])
                                                      for i in range(n)), 0.0))
    start = np.random.default_rng(1).uniform(-1.0, 1.0, 2 * n).tolist()
    yield PoissonFlow(wide), start
    yield GaugeFlow(wide, 0.7), start
    chart = ChartSpec(tuple(f"q{i}" for i in range(4)) + tuple(f"p{i}" for i in range(4)))
    h4 = ScalarField("H", chart, lambda z: 0.5 * sum((z[4 + i] * z[4 + i] for i in range(4)), 0.0)
                     + z[0] * z[1])
    pairs = tuple(ScalarField(f"c{i}", chart, lambda z, i=i: 0.5 * z[i] * z[i] + z[i])
                  for i in (0, 4, 1, 5))
    cs = ConstraintSet(chart, pairs, ("c0", "c4", "c1", "c5"))
    yield DiracFlow(h4, cs), [0.0, 0.0, 0.3, 0.2, 0.0, 0.0, -0.09, -0.04]


@pytest.mark.parametrize("index", range(4), ids=["mixed", "poisson_loop", "gauge_loop",
                                                 "dirac_loop"])
def test_loop_form_and_mixed_flows_give_the_rows_of_the_call_form(index):
    flow, z = list(loop_form_and_mixed_flows())[index]
    assert rows_or_error(_loop(flow), z, 1e-3, 200) == rows_or_error(call_form(flow), z, 1e-3, 200)


def branchy(z):
    return z[0] * z[2] if z[0] > 0.0 else z[1] * z[3]  # a comparison reads the value


def leaves_the_dual_helpers(z):
    return math.sin(z[0]) * z[2]  # math.sin refuses a dual, and a traced value


def raises_while_traced(z):
    return z[2] * duals.value(z[0]) + z[3]  # a value read off as a float is no traced op


def equal_to_a_float(z):
    return z[1] if duals.value(z[0]) == 0.0 else z[0] * z[1]  # == on a value, no order


def equal_to_a_value(z):
    return z[1] if duals.value(z[0]) != duals.value(z[2]) else z[0] * z[1]


def truthy(z):
    return z[0] * z[1] if duals.value(z[0]) else z[1]  # a truth test of a value


@pytest.mark.parametrize("func", [branchy, leaves_the_dual_helpers, raises_while_traced,
                                  equal_to_a_float, equal_to_a_value, truthy])
def test_an_untraceable_func_keeps_the_dual_pass(func):
    field = ScalarField(func.__name__, CHART, func)
    assert field._trace is None
    assert field._gradient.func is duals.gradient
    flow = PoissonFlow(field)
    for z in ([0.5, -1.2, 0.8, 2.1], [-0.5, 1.2, -0.8, 0.3], [0.0, 1.2, 0.0, 0.3]):
        try:
            expected = duals.gradient(func, z)
        except TypeError as err:  # today's error, from both routes
            with pytest.raises(TypeError, match=str(err)):
                field._gradient(z)
            with pytest.raises(TypeError, match=str(err)):
                evolve(CHART.point(z), flow, IntegratorConfig(dt=1e-3, steps=10))
            continue
        assert field._gradient(z) == expected
        assert rows_or_error(_loop(flow), z, 1e-3, 200) == rows_or_error(call_form(flow), z,
                                                                            1e-3, 200)


def test_a_traced_sine_records_its_math_calls():
    field = ScalarField("q1_sin_p2", CHART, lambda z: duals.sin(z[3]) * z[0])
    (lines, outputs, count), constants = field._trace
    assert math.sin in constants and math.cos in constants
    z = [0.3, -1.2, 0.8, 2.1]
    assert field._gradient(z) == duals.gradient(field.func, z)


def test_written_in_energy_gradient_raises_the_dual_error_from_p_zero():
    # 1e-170^2 underflows to 0, so at p = 0 the first stage divides by sqrt(0)
    particle = RelativisticParticle(mass=1e-170, spatial_dim=2)
    flow, _ = particle.flow("poisson")
    assert flow.hamiltonian._trace is not None
    with pytest.raises(NumericDomainError) as err:
        evolve(particle.spatial_chart.point([0.0] * 4), flow, IntegratorConfig(dt=0.01, steps=10))
    assert str(err.value) == "sqrt(0.0): float division by zero"


def test_written_in_constraint_gradient_raises_the_dual_division_error():
    # C's func on a chart with no r > 0 domain: 1e-170^2 underflows to 0 in its quotient
    flow = GaugeFlow(ScalarField("C", CHART, KlauderModel(alpha=1.0, k=1.0).constraint.func))
    assert flow.generator._trace is not None
    with pytest.raises(NumericDomainError) as err:
        evolve(CHART.point([1e-170, 0.3, 1.0, 2.0]), flow, IntegratorConfig(dt=0.01, steps=10))
    assert str(err.value) == "4.0 / 0.0: division by zero"


def test_a_value_the_gradient_does_not_need_still_raises_its_error():
    # d log(q1)/dq1 = 1/q1 reads no log value, yet log(-1) raises as on the dual pass
    field = ScalarField("log_q1", CHART, lambda z: duals.log(z[0]))
    assert field._trace is not None
    with pytest.raises(NumericDomainError, match=r"^log\(-1\.0\): math domain error$"):
        field._gradient([-1.0, 0.0, 0.0, 0.0])
    assert field._gradient([2.0, 0.0, 0.0, 0.0]) == [0.5, 0.0, 0.0, 0.0]


# a polynomial on 2 pairs: 1-6 terms, exponents 0-4, coefficients with signed zeros
polynomial_terms = st.lists(st.tuples(st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0]),
                                      st.tuples(*[st.integers(0, 4)] * 4)),
                            min_size=1, max_size=6)
# custom_dirac_orbit's constraints, q2 - q1 p1 and p2 + q1^2
DIRAC_CONSTRAINTS = (("A", [(1.0, (0, 1, 0, 0)), (-1.0, (1, 0, 1, 0))]),
                     ("B", [(1.0, (0, 0, 0, 1)), (1.0, (2, 0, 0, 0))]))


def polynomial_flow(kind, terms, multiplier):
    """A fresh flow of the kind with the polynomial terms as H or generator."""
    h = polynomial_field(CHART, terms, name="H")
    if kind == "poisson":
        return PoissonFlow(h)
    if kind == "gauge":
        return GaugeFlow(h, multiplier)
    return DiracFlow(h, ConstraintSet(CHART, [polynomial_field(CHART, t, name=name)
                                              for name, t in DIRAC_CONSTRAINTS],
                                      [name for name, _ in DIRAC_CONSTRAINTS]))


def orbit(flow, z, steps=30, dt=0.01):
    """The states of evolve's orbit, or its error and the states of its partial trajectory."""
    try:
        return evolve(PhaseSpacePoint(CHART, z), flow,
                      IntegratorConfig(dt=dt, steps=steps)).states.tobytes()
    except DiracMechError as err:
        partial = getattr(err, "partial_trajectory", None)
        return type(err), str(err), partial and partial.states.tobytes()


@given(st.sampled_from(["poisson", "gauge", "dirac"]), polynomial_terms,
       st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
       st.lists(st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0]), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_a_traced_polynomial_orbit_is_its_called_orbit(kind, terms, multiplier, start):
    q1, p1 = start
    z = [q1, q1 * p1, p1, -(q1 * q1)]  # on the Dirac constraints' surface
    traced, called = (polynomial_flow(kind, terms, multiplier) for _ in range(2))
    assert all(f._trace is not None for f in _kernel_args(traced)[3])
    for field in _kernel_args(called)[3]:
        field.__dict__["_trace"] = None  # withheld: every stage calls the term table
    with np.errstate(all="ignore"):
        assert orbit(traced, z) == orbit(called, z)


def test_an_overflowing_power_in_a_stage_ends_as_the_term_table_does():
    # H = p^2/2 + q p^4 under lambda(t) = t at dt = 5.5: after 4 steps a stage's p^4 overflows,
    # which the written-in code reruns the term table for, as its signed inf
    poly = polynomial_field(ChartSpec(("q", "p")), [(0.5, (0, 2)), (1.0, (1, 4))], name="H")
    calls = []
    field = ScalarField("H", poly.chart, poly.func,
                        grad=lambda z: calls.append(z) or poly.grad(z))
    flow, z = GaugeFlow(field, (0.0, 1.0)), [1.0, 0.5]
    assert field._trace is not None and len(calls) == 1  # the trace's own call
    with np.errstate(all="ignore"):
        written = rows_or_error(_loop(flow), z, 5.5)
        assert len(calls) > 1  # the except path called the term table
        assert written == rows_or_error(call_form(flow), z, 5.5)
    assert written[1] == 4  # step 4 blows up, after four new states
    withheld = GaugeFlow(ScalarField("H", poly.chart, poly.func, grad=poly.grad), (0.0, 1.0))
    withheld.generator.__dict__["_trace"] = None
    errors = []
    for f in (flow, withheld):
        with pytest.raises(NumericDomainError) as err:
            evolve(poly.chart.point(z), f, IntegratorConfig(dt=5.5, steps=10))
        errors.append(str(err.value))
    assert errors[0] == errors[1] == "trajectory blew up at t=27.5 (|z| > 1e+12 or NaN)"

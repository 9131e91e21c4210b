"""One tape per flow: a flow's gradient routes traced together, constants pooled by their bits.

A Dirac loop writes the joint trace of H's and each constraint's gradient into its stages, an
operation that two routes share computed once, and takes a bracket sum whose products read
the same traced values as an earlier sum's from that sum; where the written code raises, it
calls every route and takes every sum. Every such loop gives bitwise the rows of the loop that
calls every route, which shares nothing.
"""

import ast
import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracmech import duals, kernels
from diracmech.constraints import _pairing_multipliers
from diracmech.dynamics import (DiracFlow, IntegratorConfig, PoissonFlow, _generated,
                                _kernel_args, _loop, _traced, evolve)
from diracmech.fields import ScalarField, polynomial_field
from diracmech.models import CustomModel, KlauderModel, KRamp, LatticeMaxwell, RadialPotential
from diracmech.verify import run_suite

from test_constraints import CUSTOM_FOUR
from test_trace import rows_or_error

# constants that coincide with those of the dual pass (0.0, -0.0, 0.5, 1.0, 2.0) or not
constant = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0]) | st.floats(-2.0, 2.0)
klauder_models = st.builds(
    KlauderModel, alpha=st.sampled_from([1.0, math.sqrt(0.5), 2.0]) | st.floats(0.1, 5.0),
    k=st.builds(KRamp, constant, st.sampled_from([0.0]) | st.floats(-1.0, 1.0)),
    potential=st.builds(RadialPotential, st.lists(constant, max_size=4)))
CUSTOM_TWO = CustomModel(labels=("q1", "q2", "p1", "p2"), constraints=(
    ("A", ((1.0, (0, 1, 0, 0)), (-1.0, (1, 0, 1, 0)))),
    ("B", ((1.0, (0, 0, 0, 1)), (1.0, (2, 0, 0, 0))))))


def call_form(flow):
    """The flow's RK4 loop with no trace: every gradient route called, no sum shared."""
    kind, k, args, _ = _kernel_args(flow)
    return _generated(kind, flow.chart.n_pairs, k)(*args)


@st.composite
def custom_starts(draw):
    """(flow, start) of a custom Dirac flow on 2 or 4 constraints: H is drawn polynomial terms,
    with some constraints' own terms added so that its entries meet theirs, and the start is
    on the constraints' surface."""
    model = draw(st.sampled_from([CUSTOM_TWO, CUSTOM_FOUR]))
    dim = model.chart.dim
    terms = draw(st.lists(st.tuples(constant, st.tuples(*[st.integers(0, 3)] * dim)),
                          max_size=4))
    for _, constraint in draw(st.lists(st.sampled_from(model.constraints), max_size=2)):
        terms += list(constraint)
    if model is CUSTOM_TWO:  # q2 = q1 p1 and p2 = -q1^2
        q1, p1 = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
        start = [q1, q1 * p1, p1, -(q1 * q1)]
    else:  # q2 = -q3^2 / 2, q1 = -q2 p3, p1 = 0 and p2 = -q3^2
        q3, p3 = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
        start = [q3 * q3 * p3 / 2, -q3 * q3 / 2, q3, 0.0, -q3 * q3, p3]
    return model.flow("dirac", hamiltonian=terms or [(1.0, (0,) * dim)])[0], start


@st.composite
def klauder_starts(draw):
    model = draw(klauder_models)
    p_phi = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    return model.flow("dirac")[0], model.embed_reduced(draw(st.floats(0.0, 6.0)),
                                                        p_phi).coords.tolist()


@given(klauder_starts() | custom_starts(), st.sampled_from([1e-3, 1e-2, 0.3]))
@settings(max_examples=60, deadline=None)
def test_a_shared_tape_loop_gives_the_rows_of_the_all_call_loop(start, dt):
    flow, z = start
    with np.errstate(all="ignore"):
        assert rows_or_error(_loop(flow), z, dt, 200) == rows_or_error(call_form(flow), z, dt,
                                                                         200)


def test_an_overflowing_power_in_a_shared_entry_takes_the_except_path():
    # dH/dq1 = dB/dq1 = 3 q1^2 is one traced power; at dt = 1e160 the first stage point has
    # q1 near 1e160, whose square overflows there, and the routes give the term table's inf
    chart, calls = CUSTOM_TWO.chart, []
    terms = [(1.0, (0, 0, 0, 1)), (1.0, (3, 0, 0, 0))]
    b = polynomial_field(chart, terms, name="B")
    counted = ScalarField("B", chart, b.func, grad=lambda z: calls.append(z) or b.grad(z))
    cs = type(CUSTOM_TWO.constraint_set)(chart, (CUSTOM_TWO.constraint_set.fields[0], counted),
                                         ("A", "B"))
    flow = DiracFlow(polynomial_field(chart, terms + [(0.5, (0, 0, 2, 0))], name="H"), cs)
    shape = _traced(flow, _kernel_args(flow)[3])[0]
    h_entries, _, b_entries = shape[1]
    assert h_entries[0] == b_entries[0] and "**" in " ".join(shape[0])  # one shared power
    z = [0.5, 0.125, 0.25, -0.125]
    with np.errstate(all="ignore"):
        calls.clear()
        shared = rows_or_error(_loop(flow), z, 1e160, 3)
        assert calls  # the except path called the term table
        assert shared == rows_or_error(call_form(flow), z, 1e160, 3)


def test_the_except_branch_takes_every_sum_from_the_routes():
    # a trace that raises at every stage, whose entries for H and B meet in p (so a_AB = b_A
    # and a_BB = b_B in the try branch), against routes whose B differs from H in p
    trace = (("t0 = c0 / c1",), (("x0", "x1", "x2", "x3"), ("x3", "c0", "x1", "x0"),
                                 ("x1", "x0", "x2", "x3")), 2)
    routes = (lambda z: [z[0], z[1], z[2], z[3]],
              [lambda z: [z[3], 1.0, z[1], z[0]], lambda z: [z[1], z[0], 2.0 * z[2], z[3]]],
              (0.0, 0.0), _pairing_multipliers, 1e-10)
    source = kernels._source("dirac", 2, 2, trace)
    assert "a0_1 = b0" in source and "a1_1 = b1" in source
    z = [0.3, 0.5, 0.7, 0.2]
    written = rows_or_error(_generated("dirac", 2, 2, trace)(*routes, (1.0, 0.0)), z, 1e-3,
                            50)
    assert written == rows_or_error(_generated("dirac", 2, 2)(*routes), z, 1e-3, 50)


def handlers(source):
    """The assignments of each try and of each except handler of the source."""
    tree = ast.parse(source)
    tries = [node for node in ast.walk(tree) if isinstance(node, ast.Try)]
    return ([[ast.unparse(s) for s in t.body] for t in tries],
            [[ast.unparse(s) for s in t.handlers[0].body] for t in tries])


def test_a_klauder_stage_shares_two_sums_and_its_handler_none():
    # dH/dp = dC/dp, so a_chi,C = b_chi and a_C,C = b_C where the trace runs; the handler
    # takes those four sums from the routes, and the other four follow both branches
    flow = KlauderModel(alpha=1.3, k=0.7, potential=RadialPotential.harmonic()).flow("dirac")[0]
    trace = _traced(flow, _kernel_args(flow)[3])
    tries, excepts = handlers(kernels._source("dirac", 2, 2, trace[0]))
    assert len(tries) == 4
    for body, handler in zip(tries, excepts):
        assert body[-4:] == ["b0 = 0.0 + r0_0 * gh_2 + r0_1 * gh_3",
                             "b1 = 0.0 + r1_0 * gh_2 + r1_1 * gh_3", "a0_1 = b0", "a1_1 = b1"]
        assert handler[3:] == ["b0 = 0.0 + r0_0 * gh_2 + r0_1 * gh_3",
                               "a0_1 = 0.0 + r0_0 * r1_2 + r0_1 * r1_3",
                               "b1 = 0.0 + r1_0 * gh_2 + r1_1 * gh_3",
                               "a1_1 = 0.0 + r1_0 * r1_2 + r1_1 * r1_3"]


def operations(shape):
    """The traced operations of a trace's lines and outputs."""
    texts = [line.split(" = ", 1)[1] for line in shape[0]]
    texts += [o for outputs in shape[1] if outputs for o in outputs]
    return sum(isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Call))
               for text in texts for node in ast.walk(ast.parse(text)))


@pytest.mark.parametrize("k", [0.0, KRamp(1.0, 0.5)], ids=["static", "ramped"])
def test_a_klauder_dirac_stage_counts_its_operations_and_constants(k):
    # the benchmark's models: 39 operations and 18 constants on a tape per route
    flow = KlauderModel(alpha=1.0, k=k, potential=RadialPotential.harmonic()).flow("dirac")[0]
    shape = _traced(flow, _kernel_args(flow)[3])[0]
    assert operations(shape) <= 23 and shape[2] <= 7
    assert len(shape[1]) == 3 and all(len(entries) == 4 for entries in shape[1])


@given(klauder_models)
@settings(max_examples=30, deadline=None)
def test_the_klauder_constraints_add_no_operation_to_h(model):
    # H = C + U(r): the dual pass of C and of chi runs nothing that H's does not
    flow = model.flow("dirac")[0]
    shape = _traced(flow, _kernel_args(flow)[3])[0]
    assert operations(shape) == operations(flow.hamiltonian._trace[0])


@pytest.mark.parametrize("spacing", [1.0, 0.7])
def test_the_lattice_stencil_loop_takes_at_most_four_constants(spacing):
    shape = LatticeMaxwell(side=2, spacing=spacing).hamiltonian._trace[0]
    assert shape[2] <= 4 and len(shape[1][0]) == 48


def test_a_verify_pass_compiles_at_most_21_kernels():
    kernels._generated.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        results = run_suite("all")
    assert all(r.passed for r in results)
    assert kernels._generated.cache_info().misses <= 21


def compiled(grad, dim):
    """grad traced alone and compiled as the point API's traced gradient."""
    shape, constants = duals.trace([grad], dim)
    return _generated("gradient", dim // 2, 0, shape)(grad, constants)


@given(st.lists(st.sampled_from([0.0, -0.0]), min_size=4, max_size=4),
       st.lists(st.sampled_from([0.0, -0.0, 1.5]), min_size=4, max_size=4))
def test_constants_keep_the_sign_of_zero(constants, z):
    def grad(w, c=constants):
        return [w[0] + c[0], w[1] + c[1], (w[2] + c[2]) * c[3], w[3] - c[3]]

    assert repr(compiled(grad, 4)(z)) == repr(grad(z))


def test_each_route_has_its_outputs_and_a_shared_entry_one_name():
    def h(z):
        return [z[0] * z[1], z[0] * z[1], 2.0, z[3] / z[2]]

    def c(z):
        return [z[0] * z[1], 0.5, 2.0, z[2] + z[3]]

    def refused(z):  # a division, then a value read off as a float: not traced
        return [duals.value(z[1] / z[0] + 1.0)] * 4

    (lines, outputs, count), constants = duals.trace([h, refused, c], 4)
    assert outputs[1] is None and len(outputs) == 3
    assert "x1 / x0" not in " ".join(lines + outputs[0] + outputs[2])  # its operations left
    assert outputs[0][0] == outputs[0][1] == outputs[2][0] == lines[0].split(" = ")[0]
    assert outputs[0][2] == outputs[2][2] and constants.count(2.0) == 1 and count == 2
    assert [len(o) for o in (outputs[0], outputs[2])] == [4, 4]
    assert duals.trace([refused], 4) is None


def test_a_kept_flow_traces_once_and_a_new_hamiltonian_again(monkeypatch):
    model = KlauderModel(alpha=1.3, k=0.7)
    calls, trace = [], duals.trace
    monkeypatch.setattr(duals, "trace", lambda *args: calls.append(args) or trace(*args))
    x0, cfg = model.embed_reduced(0.4, 1.2), IntegratorConfig(dt=1e-3, steps=5)
    for _ in range(2):
        evolve(x0, model.flow("dirac")[0], cfg)
    assert len(calls) == 1 and len(calls[0][0]) == 3  # H, chi and C on one tape
    other = ScalarField("H2", model.polar_chart, lambda z: model.hamiltonian().func(z) + z[1])
    evolve(x0, DiracFlow(other, model.constraint_set), cfg)
    assert len(calls) == 2


def test_a_one_gradient_flow_reads_its_fields_own_trace():
    field = LatticeMaxwell(side=2).hamiltonian
    assert _traced(PoissonFlow(field), (field,)) is field._trace

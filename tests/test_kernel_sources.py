"""The RK4 loops that ``evolve`` builds run their traced gradients written in.

A Klauder Dirac flow, a gauge flow, a particle flight and a custom polynomial flow call no
gradient route in their loop but in the error path, where the route gives its own result
(the dual pass's error, or the term table's signed inf); so does every ``evolve`` scenario. A
registered ``grad`` that computes on arrays is not traced, and its loop calls it at every
stage. A trace hands its constants in as arguments, so models that differ only in their
constants share one loop. A gauge multiplier's Horner steps are written into each stage
time's first stage, with no branch and no loop.
"""

import ast
import json
import pathlib
import re

import pytest

from diracmech import dynamics, kernels
from diracmech.cli import _initial_point, _multiplier, _terms, build_model, load_config
from diracmech.dynamics import IntegratorConfig, PoissonFlow, _generated, evolve
from diracmech.fields import (ScalarField, central_difference_gradient, field_product,
                              polynomial_field)
from diracmech.models import (CustomModel, KlauderModel, KRamp, LatticeMaxwell, RadialPotential,
                              RelativisticParticle)

from conftest import fresh_models

ROUTE = re.compile(r"gradient|grad_h|grad_\d+")


def built_source(monkeypatch, x0, flow):
    """The source of the loop ``evolve`` builds for the flow."""
    built = []

    def generated(*key):
        built.append(key)
        return _generated(*key)

    monkeypatch.setattr(dynamics, "_generated", generated)
    evolve(x0, flow, IntegratorConfig(dt=1e-3, steps=5))
    (key,) = built
    return kernels._source(*key)


def route_calls(source):
    """(calls outside an except clause, calls inside one) of a gradient route."""
    tree = ast.parse(source)
    handled = {id(node) for handler in ast.walk(tree) if isinstance(handler, ast.ExceptHandler)
               for node in ast.walk(handler)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and ROUTE.fullmatch(node.func.id)]
    return ([c for c in calls if id(c) not in handled], [c for c in calls if id(c) in handled])


def klauder(k):
    return KlauderModel(alpha=1.3, k=k, potential=RadialPotential((0.0, 0.0, 0.5)))


PARTICLE = RelativisticParticle(mass=4.0, spatial_dim=3)
FLOWS = {
    "static_dirac": (klauder(1.0).embed_reduced(0.4, -1.5), klauder(1.0).flow("dirac")[0]),
    "ramped_dirac": (klauder(KRamp(1.0, 0.5)).embed_reduced(2.0, 0.8),
                     klauder(KRamp(1.0, 0.5)).flow("dirac")[0]),
    "gauge": (klauder(0.0).cartesian_chart.point([0.6, -0.8, 0.0, 1.0]),
              klauder(0.0).flow("gauge", 1.0)[0]),
    "particle": (PARTICLE.spatial_chart.point([0.5, -1.0, 2.0, -2.5, 0.3, 1.1]),
                 PARTICLE.flow("poisson")[0]),
}


@pytest.mark.parametrize("name", FLOWS)
def test_loop_calls_no_gradient_route_but_on_an_error(monkeypatch, name):
    outside, inside = route_calls(built_source(monkeypatch, *FLOWS[name]))
    assert not outside
    assert len(inside) == 4 * len(dynamics._kernel_args(FLOWS[name][1])[3])  # per stage


def test_custom_polynomial_flow_keeps_its_call(monkeypatch):
    # the term table is written into each stage; its grad is called only on an error
    model = CustomModel(labels=("q", "p"))
    flow, _ = model.flow("poisson", hamiltonian=[(0.5, (2, 0)), (0.5, (0, 2))])
    outside, inside = route_calls(built_source(monkeypatch, model.chart.point([1.0, 0.0]), flow))
    assert not outside and len(inside) == 4


SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
EVOLVE_SCENARIOS = sorted(p.name for p in SCENARIOS.glob("*.json")
                          if "flow" in json.loads(p.read_text()))  # the evolve block


@pytest.mark.parametrize("name", EVOLVE_SCENARIOS)
def test_no_scenario_loop_calls_a_gradient_route_but_on_an_error(monkeypatch, name):
    fresh_models(monkeypatch)  # the scenario's fields traced here, not reused from a kept model
    config = load_config(str(SCENARIOS / name))
    model, flow_cfg = build_model(config, "evolve"), config["flow"]
    terms = flow_cfg.get("hamiltonian")
    flow, _ = model.flow(flow_cfg["kind"], _multiplier(flow_cfg.get("multiplier", 1.0)),
                         None if terms is None else _terms(terms))
    x0 = _initial_point(config.get("initial", {}), model, flow.chart)
    outside, inside = route_calls(built_source(monkeypatch, x0, flow))
    assert not outside
    assert len(inside) == 4 * len(dynamics._kernel_args(flow)[3])


SQUARES = polynomial_field(CustomModel(labels=("q", "p")).chart, [(0.5, (2, 0)), (0.5, (0, 2))])
# fields whose grad computes on arrays, each built when its test runs: none is traced
ARRAY_GRADS = {
    "maxwell_h": lambda: LatticeMaxwell(side=2).hamiltonian,
    "field_product": lambda: field_product(
        SQUARES, polynomial_field(SQUARES.chart, [(1.0, (1, 1))])),
    "central_differences": lambda: ScalarField(
        "fd", SQUARES.chart, SQUARES.func,
        grad=lambda z: central_difference_gradient(SQUARES.func, z).tolist()),
}


@pytest.mark.parametrize("name", ARRAY_GRADS)
def test_an_array_grad_keeps_its_call_at_every_stage(monkeypatch, name):
    field = ARRAY_GRADS[name]()
    assert field._trace is None
    start = field.chart.point([0.01 * (i + 1) for i in range(field.chart.dim)])
    outside, inside = route_calls(built_source(monkeypatch, start, PoissonFlow(field)))
    assert len(outside) == 4 and not inside


def test_models_of_different_alpha_share_one_compiled_loop():
    cfg = IntegratorConfig(dt=1e-3, steps=5)
    runs = [(m.embed_reduced(0.4, 1.2), m.flow("dirac")[0])
            for m in (KlauderModel(alpha=1.3, k=0.7), KlauderModel(alpha=2.1, k=0.7))]
    evolve(*runs[0], cfg)
    before = _generated.cache_info()
    evolve(*runs[1], cfg)
    after = _generated.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


@pytest.mark.parametrize("multiplier", [1.0, (1.0, 0.5, -0.25)], ids=["constant", "cubic"])
def test_gauge_stages_hold_no_branch_and_no_loop(monkeypatch, multiplier):
    x0, flow = FLOWS["gauge"][0], klauder(0.0).flow("gauge", multiplier)[0]
    tree = ast.parse(built_source(monkeypatch, x0, flow))
    (steps,) = [node for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While,
                                                                     ast.comprehension))]
    # the one branch is the bound test on the new state, which the stages come before
    branches = [node for node in ast.walk(tree) if isinstance(node, (ast.If, ast.IfExp))]
    assert branches == [steps.body[-3]]
    horner = [node for node in ast.walk(steps) if isinstance(node, ast.Assign)
              and ast.unparse(node.targets[0]) == "lam"]
    assert len(horner) == 3 * len(flow.multiplier)  # stages 2 and 3 share t_half and its lam


@pytest.mark.parametrize("k", [1, 3])
def test_gauge_loop_is_spelled_out_to_32_pairs_at_any_coefficient_count(k):
    assert "for i in range" not in kernels._source("gauge_run", 32, k)
    assert "for i in range" in kernels._source("gauge_run", 33, k)


def test_the_compiled_kernels_kept_are_bounded():
    # one term q1^a q2^b p1^c p2^d per flow, each exponent 0-3: most build a loop of their own
    kept = kernels._KERNELS_KEPT
    poly = polynomial_field(KlauderModel().cartesian_chart, [(1.0, (0, 0, 0, 0))])
    x0, before = poly.chart.point([0.1, 0.2, 0.3, 0.4]), _generated.cache_info()
    for a in range(1, 2 * kept):
        h = polynomial_field(poly.chart, [(1.0, tuple(a // 4 ** i % 4 for i in range(4)))])
        evolve(x0, PoissonFlow(h), IntegratorConfig(dt=1e-3, steps=1))
    after = _generated.cache_info()
    assert after.misses - before.misses > kept and after.currsize <= kept

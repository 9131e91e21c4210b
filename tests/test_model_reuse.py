"""``cli.build_model`` builds each model once per model block while it is kept: an equal
block gives the identical frozen model, any changed key another, the cache holds the
``_MODELS_KEPT`` most recently used, and a repeated op reuses the model's traces."""

import copy
import json
import pathlib

import pytest

from diracmech import cli, duals
from diracmech.cli import build_model, main

from conftest import fresh_models

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def build(command, block):
    extra = {"integrator": {"dt": 0.1, "steps": 1}} if command == "maxwell" else {}
    return build_model({"model": block, **extra}, command)


# (command, a model block, blocks that each change one key of it)
BLOCKS = {
    "klauder": ("brackets", {"kind": "klauder", "alpha": 1.3, "k": 0.7, "hbar": 1.0,
                             "potential": {"type": "poly", "coeffs": [0.0, 0.5]}},
                [("alpha", 1.4), ("k", [0.7, 0.1]), ("hbar", 2.0),
                 ("potential", {"type": "poly", "coeffs": [0.0, 0.6]}),
                 ("potential", {"type": "poly", "coeffs": [-0.0, 0.5]})]),
    "particle": ("brackets", {"kind": "particle", "mass": 2.0, "spatial_dim": 2},
                 [("mass", 2.5), ("spatial_dim", 3)]),
    "custom": ("brackets", {"kind": "custom", "labels": ["q", "p"], "constraints": [
                   {"name": "C", "terms": [{"coeff": 1.0, "powers": [1, 0]}]}]},
               [("labels", ["x", "p"]),
                ("constraints", [{"name": "D", "terms": [{"coeff": 1.0, "powers": [1, 0]}]}]),
                ("constraints", [{"name": "C", "terms": [{"coeff": 2.0, "powers": [1, 0]}]}]),
                ("constraints", [{"name": "C", "terms": [{"coeff": 1.0, "powers": [0, 1]}]}]),
                ("constraints", [])]),
    "maxwell": ("maxwell", {"kind": "maxwell", "side": 2, "spacing": 1.0},
                [("side", 3), ("spacing", 0.5)]),
}


@pytest.mark.parametrize("kind", BLOCKS)
def test_an_equal_block_gives_the_identical_model_and_a_changed_key_another(kind):
    command, block, changes = BLOCKS[kind]
    model = build(command, block)
    assert build(command, copy.deepcopy(block)) is model
    assert build(command, dict(reversed(block.items()))) is model  # key order is no key
    others = [build(command, {**block, key: value}) for key, value in changes]
    assert all(other is not model for other in others)
    assert len(set(map(id, others))) == len(others)


def test_the_cache_keeps_the_models_last_used(monkeypatch):
    fresh_models(monkeypatch)
    blocks = [{"kind": "particle", "mass": 1.0 + i} for i in range(cli._MODELS_KEPT + 1)]
    models = [build("brackets", block) for block in blocks]
    assert all(build("brackets", block) is model for block, model in zip(blocks[1:], models[1:]))
    rebuilt = build("brackets", blocks[0])  # the least recently used was dropped
    assert rebuilt is not models[0] and rebuilt == models[0]


@pytest.mark.parametrize("scenario, command", [("klauder_brackets", "brackets"),
                                               ("klauder_orbit", "evolve")])
def test_a_repeated_op_makes_no_trace(tmp_path, monkeypatch, scenario, command):
    fresh_models(monkeypatch)
    calls, trace = [], duals.trace
    monkeypatch.setattr(duals, "trace", lambda *args: calls.append(args) or trace(*args))
    counts = []
    for _ in range(2):
        assert main([command, "--config", str(SCENARIOS / f"{scenario}.json"),
                     "--out", str(tmp_path / "out.csv")]) == 0
        counts.append(len(calls))
        calls.clear()
    assert counts[0] > 0 and counts[1] == 0


def test_the_scenario_models_fit_the_cache():
    blocks = {json.dumps(json.loads(path.read_text())["model"], sort_keys=True)
              for path in SCENARIOS.glob("*.json") if path.name != "digests.json"}
    assert len(blocks) <= cli._MODELS_KEPT

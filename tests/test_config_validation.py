"""The scenario validator against jsonschema, which is a test-only oracle."""

import copy
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import extend, validator_for

from diracmech.cli import SCENARIO_SCHEMA, load_config
from diracmech.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = [json.loads(path.read_text()) for path in sorted((ROOT / "scenarios").glob("*.json"))]

_BASE = validator_for(SCENARIO_SCHEMA)
# the CLI's integers are Python ints: 2.0 is not one, as it is in JSON Schema
ORACLE = extend(_BASE, type_checker=_BASE.TYPE_CHECKER.redefine(
    "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))(
    SCENARIO_SCHEMA)

# type swaps, zero, the subnormal and huge extremes, and a float that is integral
REPLACEMENTS = ["x", True, False, None, [], {}, [1.0], {"x": 1}, 0, 0.0, -1, 3, 2.0,
                5e-324, -5e-324, 1e308, -1e308]
KEYS = ["surprise", "kind", "alpha", "steps", "path", "type"]


def oracle_error(config) -> str | None:
    err = best_match(ORACLE.iter_errors(config))
    if err is None:
        return None
    location = "/".join(str(p) for p in err.absolute_path) or "<root>"
    return f"invalid config at {location}: {err.message}"


def nodes(value, path=()):
    yield path, value
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from nodes(child, path + (key,))


def put(config, path, value):
    if not path:
        return value
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return config


@st.composite
def mutated_scenarios(draw):
    """A scenario file with one to three nodes replaced, reversed, lengthened, given
    an unknown key or stripped of one."""
    config = copy.deepcopy(draw(st.sampled_from(SCENARIOS)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(nodes(config))))
        action = draw(st.sampled_from(["replace", "reverse", "extend", "add", "drop"]))
        value = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if action == "reverse" and isinstance(node, list):
            node.reverse()
        elif action == "extend" and isinstance(node, list):
            node.append(value)
        elif action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = value
        elif action == "drop" and isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            config = put(config, path, value)
    return config


def cli_error(config, directory) -> str | None:
    path = os.path.join(directory, "cfg.json")
    with open(path, "w") as handle:
        json.dump(config, handle)
    try:
        load_config(path)
    except ConfigError as err:
        return str(err)
    return None


# a oneOf whose two branches fail alike names the oneOf; otherwise its deeper violation
@example({"model": {"kind": "klauder", "k": "x"}})
@example({"model": {"kind": "klauder", "k": [1, "x"]}})
@example({"model": {"kind": "klauder", "k": [1, 2, 3]}, "samples": {"count": 0}})
@example({"flow": {"kind": "gauge", "multiplier": {"type": "poly"}}})
@example({"quantum": {"times": {"start": 0, "stop": 1, "count": 2.0}}, "surprise": 1})
@example({"model": {"kind": "custom", "constraints": [{"name": 1, "terms": "x"}]}})
@given(mutated_scenarios())
@settings(max_examples=300, deadline=None)
def test_validator_matches_jsonschema_best_match(config):
    with tempfile.TemporaryDirectory() as directory:
        got = cli_error(config, directory)
    assert got == oracle_error(json.loads(json.dumps(config)))


def test_every_scenario_file_is_valid():
    with tempfile.TemporaryDirectory() as directory:
        assert [cli_error(config, directory) for config in SCENARIOS] == [None] * len(SCENARIOS)


def test_cli_cold_import_loads_no_jsonschema():
    code = ("import sys, diracmech.cli; print(sorted(name for name in sys.modules "
            "if name.split('.')[0] in {'jsonschema', 'referencing', 'rpds', 'attrs', 'attr'}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "[]\n"

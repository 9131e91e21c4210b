"""SCENARIO_SCHEMA is the one table of who reads each key. A key that not every scenario
reads carries a rule there: ``"readBy": "<block>/<key>=<value>"`` (read only where that key
holds that value) or ``"readWithout": "<key>"`` (read only where its own block lacks that
key). build_model, the CLI and the README are held to those rules here."""

import contextlib
import copy
import io
import json
import pathlib
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmech import cli
from diracmech.cli import COMMANDS, SCENARIO_SCHEMA, build_model, main
from diracmech.errors import ConfigError

from test_cli import refuse_model_work
from test_scripts import load_runner

ROOT = pathlib.Path(__file__).resolve().parents[1]
RULES = ("readBy", "readWithout")

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0, exclude_min=True, allow_infinity=False) | st.integers(1, 10 ** 6)
NUMBERS = st.lists(FINITE, max_size=4)
PAIR = st.lists(FINITE, min_size=2, max_size=2)
POLY = st.builds(lambda coeffs: {"type": "poly", "coeffs": coeffs}, NUMBERS)
TERMS = st.lists(st.builds(lambda coeff, powers: {"coeff": coeff, "powers": powers},
                           FINITE, st.lists(st.integers(0, 4), max_size=4)), max_size=3)

KLAUDER, PARTICLE, MAXWELL, CUSTOM = (f"model/kind={kind}"
                                      for kind in ("klauder", "particle", "maxwell", "custom"))

# each key that not every scenario reads: a strategy of the values the schema accepts, and
# the rules SCENARIO_SCHEMA gives it; no other key carries a rule
VALUES = {
    "model/alpha": (POSITIVE, {"readBy": KLAUDER}),
    "model/k": (FINITE | PAIR, {"readBy": KLAUDER}),
    "model/hbar": (POSITIVE, {"readBy": KLAUDER}),
    "model/potential": (POLY, {"readBy": KLAUDER}),
    "model/mass": (POSITIVE, {"readBy": PARTICLE}),
    "model/spatial_dim": (st.integers(1, 8), {"readBy": PARTICLE}),
    "model/side": (st.integers(2, 64), {"readBy": MAXWELL}),
    "model/spacing": (POSITIVE, {"readBy": MAXWELL}),
    "model/labels": (st.lists(st.text(max_size=3), max_size=4), {"readBy": CUSTOM}),
    "model/constraints": (st.lists(st.builds(lambda name, terms: {"name": name, "terms": terms},
                                             st.text(max_size=3), TERMS), max_size=2),
                          {"readBy": CUSTOM}),
    "samples/r_range": (PAIR, {"readBy": KLAUDER}),
    "samples/momentum_range": (PAIR, {"readBy": KLAUDER}),
    "flow/hamiltonian": (TERMS, {"readBy": CUSTOM}),
    "flow/multiplier": (FINITE | POLY, {"readBy": "flow/kind=gauge"}),
    "initial/surface": (st.fixed_dictionaries({"p_phi": FINITE}, optional={"phi": FINITE}),
                        {"readBy": KLAUDER, "readWithout": "coords"}),
    "initial/x": (NUMBERS, {"readBy": PARTICLE, "readWithout": "coords"}),
    "initial/p": (NUMBERS, {"readBy": PARTICLE, "readWithout": "coords"}),
    "quantum/single_mode": (st.integers(-5, 5), {"readWithout": "coeffs"}),
}


def key_schemas():
    """(block, key, schema) of every key of a block, in schema order."""
    return [(block, key, schema) for block, sub in SCENARIO_SCHEMA["properties"].items()
            for key, schema in sub.get("properties", {}).items()]


def broken_rule(config: dict) -> str | None:
    """The message of the first rule in schema order that ``config`` breaks, or None."""
    for block, key, schema in key_schemas():
        if key not in config.get(block, {}):
            continue
        if "readBy" in schema:
            path, value = schema["readBy"].split("=")
            where, name = path.split("/")
            if config[where][name] != value:
                return (f"{block}/{key} is read by {value} {where}s only, "
                        f"not by {config[where][name]!r}")
        if schema.get("readWithout") in config[block]:
            return (f"{block}/{key} is read without {block}/{schema['readWithout']} only, "
                    "not with it")
    return None


def scenarios():
    """(name, subcommand, config) of every scenario file."""
    return [(name, command, json.loads((ROOT / "scenarios" / name).read_text()))
            for name, command in load_runner().COMMANDS.items()]


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_an_inserted_key_is_refused_exactly_where_its_rule_fails(data):
    # every key with a rule, in a block its subcommand reads, inserted into every scenario
    # alone and then a drawn few together; no model is built (build_model returns None)
    assert {f"{block}/{key}": {rule: schema[rule] for rule in RULES if rule in schema}
            for block, key, schema in key_schemas() if any(rule in schema for rule in RULES)
            } == {path: rules for path, (_, rules) in VALUES.items()}
    values = {path: data.draw(strategy, label=path) for path, (strategy, _) in VALUES.items()}
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as directory:
        patch.setattr(cli, "_model", lambda key: None)
        refuse_model_work(patch)
        config_path, out = pathlib.Path(directory) / "cfg.json", pathlib.Path(directory) / "out"
        for name, command, scenario in scenarios():
            assert build_model(scenario, command) is None, name
            blocks = (*COMMANDS[command]["needs"], *COMMANDS[command]["reads"])
            readable = [path for path in VALUES if path.split("/")[0] in blocks]
            drawn = data.draw(st.lists(st.sampled_from(readable), unique=True, max_size=4))
            for paths in [*([path] for path in readable), drawn]:
                config = copy.deepcopy(scenario)
                for path in paths:
                    block, key = path.split("/")
                    config.setdefault(block, {}).setdefault(key, values[path])
                message = broken_rule(config)
                if message is None:
                    assert build_model(config, command) is None
                    continue
                with pytest.raises(ConfigError) as raised:
                    build_model(config, command)
                assert str(raised.value) == message
                config_path.write_text(json.dumps(config))
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main([command, "--config", str(config_path), "--out", str(out)])
                assert (code, err.getvalue()) == (2, f"error: {message}\n"), (name, paths)
                assert not out.exists()


def readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n")[1].split("\n## ")[0]


def test_readme_names_the_keys_of_each_model_kind_as_the_schema_does():
    prose = " ".join(readme_section("Command line").split())
    sentence = re.search(r"So is a key that only another model kind reads: (.*?)\. ", prose)[1]
    named = {}
    for clause in sentence.split(";"):
        kind, *keys = re.findall(r"`([^`]+)`", clause)
        for key in keys:
            block, key = key.split(".") if "." in key else (block, key)
            named.setdefault(kind, set()).add(f"{block}/{key}")
    annotated = {}
    for block, key, schema in key_schemas():
        if schema.get("readBy", "").startswith("model/kind="):
            annotated.setdefault(schema["readBy"].split("=")[1], set()).add(f"{block}/{key}")
    assert named == annotated


def test_readme_subcommand_table_is_the_commands_table():
    rows = {}
    for line in readme_section("Command line").splitlines():
        cells = [re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:-1]]
        if len(cells) == 4 and cells[0]:
            (command,), needs, reads, (artifact,) = cells
            rows[command] = (tuple(needs), tuple(reads), artifact)
    assert rows == {command: (spec["needs"], spec["reads"], spec["artifact"])
                    for command, spec in COMMANDS.items()}

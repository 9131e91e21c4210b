#!/usr/bin/env python3
"""Run every scenario in scenarios/ through the CLI and summarize exit codes.

Every ``scenarios/*.json`` needs a COMMANDS entry and every entry a file;
otherwise the script names the file and exits 1 before running anything.

With ``--check DIR``, also write the JSON form of each scenario's run beside its
artifact (``output.path``, under out/, with the suffix ``.json``), compare both
byte for byte with the files of the same names in DIR, and exit 1 on any
difference. For a CSV that differs, the number of differing rows and the max abs
difference of every column that differs are printed too. To capture goldens, run
the script with ``--check`` on a reference checkout (any DIR: the artifacts are
written whatever it holds) and copy its out/ directory.

With ``--digests``, also write each artifact pinned in ``scenarios/digests.json``
(a scenario, its subcommand, a format, the sha256 and the length in bytes) to a
temporary directory, and exit 1 unless its digest and length match the pin.

The CLI runs from this checkout: its ``src/`` comes first on the child's
PYTHONPATH, ahead of any installed copy.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

COMMANDS = {
    "klauder_brackets.json": "brackets",
    "klauder_orbit.json": "evolve",
    "klauder_poisson_orbit.json": "evolve",
    "gauge_orbit.json": "evolve",
    "ramped_k_orbit.json": "evolve",
    "particle_flight.json": "evolve",
    "quantum_sweep.json": "quantum",
    "quantum_ramped_sweep.json": "quantum",
    "maxwell_l2.json": "maxwell",
    "maxwell_l8_random.json": "maxwell",
    "custom_four_orbit.json": "evolve",
    "custom_second_class_brackets.json": "brackets",
    "particle_brackets.json": "brackets",
    "custom_gauge_orbit.json": "evolve",
    "custom_dirac_orbit.json": "evolve",
    "custom_poisson_orbit.json": "evolve",
    "klauder_ramped_brackets.json": "brackets",
    "custom_free_brackets.json": "brackets",
}


# the pinned artifact digests, the one JSON file in scenarios/ that is no scenario
DIGESTS = "digests.json"

# the checkout whose scenarios/ and src/ are run, and under whose out/ they write
ROOT = pathlib.Path(__file__).resolve().parent.parent


def unmatched_scenarios(scenario_dir: pathlib.Path, commands=COMMANDS) -> list[str]:
    """One line per scenario file without a COMMANDS entry, or entry without a file."""
    files = {path.name for path in scenario_dir.glob("*.json")} - {DIGESTS}
    return ([f"{name}: no COMMANDS entry" for name in sorted(files - set(commands))]
            + [f"{name}: COMMANDS entry has no file" for name in commands if name not in files])


def csv_difference(golden: pathlib.Path, artifact: pathlib.Path) -> list[str]:
    """How two CSV files differ: the number of differing rows (a row only one
    file has counts as one), then the max abs difference of each column that
    differs (inf where one cell is NaN, ``text`` where one is not a number)."""
    with open(golden, newline="") as a, open(artifact, newline="") as b:
        old, new = list(csv.reader(a)), list(csv.reader(b))
    header = old[0] if old else []
    rows, worst = abs(len(old) - len(new)), {}
    for x, y in zip(old, new):
        if x == y:
            continue
        rows += 1
        for j, (u, v) in enumerate(zip(x, y)):
            if u == v:
                continue
            name = header[j] if j < len(header) else f"column {j + 1}"
            try:
                diff = abs(float(u) - float(v))
            except ValueError:
                worst[name] = "text"
                continue
            if worst.get(name) != "text":
                worst[name] = max(worst.get(name, 0.0), math.inf if math.isnan(diff) else diff)
    lines = [f"{rows} of {max(len(old), len(new))} rows differ"]
    if len(old) != len(new):
        lines[0] += f" ({len(old)} golden, {len(new)} written)"
    lines += [f"max |diff| {name}: {value if value == 'text' else f'{value:.3e}'}"
              for name, value in worst.items()]
    return lines


def golden_status(golden_dir: pathlib.Path, artifact: pathlib.Path) -> tuple[str, list[str]]:
    """``ok``, or how the artifact differs from the file of its name in the golden
    directory, with the rows and columns of a CSV that differs (see csv_difference)."""
    golden = golden_dir / artifact.name
    if not golden.is_file():
        return f"no golden {golden}", []
    if golden.read_bytes() == artifact.read_bytes():
        return "ok", []
    return (f"differs from {golden}",
            csv_difference(golden, artifact) if artifact.suffix == ".csv" else [])


def digest_statuses(scenario_dir: pathlib.Path, root: pathlib.Path, env: dict) -> list[tuple]:
    """(subcommand, artifact, status) per artifact pinned in the digests file, written to a
    temporary directory: ``ok``, the exit code, or the sha256 and length that differ."""
    statuses = []
    for pin in json.loads((scenario_dir / DIGESTS).read_text()):
        name = f"{pin['scenario']}.{pin['format']}"
        with tempfile.TemporaryDirectory() as directory:
            out = pathlib.Path(directory) / name
            result = subprocess.run(
                [sys.executable, "-m", "diracmech", pin["command"], "--config",
                 str(scenario_dir / f"{pin['scenario']}.json"), "--out", str(out),
                 "--format", pin["format"]], capture_output=True, text=True, cwd=root, env=env)
            data = out.read_bytes() if result.returncode == 0 else b""
        found = (hashlib.sha256(data).hexdigest(), len(data))
        if result.returncode != 0:
            status = f"exit {result.returncode}"
        elif found == (pin["sha256"], pin["bytes"]):
            status = "ok"
        else:
            status = (f"sha256 {found[0]} of {found[1]} bytes, "
                      f"pinned {pin['sha256']} of {pin['bytes']}")
        statuses.append((pin["command"], name, status))
    return statuses


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="DIR", type=pathlib.Path,
                        help="golden directory to compare the written artifacts against")
    parser.add_argument("--digests", action="store_true",
                        help=f"check the artifacts pinned in scenarios/{DIGESTS}")
    args = parser.parse_args(argv)
    scenario_dir = ROOT / "scenarios"
    unmatched = unmatched_scenarios(scenario_dir)
    for line in unmatched:
        print(f"scenarios/{line}", file=sys.stderr)
    if unmatched:
        return 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    # a pinned artifact is named as its scenario, with .json or the shorter .csv
    failures, width = 0, max(map(len, COMMANDS))
    for name, command in COMMANDS.items():
        config = scenario_dir / name
        argv = [sys.executable, "-m", "diracmech", command, "--config", str(config)]
        result = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, env=env)
        status = "ok" if result.returncode == 0 else f"exit {result.returncode}"
        detail = []
        if result.returncode == 0 and args.check is not None:
            artifact = ROOT / json.loads(config.read_text())["output"]["path"]
            status, detail = golden_status(args.check, artifact)
            json_form = artifact.with_suffix(".json")
            result = subprocess.run([*argv, "--out", str(json_form), "--format", "json"],
                                    capture_output=True, text=True, cwd=ROOT, env=env)
            json_status = (golden_status(args.check, json_form)[0] if result.returncode == 0
                           else f"json exit {result.returncode}")
            if json_status != "ok":
                status = json_status if status == "ok" else f"{status}; {json_status}"
        print(f"{command:10} {name:{width}} {status}")
        for line in detail:
            print(f"{'':10} {line}")
        if status != "ok":
            failures += 1
            sys.stderr.write(result.stderr)
    if args.digests:
        for command, name, status in digest_statuses(scenario_dir, ROOT, env):
            print(f"{command:10} {name:{width}} {status}")
            failures += status != "ok"
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

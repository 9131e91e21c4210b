#!/usr/bin/env python3
"""Run every scenario in scenarios/ through the CLI and summarize exit codes.

With ``--check DIR``, also compare each artifact a scenario writes (its
``output.path``, under out/) byte for byte with the file of the same name in
DIR, and exit 1 on any difference. For a CSV that differs, the number of
differing rows and the max abs difference of every column that differs are
printed too. To capture goldens, run the script on a reference checkout and
copy its out/ directory.
"""

import argparse
import csv
import json
import math
import pathlib
import subprocess
import sys

COMMANDS = {
    "klauder_brackets.json": "brackets",
    "klauder_orbit.json": "evolve",
    "gauge_orbit.json": "evolve",
    "ramped_k_orbit.json": "evolve",
    "particle_flight.json": "evolve",
    "quantum_sweep.json": "quantum",
    "quantum_ramped_sweep.json": "quantum",
    "maxwell_l2.json": "maxwell",
    "maxwell_l8_random.json": "maxwell",
}


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="DIR", type=pathlib.Path,
                        help="golden directory to compare the written artifacts against")
    args = parser.parse_args(argv)
    root = pathlib.Path(__file__).resolve().parent.parent
    scenario_dir = root / "scenarios"
    failures = 0
    for name, command in COMMANDS.items():
        config = scenario_dir / name
        result = subprocess.run(
            [sys.executable, "-m", "diracmech", command, "--config", str(config)],
            capture_output=True, text=True, cwd=root)
        status = "ok" if result.returncode == 0 else f"exit {result.returncode}"
        detail = []
        if result.returncode == 0 and args.check is not None:
            artifact = root / json.loads(config.read_text())["output"]["path"]
            golden = args.check / artifact.name
            if not golden.is_file():
                status = f"no golden {golden}"
            elif golden.read_bytes() != artifact.read_bytes():
                status = f"differs from {golden}"
                if artifact.suffix == ".csv":
                    detail = csv_difference(golden, artifact)
        print(f"{command:10} {name:28} {status}")
        for line in detail:
            print(f"{'':10} {line}")
        if status != "ok":
            failures += 1
            sys.stderr.write(result.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

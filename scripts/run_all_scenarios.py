#!/usr/bin/env python3
"""Run every scenario in scenarios/ through the CLI and summarize exit codes.

With ``--check DIR``, also compare each artifact a scenario writes (its
``output.path``, under out/) byte for byte with the file of the same name in
DIR, and exit 1 on any difference. To capture goldens, run the script on a
reference checkout and copy its out/ directory.
"""

import argparse
import json
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
        if result.returncode == 0 and args.check is not None:
            artifact = root / json.loads(config.read_text())["output"]["path"]
            golden = args.check / artifact.name
            if not golden.is_file():
                status = f"no golden {golden}"
            elif golden.read_bytes() != artifact.read_bytes():
                status = f"differs from {golden}"
        print(f"{command:10} {name:28} {status}")
        if status != "ok":
            failures += 1
            sys.stderr.write(result.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

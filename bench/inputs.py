"""Seeded input generator: one scenario per op, shaped after ``scenarios/*.json``.

Every op of a workload gets its own scenario, drawn from a PCG64 stream keyed
by (workload, seed). The same seed therefore yields the same sequence of
scenario files, and the program under test only ever sees those files.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

# Op kinds of each CLI workload, in the order a cycle runs them. A cycle is
# the workload's repeating unit: one op of each kind. (verify_all needs no
# scenario files: its cycle is one run_suite('all', seed) pass.)
KINDS = {
    "bracket_table": ("klauder_table", "particle_table"),
    "dirac_orbit": ("static_orbit", "ramped_orbit", "gauge_orbit", "particle_flight"),
    "lattice_maxwell": ("maxwell_l2", "maxwell_l8"),
}

COMMAND = {
    "klauder_table": "brackets",
    "particle_table": "brackets",
    "static_orbit": "evolve",
    "ramped_orbit": "evolve",
    "gauge_orbit": "evolve",
    "particle_flight": "evolve",
    "maxwell_l2": "maxwell",
    "maxwell_l8": "maxwell",
}

HARMONIC = {"type": "poly", "coeffs": [0.0, 0.0, 0.5]}


def stream(workload: str, seed: int) -> np.random.Generator:
    """The workload's input stream; distinct workloads never share draws."""
    key = zlib.crc32(workload.encode())
    return np.random.default_rng([int(seed), key])


def _fresh_seed(rng) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _angular_momentum(rng) -> float:
    # |p_phi| >= 0.5 keeps the k = 0 reduced radius away from the excluded origin
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))


def scenario(kind: str, rng: np.random.Generator) -> dict:
    """One op's scenario, written to ``out/<kind>.csv``."""
    output = {"path": f"out/{kind}.csv", "format": "csv"}
    if kind == "klauder_table":
        return {"seed": _fresh_seed(rng),
                "model": {"kind": "klauder", "alpha": 1.0, "k": 1.0},
                "samples": {"count": 200, "r_range": [0.1, 5.0],
                            "momentum_range": [-5.0, 5.0]},
                "output": output}
    if kind == "particle_table":
        return {"seed": _fresh_seed(rng),
                "model": {"kind": "particle", "mass": 2.0, "spatial_dim": 3},
                "samples": {"count": 50},
                "output": output}
    if kind == "static_orbit":
        return {"model": {"kind": "klauder", "alpha": 1.0, "k": 0.0, "potential": HARMONIC},
                "flow": {"kind": "dirac"},
                "integrator": {"dt": 0.001, "steps": 1000},
                "initial": {"surface": {"phi": float(rng.uniform(0.0, 2.0 * np.pi)),
                                        "p_phi": _angular_momentum(rng)}},
                "output": output}
    if kind == "ramped_orbit":
        return {"model": {"kind": "klauder", "alpha": 1.0, "k": [1.0, 0.5],
                          "potential": HARMONIC},
                "flow": {"kind": "dirac"},
                "integrator": {"dt": 0.001, "steps": 1000},
                "initial": {"surface": {"phi": float(rng.uniform(0.0, 2.0 * np.pi)),
                                        "p_phi": _angular_momentum(rng)}},
                "output": output}
    if kind == "gauge_orbit":
        # a point on the generator's zero set |p| = alpha |q|, as in the gauge scenario
        q = rng.uniform(-1.5, 1.5, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p = float(np.hypot(*q)) * np.array([np.cos(theta), np.sin(theta)])
        return {"model": {"kind": "klauder", "alpha": 1.0, "k": 0.0},
                "flow": {"kind": "gauge", "multiplier": 1.0},
                "integrator": {"dt": 0.001, "steps": 1000},
                "initial": {"coords": [*map(float, q), *map(float, p)]},
                "output": output}
    if kind == "particle_flight":
        return {"model": {"kind": "particle", "mass": 4.0, "spatial_dim": 3},
                "flow": {"kind": "poisson"},
                "integrator": {"dt": 0.01, "steps": 1000},
                "initial": {"x": [float(v) for v in rng.uniform(-3.0, 3.0, 3)],
                            "p": [float(v) for v in rng.uniform(-3.0, 3.0, 3)]},
                "output": output}
    if kind == "maxwell_l2":
        return {"seed": _fresh_seed(rng),
                "model": {"kind": "maxwell", "side": 2, "spacing": 1.0},
                "integrator": {"dt": 0.001, "steps": 1000},
                "maxwell": {"initial": "lowest_mode", "e_scale": float(rng.uniform(0.1, 0.5))},
                "output": output}
    if kind == "maxwell_l8":
        return {"seed": _fresh_seed(rng),
                "model": {"kind": "maxwell", "side": 8, "spacing": 1.0},
                "integrator": {"dt": 0.001, "steps": 100},
                "maxwell": {"initial": "random", "e_scale": float(rng.uniform(0.1, 0.5))},
                "output": output}
    raise ValueError(f"unknown op kind {kind!r}")


def write_scenario(workdir: Path, kind: str, config: dict) -> Path:
    path = workdir / f"{kind}.json"
    path.write_text(json.dumps(config, indent=1) + "\n")
    return path

"""Untimed diagnostics: computed kernel counts and physics health margins.

Nothing here is gated. The kernel counts are computed from array shapes
(textbook dense-kernel operation counts, every operand read and written once,
caches ignored), not measured. The health margins are measured from outside
the program, on the artifacts it wrote, through its public functions.
"""

from __future__ import annotations

import numpy as np

from diracmech.constraints import constraint_matrix, degeneracy_scale, pairing_det
from diracmech.dynamics import Trajectory, constraint_drift

import oracles

F64 = 8  # bytes


def laplacian_counts(side: int) -> dict:
    """One ``vector_laplacian`` apply on n = 3 L^3 components.

    -6 v (n mul), per axis two rolls and two adds (2n flops), then / a^2 (n);
    bytes: the scale and the divide read and write n each, and per axis each
    roll reads and writes n, the pair sum reads 2n and writes n, and the
    accumulate reads 2n and writes n.
    """
    n = 3 * side ** 3
    flops = n + 3 * 2 * n + n
    words = 2 * n + 3 * (2 * 2 * n + 3 * n + 3 * n) + 2 * n
    return {"label": "computed", "components": n, "flops": flops, "bytes": words * F64}


def projector_counts(side: int) -> dict:
    """One ``transverse_projector`` build with D (3v x v) and K = D^T D cached, v = L^3.

    pinv(K, hermitian) as a symmetric eigendecomposition (~9 v^3) and the
    product V diag V^T (2 v^3); D @ K+ (6 v^3); (D K+) @ D^T (18 v^3); I - ... (9 v^2).
    """
    v = side ** 3
    flops = 9 * v ** 3 + 2 * v ** 3 + 6 * v ** 3 + 18 * v ** 3 + 9 * v ** 2
    # eigh in/out, pinv product, D@K+ (read 4v^2, write 3v^2), @D^T (read 6v^2,
    # write 9v^2), identity (9v^2), subtraction (read 18v^2, write 9v^2)
    words = 2 * v ** 2 + 3 * v ** 2 + 7 * v ** 2 + 15 * v ** 2 + 9 * v ** 2 + 27 * v ** 2
    return {"label": "computed", "matrix_side": 3 * v, "flops": flops, "bytes": words * F64}


def kernel_counts() -> dict:
    return {f"L{side}": {"vector_laplacian": laplacian_counts(side),
                         "transverse_projector": projector_counts(side)}
            for side in (2, 8)}


def dirac_orbit_margins(config, path, stride: int = 10) -> dict:
    """Smallest pairing |det|/scale along a Dirac orbit, and its largest constraint drift."""
    model = oracles.klauder_model(config)
    cs = model.constraint_set
    _, body, _ = oracles.read_table(path)
    data = np.array(body, dtype=float)
    times, states = data[:, 0], data[:, 1:5]
    det_min = margin = np.inf
    for state in states[::stride]:
        m = constraint_matrix(cs, model.polar_chart.point(state))
        det = abs(pairing_det(m))
        det_min = min(det_min, det)
        margin = min(margin, det / degeneracy_scale(m))
    drift = constraint_drift(Trajectory(chart=model.polar_chart, times=times, states=states), cs)
    return {"pairing_det_min": float(det_min), "pairing_det_over_scale_min": float(margin),
            "constraint_drift_max": max(stats.max_residual for stats in drift.values())}


def maxwell_margins(path) -> dict:
    _, body, _ = oracles.read_table(path)
    return {"energy_drift_max": oracles.maxwell_energy_drift(np.array(body, dtype=float))}


def margins(kind, config, path):
    """Health margins of one op, or None for kinds that have none."""
    if kind in ("static_orbit", "ramped_orbit"):
        return dirac_orbit_margins(config, path)
    if kind in ("maxwell_l2", "maxwell_l8"):
        return maxwell_margins(path)
    return None

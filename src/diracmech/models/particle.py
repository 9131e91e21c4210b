"""Free relativistic point particle in d+1 dimensions.

Full chart (x0..xd, p0..pd) with the mass-shell constraint
C = (1/2)(p0^2 - p.p - m^2) and the time gauge chi = x0 - tau. The pair is
Second Class on-shell ({chi, C} = p0 = sqrt(p.p + m^2) on the positive-energy
branch), the spatial pairs stay canonical under the Dirac bracket, and the
emergent Hamiltonian sqrt(p.p + m^2) drives straight-line motion

    x^i(tau) = x^i(0) + p^i tau / sqrt(p.p + m^2).

C, chi and the emergent Hamiltonian register closed-form gradients, written
on floats in the operation order of their dual pass: they equal the dual
gradient under ==, so the particle flight never runs the dual engine, and
the dual route stays the oracle the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .. import duals
from ..constraints import ConstraintSet, _stacked, dirac_tensor, pairing_matrix_of_rows
from ..dynamics import PoissonFlow
from ..errors import NumericDomainError, UsageError
from ..fields import ScalarField, coordinate_field
from ..phase import ChartSpec, PhaseSpacePoint


@dataclass(frozen=True)
class RelativisticParticle:
    mass: float
    spatial_dim: int = 3

    def __post_init__(self):
        if self.mass <= 0:
            raise UsageError("mass must be positive")
        if self.spatial_dim < 1:
            raise UsageError("need at least one spatial dimension")
        object.__setattr__(self, "mass", float(self.mass))
        if not math.isfinite(self.mass * self.mass):
            raise UsageError(f"mass^2 is not finite for mass = {self.mass!r}")

    @cached_property
    def full_chart(self) -> ChartSpec:
        d = self.spatial_dim
        labels = tuple(f"x{i}" for i in range(d + 1)) + tuple(f"p{i}" for i in range(d + 1))
        return ChartSpec(labels=labels, name="minkowski")

    @cached_property
    def spatial_chart(self) -> ChartSpec:
        d = self.spatial_dim
        labels = tuple(f"x{i}" for i in range(1, d + 1)) + tuple(f"p{i}" for i in range(1, d + 1))
        return ChartSpec(labels=labels, name="spatial")

    @cached_property
    def mass_shell(self) -> ScalarField:
        d, m2 = self.spatial_dim, self.mass ** 2

        def func(z, d=d, m2=m2):
            p0 = z[d + 1]
            total = p0 * p0 - m2
            for i in range(1, d + 1):
                total = total - z[d + 1 + i] * z[d + 1 + i]
            return 0.5 * total

        def grad(z, d=d):
            momenta = z[d + 1:]
            p0 = momenta[0]
            return ([0.0] * (d + 1) + [0.5 * (p0 + p0)]
                    + [0.5 * (0.0 - (p + p)) for p in momenta[1:]])

        return ScalarField("C", self.full_chart, func, grad)

    def time_gauge(self, tau: float = 0.0) -> ScalarField:
        x0 = coordinate_field(self.full_chart, "x0")
        return ScalarField("chi", self.full_chart, lambda z, tau=float(tau): z[0] - tau, x0.grad)

    # a bracket table reads one set per point, all at tau = 0: built once, with its tensor
    @lru_cache(maxsize=16)
    def constraint_set(self, tau: float = 0.0) -> ConstraintSet:
        return ConstraintSet(chart=self.full_chart,
                             fields=(self.time_gauge(tau), self.mass_shell),
                             names=("chi", "C"))

    def energy(self, p_spatial) -> float:
        # p.p on Python floats in index order from +0.0: a BLAS dot sums in the kernel's order
        total = 0.0
        for v in np.asarray(p_spatial, dtype=float).tolist():
            total += v * v
        return math.sqrt(total + self.mass ** 2)

    @cached_property
    def physical_hamiltonian(self) -> ScalarField:
        """sqrt(p.p + m^2) on the reduced spatial chart."""
        d, m2 = self.spatial_dim, self.mass ** 2

        def func(z, d=d, m2=m2):
            total = m2
            for i in range(d):
                total = total + z[d + i] * z[d + i]
            # np.sqrt on a block of states rounds correctly, as math.sqrt does on a float
            return np.sqrt(total) if isinstance(total, np.ndarray) else duals.sqrt(total)

        def grad(z, d=d, m2=m2):
            momenta = z[d:]
            total = m2
            for p in momenta:
                total = p * p + total
            energy = duals.sqrt(total)
            if energy == 0.0:  # m^2 underflowed and p = 0: the dual tangent divides by it
                raise NumericDomainError(f"sqrt({total!r}): float division by zero")
            scale = 0.5 / energy
            return [0.0] * d + [scale * (p + p) for p in momenta]

        return ScalarField("H_phys", self.spatial_chart, func, grad)

    def trajectory(self, x0, p, tau):
        """Closed-form x(tau) = x(0) + p tau / sqrt(p.p + m^2)."""
        x0 = np.asarray(x0, dtype=float)
        p = np.asarray(p, dtype=float)
        if x0.shape != (self.spatial_dim,) or p.shape != (self.spatial_dim,):
            raise UsageError(f"expected {self.spatial_dim}-vectors")
        return x0 + p * (float(tau) / self.energy(p))

    def on_shell_point(self, x_spatial, p_spatial) -> PhaseSpacePoint:
        """Positive-energy point with x0 = 0, p0 = +sqrt(p.p + m^2): a batch of one."""
        return self._on_shell(np.concatenate([x_spatial, p_spatial]).reshape(1, -1))[0]

    def sample_on_shell(self, rng: np.random.Generator, n: int) -> PhaseSpacePoint:
        # rows (x, p) in one draw: bitwise the per-point draws, and the same state after them
        return self._on_shell(rng.uniform(-5.0, 5.0, (n, 2 * self.spatial_dim)))

    def _on_shell(self, xp: np.ndarray) -> PhaseSpacePoint:
        # rows (0, x, p0, p) for rows (x, p), p.p summed over the p columns as energy sums it
        d, total = self.spatial_dim, 0.0
        for p in xp[:, d:].T:
            total += p * p
        return PhaseSpacePoint(self.full_chart, np.column_stack(
            (np.zeros(len(xp)), xp[:, :d], np.sqrt(total + self.mass ** 2), xp[:, d:])))

    # -- model interface (see diracmech.models) ------------------------------
    @property
    def bracket_chart(self) -> ChartSpec:
        return self.full_chart

    @cached_property
    def bracket_pairs(self) -> tuple[tuple[str, str], ...]:
        d = self.spatial_dim
        return tuple((f"x{i}", f"p{j}") for i in range(d + 1) for j in range(d + 1))

    def sample(self, rng: np.random.Generator, count: int, **_) -> PhaseSpacePoint:
        return self.sample_on_shell(rng, count)

    def constraints_at(self, x) -> ConstraintSet:
        # the time gauge through x0 of a point or a batch's first row (D is the same at any tau)
        return self.constraint_set(tau=float(np.ravel(x.columns[0])[0]))

    def dirac_oracle(self, pair: tuple[str, str], x):
        """Closed-form on-shell Dirac brackets: time is frozen, spatial pairs canonical; at a
        point, or at every row of a batch (a column, or one float for every row)."""
        a, b = pair
        if a == "x0":
            return 0.0
        if b == "p0":  # {x^i, p_0}_D = p_i / p_0
            z, d = x.columns, self.spatial_dim
            return z[d + 1 + int(a[1:])] / z[d + 1]
        return 1.0 if a[1:] == b[1:] else 0.0

    def flow(self, kind: str, multiplier=1.0, hamiltonian=None):
        """(flow, monitor) on the reduced spatial chart."""
        if kind != "poisson":
            raise UsageError("particle scenarios evolve under the physical Hamiltonian "
                             "(flow kind 'poisson')")
        return PoissonFlow(self.physical_hamiltonian), None

    def initial_point(self, x=None, p=None, **_) -> Optional[PhaseSpacePoint]:
        if x is None or p is None:
            return None
        return self.spatial_chart.point(list(x) + list(p))

    def bracket_report(self, samples: PhaseSpacePoint) -> dict[str, float]:
        """Worst-case deviations of the on-shell bracket structure over a batch of samples.

        pairing: {chi, C} vs p0;   xp: {x^i, p_j}_D vs delta_ij;
        xx, pp: spatial Dirac brackets that must vanish.
        """
        # the time gauge through each sample's own x0 holds there: only C is checked
        ConstraintSet(self.full_chart, (self.mass_shell,), ("C",)).require_on_surface(
            samples.coords, "off-shell sample (use on_shell_point)")
        d, cs, z = self.spatial_dim, self.constraint_set(), samples.columns  # D at any tau
        dirac = _stacked(dirac_tensor(cs, samples), z[0])  # (n, dim, dim)
        pairing = pairing_matrix_of_rows(cs.gradient_rows(z), d + 1)[0][1]  # {chi, C}
        worst = [np.subtract(pairing, z[d + 1]), dirac[:, 1:d + 1, d + 2:] - np.eye(d),
                 dirac[:, 1:d + 1, 1:d + 1], dirac[:, d + 2:, d + 2:]]  # x^i: 1..d, p_i: d+2..
        return {name: float(np.max(np.abs(block), initial=0.0))
                for name, block in zip(("pairing", "xp", "xx", "pp"), worst)}

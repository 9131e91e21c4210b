"""Planar toy model with an inverted-spring constraint and a radial gauge.

Polar chart (r, phi, p_r, p_phi), r > 0. The constraint and auxiliary
condition are

    C   = (1/2)(p_r^2 + p_phi^2/r^2 - alpha^2 r^2),
    chi = r p_r - k,

a Second Class pair away from the origin: {chi, C} = p_r^2 + p_phi^2/r^2
+ alpha^2 r^2 > 0. Solving both pins the radial pair to

    r* = ((k^2 + p_phi^2)/alpha^2)^(1/4),   p_r* = k/r*,

leaving (phi, p_phi) as the canonical reduced phase space. A physical
Hamiltonian C + U(r) then drives circular orbits: r, p_r, p_phi stay fixed
and phi advances at the constant rate p_phi U'(r*) / (2 alpha^2 r*^3).

The same system in Cartesian coordinates (q1, q2, p1, p2) carries the First
Class generator (1/2)(p.p - alpha^2 q.q), whose orbit is the cosh/sinh map in
:func:`diracmech.dynamics.gauge_orbit_closed_form`.

No field registers a ``grad``: C, chi, C + U and the Cartesian generator take their
``func``'s dual pass, traced once into straight-line float code that the RK4 loops
write into their stages (see :mod:`diracmech.fields`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .. import duals
from ..constraints import ConstraintSet, KRamp, SurfaceParametrization
from ..dynamics import DiracFlow, GaugeFlow, PoissonFlow
from ..errors import NumericDomainError, UsageError
from ..fields import ScalarField
from ..phase import ChartSpec, PhaseSpacePoint

R_MIN = 1e-12  # chart exclusion; the origin is not part of the phase space
R_SAMPLE_FLOOR = 0.05


@dataclass(frozen=True)
class RadialPotential:
    """Polynomial potential U(r) = sum_i coeffs[i] * r^i."""

    coeffs: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @classmethod
    def zero(cls) -> "RadialPotential":
        return cls(())

    @classmethod
    def harmonic(cls) -> "RadialPotential":
        return cls((0.0, 0.0, 0.5))

    def __call__(self, r):
        total = 0.0
        for c in reversed(self.coeffs):  # Horner, dual-capable
            total = total * r + c
        return total

    def derivative(self, r):
        total = 0.0
        n = len(self.coeffs)
        for i in range(n - 1, 0, -1):
            total = total * r + i * self.coeffs[i]
        return total


@dataclass(frozen=True)
class KlauderModel:
    alpha: float = 1.0
    k: KRamp = KRamp(1.0)  # a number k is the constant ramp KRamp(k)
    hbar: float = 1.0
    potential: RadialPotential = RadialPotential.zero()

    def __post_init__(self):
        if self.alpha <= 0:
            raise UsageError("alpha must be positive")
        if self.hbar <= 0:
            raise UsageError("hbar must be positive")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "hbar", float(self.hbar))
        if not 0.0 < self.alpha * self.alpha < math.inf:
            raise UsageError(
                f"alpha^2 is not finite or underflows to 0 for alpha = {self.alpha!r}")
        if not isinstance(self.potential, RadialPotential):
            object.__setattr__(self, "potential", RadialPotential(tuple(self.potential)))
        if not isinstance(self.k, KRamp):
            object.__setattr__(self, "k", KRamp(float(self.k)))

    # -- gauge parameter ---------------------------------------------------
    @property
    def time_dependent(self) -> bool:
        return self.k.k1 != 0.0

    # -- charts and fields ---------------------------------------------------
    @cached_property
    def polar_chart(self) -> ChartSpec:
        return ChartSpec(labels=("r", "phi", "p_r", "p_phi"), name="polar",
                         domain=lambda z: z[0] > R_MIN,
                         domain_description=f"r > {R_MIN:g}")

    @cached_property
    def cartesian_chart(self) -> ChartSpec:
        return ChartSpec(labels=("q1", "q2", "p1", "p2"), name="cartesian")

    @cached_property
    def constraint(self) -> ScalarField:
        def func(z, alpha2=self.alpha ** 2):
            r, p_r, p_phi = z[0], z[2], z[3]
            return 0.5 * (p_r * p_r + (p_phi * p_phi) / (r * r) - alpha2 * (r * r))

        return ScalarField("C", self.polar_chart, func)

    @cached_property
    def gauge_condition(self) -> ScalarField:
        return ScalarField("chi", self.polar_chart, lambda z, k0=self.k(0.0): z[0] * z[2] - k0)

    @cached_property
    def constraint_set(self) -> ConstraintSet:
        # chi(z, t) = r p_r - k0 + (k0 - k(t)) = r p_r - k(t)
        return ConstraintSet(chart=self.polar_chart,
                             fields=(self.gauge_condition, self.constraint), names=("chi", "C"),
                             time_ramps=(self.k, None) if self.time_dependent else None)

    def hamiltonian(self) -> ScalarField:
        """Physical Hamiltonian C + U(r) = (1/2)alpha^2 r^2 + (U(r) - alpha^2 r^2) on-surface:
        one field per model, so every flow of the model reuses its trace."""
        return self._hamiltonian

    @cached_property
    def _hamiltonian(self) -> ScalarField:
        u, c = self.potential, self.constraint

        def func(z, c=c, u=u):
            return c.func(z) + u(z[0])

        return ScalarField("H_phys", self.polar_chart, func)

    @cached_property
    def cartesian_generator(self) -> ScalarField:
        """First Class generator (1/2)(p.p - alpha^2 q.q) in Cartesian coordinates."""
        def func(z, alpha2=self.alpha ** 2):
            return 0.5 * (z[2] * z[2] + z[3] * z[3] - alpha2 * (z[0] * z[0] + z[1] * z[1]))

        return ScalarField("C_cartesian", self.cartesian_chart, func)

    # -- reduced phase space -------------------------------------------------
    def reduced_radius(self, p_phi):
        """r* = ((k(0)^2 + p_phi^2)/alpha^2)^(1/4); dual-capable for embeddings.

        An array of p_phi takes libm's pow entry by entry, as a float does; numpy's
        vectorised pow may round the last bit differently.
        """
        if isinstance(p_phi, np.ndarray):
            return np.array([self.reduced_radius(p) for p in p_phi.tolist()])
        k = self.k(0.0)
        value = (k * k + p_phi * p_phi) / (self.alpha ** 2)
        if duals.value(value) <= 0.0:
            raise NumericDomainError(
                "reduced radius degenerates at (k, p_phi) = (0, 0); origin excluded")
        return value ** 0.25

    def reduced_point(self, p_phi: float) -> tuple[float, float]:
        """On-surface radial pair (r*, p_r*) at t = 0 for given angular momentum."""
        r_star = float(self.reduced_radius(p_phi))
        return r_star, self.k(0.0) / r_star

    def embed_reduced(self, phi: float, p_phi: float) -> PhaseSpacePoint:
        r_star, p_r_star = self.reduced_point(p_phi)
        return self.polar_chart.point([r_star, phi, p_r_star, p_phi])

    @cached_property
    def reduced_chart(self) -> ChartSpec:
        if self.k(0.0) == 0.0:
            return ChartSpec(labels=("phi", "p_phi"), name="reduced",
                             domain=lambda z: z[1] != 0.0,
                             domain_description="p_phi != 0 (k = 0 excludes the origin)")
        return ChartSpec(labels=("phi", "p_phi"), name="reduced")

    @cached_property
    def surface_parametrization(self) -> SurfaceParametrization:
        def embed(z, model=self):
            phi, p_phi = z[0], z[1]
            r_star = model.reduced_radius(p_phi)
            return [r_star, phi, model.k(0.0) / r_star, p_phi]

        return SurfaceParametrization(reduced_chart=self.reduced_chart, embed=embed)

    # -- samplers --------------------------------------------------------------
    def sample_points(self, rng: np.random.Generator, n: int,
                      r_range: tuple[float, float] = (0.1, 5.0),
                      other_range: tuple[float, float] = (-5.0, 5.0)) -> PhaseSpacePoint:
        """Generic off-surface samples; r floored away from the excluded origin."""
        low = np.array([max(r_range[0], R_SAMPLE_FLOOR), *[other_range[0]] * 3], dtype=float)
        high = np.array([r_range[1], *[other_range[1]] * 3], dtype=float)
        # rows (r, phi, p_r, p_phi) in one draw, low + (high - low) u as rng.uniform rounds
        # it: bitwise the per-point draws, and the same generator state after them
        return PhaseSpacePoint(self.polar_chart, low + (high - low) * rng.random((n, 4)))

    def sample_surface(self, rng: np.random.Generator, n: int) -> list[PhaseSpacePoint]:
        pts = []
        for _ in range(n):
            p_phi = rng.uniform(-5.0, 5.0)
            if self.k(0.0) == 0.0 and abs(p_phi) < 0.1:
                p_phi = 0.1 if p_phi >= 0 else -0.1
            pts.append(self.embed_reduced(rng.uniform(0.0, 2.0 * np.pi), p_phi))
        return pts

    # -- model interface (see diracmech.models) ------------------------------
    bracket_pairs = (("r", "p_r"), ("r", "p_phi"), ("r", "phi"),
                     ("phi", "p_r"), ("phi", "p_phi"), ("p_r", "p_phi"))

    @property
    def bracket_chart(self) -> ChartSpec:
        return self.polar_chart

    def sample(self, rng: np.random.Generator, count: int,
               r_range: tuple[float, float] = (0.1, 5.0),
               momentum_range: tuple[float, float] = (-5.0, 5.0)) -> PhaseSpacePoint:
        # the sampler draws from [low, high] and needs a finite width high - low >= 0
        if not 0.0 <= r_range[1] - max(r_range[0], R_SAMPLE_FLOOR) < math.inf:
            raise UsageError(f"samples/r_range {list(r_range)} needs low <= high with a finite "
                             f"width once low is raised to the floor {R_SAMPLE_FLOOR:g}")
        if not 0.0 <= momentum_range[1] - momentum_range[0] < math.inf:
            raise UsageError(f"samples/momentum_range {list(momentum_range)} needs low <= high "
                             f"with a finite width")
        return self.sample_points(rng, count, r_range, momentum_range)

    def flow(self, kind: str, multiplier=1.0, hamiltonian=None):
        """(flow, monitor): the gauge orbit of the Cartesian First Class generator,
        or the physical Hamiltonian under the Dirac or the Poisson bracket."""
        if kind == "gauge":
            gen = self.cartesian_generator
            return GaugeFlow(gen, multiplier), ConstraintSet(self.cartesian_chart, (gen,), ("C",))
        if kind == "dirac":
            return DiracFlow(self.hamiltonian(), self.constraint_set), None
        return PoissonFlow(self.hamiltonian()), self.constraint_set

    def initial_point(self, phi: float = 0.0, p_phi: Optional[float] = None,
                      **_) -> Optional[PhaseSpacePoint]:
        return None if p_phi is None else self.embed_reduced(phi, p_phi)

    # -- closed-form oracles ---------------------------------------------------
    def dirac_oracle(self, pair: tuple[str, str], x):
        """Closed-form Dirac bracket of two coordinates, off-surface form, at a point or at
        every row of a batch (a column, or one float for every row).

        Denominator D = p_phi^2 + r^2 p_r^2 + alpha^2 r^4, each square a product:
        {r,p_r} = {r,p_phi} = {p_r,p_phi} = 0, {phi,p_phi} = 1,
        {r,phi} = -r p_phi / D, {phi,p_r} = -p_r p_phi / D.
        """
        a, b = pair
        labels = self.polar_chart.labels
        if a not in labels or b not in labels:
            raise UsageError(f"unknown coordinate pair {pair!r}")
        if a == b:
            return 0.0
        # the brackets above pair labels in chart order (r, phi, p_r, p_phi); swapped, negated
        sign = 1.0 if labels.index(a) < labels.index(b) else -1.0
        if "phi" not in pair:
            return sign * 0.0
        other = b if a == "phi" else a
        if other == "p_phi":
            return sign
        r, _, p_r, p_phi = x.columns  # squares as products: pow is not correctly rounded
        rp, ar = r * p_r, self.alpha * r * r
        denom = p_phi * p_phi + rp * rp + ar * ar
        return sign * (-(r if other == "r" else p_r) * p_phi / denom)

    def surface_denominator(self, p_phi: float) -> float:
        """On-surface value of the oracle denominator at t = 0: 2(k^2 + p_phi^2)."""
        k = self.k(0.0)
        return 2.0 * (k * k + p_phi * p_phi)

    def phi_rate(self, p_phi: float) -> float:
        """Angular rate {phi, C + U(r)}_D on-surface: p_phi U'(r*) / (2 alpha^2 r*^3)."""
        r_star, _ = self.reduced_point(p_phi)
        slope = float(self.potential.derivative(r_star))
        return p_phi * slope / (2.0 * self.alpha ** 2 * r_star ** 3)

    def circular_orbit(self, phi0: float, p_phi: float, t):
        """phi(t) on the circular orbit; r, p_r, p_phi are constants of motion."""
        return phi0 + self.phi_rate(p_phi) * np.asarray(t, dtype=float)

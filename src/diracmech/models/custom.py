"""User-defined system: a labelled chart with polynomial constraints.

Each constraint is ``(name, terms)`` with ``terms`` a list of
``(coeff, powers)`` as in :func:`diracmech.fields.polynomial_field`. With no
constraints the Dirac bracket is the Poisson bracket, whose canonical values
serve as the bracket oracle; with constraints there is no closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..constraints import ConstraintSet
from ..dynamics import DiracFlow, GaugeFlow, PoissonFlow
from ..errors import UsageError
from ..fields import polynomial_field
from ..phase import ChartSpec, PhaseSpacePoint


@dataclass(frozen=True)
class CustomModel:
    labels: tuple[str, ...]
    constraints: tuple = ()

    @cached_property
    def chart(self) -> ChartSpec:
        return ChartSpec(labels=tuple(self.labels), name="custom")

    @cached_property
    def constraint_set(self) -> ConstraintSet:
        fields = tuple(polynomial_field(self.chart, terms, name=name)
                       for name, terms in self.constraints)
        return ConstraintSet(self.chart, fields, tuple(name for name, _ in self.constraints))

    # -- model interface (see diracmech.models) ------------------------------
    @property
    def bracket_chart(self) -> ChartSpec:
        return self.chart

    @cached_property
    def bracket_pairs(self) -> tuple[tuple[str, str], ...]:
        labels = self.chart.labels
        return tuple((labels[i], labels[j])
                     for i in range(len(labels)) for j in range(i + 1, len(labels)))

    def sample(self, rng: np.random.Generator, count: int, **_) -> PhaseSpacePoint:
        # one draw of count rows: bitwise the per-point draws, and the state after them
        return PhaseSpacePoint(self.chart, rng.uniform(-3.0, 3.0, (count, self.chart.dim)))

    def dirac_oracle(self, pair: tuple[str, str], x):
        """Canonical {z_i, z_j} when unconstrained; None (no closed form) otherwise."""
        if len(self.constraint_set):
            return None
        i, j = self.chart.index(pair[0]), self.chart.index(pair[1])
        n = self.chart.n_pairs
        return 1.0 if j - i == n else -1.0 if i - j == n else 0.0

    def flow(self, kind: str, multiplier=1.0, hamiltonian=None):
        """(flow, monitor) for the polynomial ``hamiltonian`` terms; a Dirac flow
        monitors its own constraints, the others watch them when there are any."""
        if hamiltonian is None:
            raise UsageError("custom flows need a polynomial 'hamiltonian'")
        h = polynomial_field(self.chart, hamiltonian, name="H")
        cs = self.constraint_set
        if kind == "dirac":
            return DiracFlow(h, cs), None
        monitor = cs if len(cs) else None
        if kind == "gauge":
            return GaugeFlow(h, multiplier), monitor
        return PoissonFlow(h), monitor

    def initial_point(self, **_) -> None:
        return None  # only explicit coordinates

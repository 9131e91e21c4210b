"""Phase-space charts and points.

A chart names 2N canonical coordinates, ordered (q_1..q_N, p_1..p_N), and may
carry a domain predicate (e.g. "r > 0" for polar-style charts). Points are
validated once, at construction: right length, finite entries, inside the
domain. Everything is immutable, so values can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ChartMismatchError, NumericDomainError, UsageError


@dataclass(frozen=True)
class ChartSpec:
    """Labelled 2N-dimensional canonical chart."""

    labels: tuple[str, ...]
    name: str = "phase space"
    domain: Optional[Callable[[np.ndarray], bool]] = field(default=None, compare=False)
    domain_description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 2 or len(self.labels) % 2 != 0:
            raise UsageError(f"chart needs 2N labels with N >= 1, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("chart labels must be distinct")

    @property
    def n_pairs(self) -> int:
        return len(self.labels) // 2

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def q_labels(self) -> tuple[str, ...]:
        return self.labels[: self.n_pairs]

    @property
    def p_labels(self) -> tuple[str, ...]:
        return self.labels[self.n_pairs :]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UsageError(f"chart {self.name!r} has no coordinate {label!r}") from None

    def contains(self, coords: np.ndarray) -> bool:
        return self.domain is None or bool(self.domain(coords))

    def point(self, coords: Sequence[float]) -> "PhaseSpacePoint":
        return PhaseSpacePoint(self, coords)

    def __repr__(self):
        return f"ChartSpec({self.name!r}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class PhaseSpacePoint:
    """A validated position in a chart. Coordinates are read-only."""

    chart: ChartSpec
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.shape != (self.chart.dim,):
            raise UsageError(
                f"point needs {self.chart.dim} coordinates for chart "
                f"{self.chart.name!r}, got shape {coords.shape}"
            )
        if not np.isfinite(coords).all():
            bad = self.chart.labels[int(np.argmin(np.isfinite(coords)))]
            raise NumericDomainError(f"non-finite coordinate {bad!r}")
        if not self.chart.contains(coords):
            raise NumericDomainError(
                f"point violates domain of chart {self.chart.name!r}"
                + (f" ({self.chart.domain_description})" if self.chart.domain_description else "")
            )
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __getitem__(self, label: str) -> float:
        return float(self.coords[self.chart.index(label)])

    def __repr__(self):
        pairs = ", ".join(f"{l}={v:g}" for l, v in zip(self.chart.labels, self.coords))
        return f"PhaseSpacePoint({pairs})"


def same_chart(*charts: ChartSpec) -> bool:
    first = charts[0]
    return all(c is first or c.labels == first.labels for c in charts[1:])


def require_same_chart(*objs) -> ChartSpec:
    """Shared chart of fields/points, or a usage error naming the clash."""
    charts = [o.chart for o in objs]
    if not same_chart(*charts):
        names = ", ".join(sorted({c.name for c in charts}))
        raise ChartMismatchError(f"operands live on different charts: {names}")
    return charts[0]

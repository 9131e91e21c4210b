"""Phase-space charts and points.

A chart names 2N canonical coordinates, ordered (q_1..q_N, p_1..p_N), and may
carry a domain predicate (e.g. "r > 0" for polar-style charts). A point is
validated once, at construction: right length, finite entries, inside the
domain. A batch of n points is the same type with (n, dim) coordinates,
validated once for all its rows: a single point is a batch of one. Everything
is immutable, so values can be shared freely across threads.
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

    def point(self, coords: Sequence[float]) -> "PhaseSpacePoint":
        return PhaseSpacePoint(self, coords)

    def __repr__(self):
        return f"ChartSpec({self.name!r}, dim={self.dim})"


@dataclass(frozen=True, eq=False)
class PhaseSpacePoint:
    """A validated position in a chart, or a batch of n of them: read-only ``coords`` of
    shape (dim,) or (n, dim), validated by one finiteness and one domain test over the rows,
    so the first bad row raises its error. ``batch[i]`` is row i as a point."""

    chart: ChartSpec
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        chart = self.chart
        shape = coords.shape[coords.ndim > 1:]  # a point's, or a batch row's
        if shape != (chart.dim,):
            raise UsageError(f"point needs {chart.dim} coordinates for chart "
                             f"{chart.name!r}, got shape {shape}")
        ok = np.isfinite(coords.T)  # (dim,) or (dim, n): each point's entries down a column
        if chart.domain is not None:  # it reads a point's floats or a batch's (n,) columns
            ok = ok & chart.domain(coords.T)
        if np.count_nonzero(ok) != ok.size:  # the first bad row raises its error as a point
            finite = np.isfinite(coords[np.argmin(ok.all(axis=0))] if coords.ndim > 1 else coords)
            raise NumericDomainError(
                f"point violates domain of chart {chart.name!r}"
                + (f" ({chart.domain_description})" if chart.domain_description else "")
                if finite.all() else f"non-finite coordinate {chart.labels[np.argmin(finite)]!r}")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __getitem__(self, key):  # a coordinate by label (a batch's column), else rows
        if key.__class__ is str:
            return self.columns[self.chart.index(key)]
        return PhaseSpacePoint(self.chart, self.coords[key])

    def __len__(self) -> int:  # a batch's rows
        return len(self.coords)

    @property
    def columns(self) -> list:  # a point's Python floats, or a batch's (n,) columns
        return self.coords.tolist() if self.coords.ndim == 1 else list(self.coords.T)

    def __repr__(self):
        if self.coords.ndim > 1:
            return f"PhaseSpacePoint({len(self.coords)} rows of chart {self.chart.name!r})"
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

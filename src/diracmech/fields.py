"""Differentiable scalar fields on phase space.

A field wraps a pure function of the coordinates, which reads them on axis 0:
a point is a (dim,) array, and a block of states a (dim, B) array whose
trailing axis is the batch. Its gradient is the
registered ``grad`` if it has one, and exact forward-mode differentiation
(dual numbers) otherwise. A black-box function registers central finite
differences, ``lambda z: central_difference_gradient(func, z)``, with step
h = cbrt(machine eps) * max(1, |x_i|). Evaluation and gradients are pure:
the same coordinates always produce bitwise-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional, Sequence

import numpy as np

from . import duals
from .errors import NumericDomainError, UsageError
from .phase import ChartSpec, PhaseSpacePoint, require_same_chart

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)
# coordinates per func call of ScalarField.values_along: whole runs of small charts in one
# call, and about 20 states of an L=8 lattice, whose temporaries stay a few per cent of them
BLOCK_COORDINATES = 65536


def fd_steps(coords: np.ndarray) -> np.ndarray:
    """Per-coordinate central-difference steps (optimal for 2nd-order schemes)."""
    return _CBRT_EPS * np.maximum(1.0, np.abs(coords))


def central_difference_gradient(func, coords) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    h = fd_steps(coords)
    grad = np.empty_like(coords)
    for i in range(len(coords)):
        up = np.array(coords)
        dn = np.array(coords)
        up[i] += h[i]
        dn[i] -= h[i]
        grad[i] = (float(func(up)) - float(func(dn))) / (up[i] - dn[i])
    return grad


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function of the phase-space coordinates.

    ``func`` receives a float array with the coordinates on axis 0 (one point,
    or a (dim, B) block of states) or a list of dual numbers (exact
    differentiation), so it must be written with the helpers in
    :mod:`diracmech.duals` for anything beyond arithmetic, and give on a block
    the values it gives point by point, bit for bit. A field with a
    black-box ``func`` registers a closed-form ``grad``, or central
    differences: ``grad=lambda z: central_difference_gradient(func, z)``.

    ``grad`` reads its point, a list of Python floats, by index or by unpacking,
    and returns an array or a list of Python floats. ``gradient_at`` reads an
    array point by tolist() and always gives an array; ``gradient_list``, which
    the constraint engine and every RK4 step of a chart flow read, passes a
    list point and a returned list on with no numpy call.
    """

    name: str
    chart: ChartSpec
    func: Callable = dfield(compare=False)
    grad: Optional[Callable] = dfield(default=None, compare=False)

    # raw-coordinate fast path, used by the integrators -------------------
    def value_at(self, coords) -> float:
        return float(self.func(np.asarray(coords, dtype=float)))

    def values_along(self, states) -> np.ndarray:
        """``value_at`` of every row of a (T, dim) block of states, in blocks of rows
        holding at most BLOCK_COORDINATES coordinates, one ``func`` call each."""
        states = np.asarray(states, dtype=float)
        out = np.empty(len(states))
        rows = max(1, BLOCK_COORDINATES // self.chart.dim)
        for start in range(0, len(states), rows):
            out[start:start + rows] = self.func(states[start:start + rows].T)
        return out

    def gradient_at(self, coords) -> np.ndarray:
        return np.asarray(self._gradient(np.asarray(coords, dtype=float).tolist()), dtype=float)

    def gradient_list(self, coords) -> list:
        """The gradient as Python floats at a list of Python floats; an array, as point
        or as gradient, is read by tolist()."""
        if isinstance(coords, np.ndarray):
            coords = coords.tolist()
        g = self._gradient(coords)
        return g if isinstance(g, list) else np.asarray(g, dtype=float).tolist()

    def _gradient(self, coords: list):
        # the one gradient route: the registered grad, else the dual pass
        if self.grad is not None:
            return self.grad(coords)
        return duals.gradient(self.func, coords)

    # validated point API --------------------------------------------------
    def value(self, x: PhaseSpacePoint) -> float:
        require_same_chart(self, x)
        return self.value_at(x.coords)

    def gradient(self, x: PhaseSpacePoint) -> np.ndarray:
        require_same_chart(self, x)
        g = self.gradient_at(x.coords)
        if not np.isfinite(g).all():
            bad = self.chart.labels[int(np.argmin(np.isfinite(g)))]
            raise NumericDomainError(
                f"gradient of {self.name!r} is non-finite in coordinate {bad!r}"
            )
        return g

    def __repr__(self):
        return f"ScalarField({self.name!r} on {self.chart.name!r})"


def coordinate_field(chart: ChartSpec, label: str) -> ScalarField:
    """The coordinate function z -> z_label, with exact unit gradient."""
    i = chart.index(label)
    basis = np.zeros(chart.dim)
    basis[i] = 1.0
    basis.setflags(write=False)
    return ScalarField(name=label, chart=chart,
                       func=lambda z, i=i: z[i],
                       grad=lambda z, b=basis: b)


def _power(x, e: int):
    """x ** e for an integer e >= 1. On a Python float an overflow is the signed inf
    that numpy's pow gives, not OverflowError; the finite bits are libm's pow either way."""
    try:
        return x ** e
    except OverflowError:
        return math.copysign(math.inf, x) if e % 2 else math.inf


def polynomial_field(chart: ChartSpec, terms: Sequence[tuple[float, Sequence[int]]],
                     name: str = "poly") -> ScalarField:
    """Multivariate polynomial sum_k c_k * prod_i z_i^e_ki with exact gradient."""
    cleaned = []
    for coeff, powers in terms:
        powers = tuple(int(p) for p in powers)
        if len(powers) != chart.dim:
            raise UsageError(f"term exponents need length {chart.dim}, got {len(powers)}")
        if any(p < 0 for p in powers):
            raise UsageError("polynomial exponents must be non-negative")
        cleaned.append((float(coeff), powers))
    cleaned = tuple(cleaned)

    def func(z, terms=cleaned):
        total = 0.0
        for coeff, powers in terms:
            term = coeff
            for i, p in enumerate(powers):
                for _ in range(p):
                    term = term * z[i]
            total = total + term
        return total

    # one (j, coeff * p_j, ((i, e_i), ...)) per term and coordinate j with p_j > 0: the
    # factors of d(term)/dz_j whose exponent e_i is positive, in coordinate order
    partials = []
    for coeff, powers in cleaned:
        for j, pj in enumerate(powers):
            if pj:
                exponents = (p - 1 if i == j else p for i, p in enumerate(powers))
                partials.append((j, coeff * pj,
                                 tuple((i, e) for i, e in enumerate(exponents) if e)))

    def grad(z, partials=tuple(partials), dim=chart.dim):
        g = [0.0] * dim
        for j, term, factors in partials:
            for i, e in factors:
                term *= _power(z[i], e)
            g[j] += term
        return g

    return ScalarField(name=name, chart=chart, func=func, grad=grad)


def field_product(a: ScalarField, b: ScalarField) -> ScalarField:
    chart = require_same_chart(a, b)
    grad = None
    if a.grad is not None and b.grad is not None:
        def grad(z, a=a, b=b):  # a grad may return a list; gradient_at reads it as an array
            return a.func(z) * b.gradient_at(z) + b.func(z) * a.gradient_at(z)
    return ScalarField(name=f"({a.name})*({b.name})", chart=chart,
                       func=lambda z, a=a, b=b: a.func(z) * b.func(z), grad=grad)


def pullback_field(field: ScalarField, embed: Callable, reduced_chart: ChartSpec) -> ScalarField:
    """Composition field o embed as a field on the reduced chart.

    ``embed`` maps reduced coordinates to full-chart coordinates and must be
    dual-capable so the chain rule flows through forward differentiation.
    """
    return ScalarField(name=f"{field.name}|surface", chart=reduced_chart,
                       func=lambda z, f=field, e=embed: f.func(e(z)))


@dataclass(frozen=True)
class GradientCheck:
    """Result of comparing a field's gradient against central differences."""

    max_rel_err: float
    worst_label: str
    analytic: np.ndarray
    numeric: np.ndarray


def gradient_consistency_check(f: ScalarField, x: PhaseSpacePoint) -> GradientCheck:
    """Max relative discrepancy between f.gradient and a finite-difference probe."""
    require_same_chart(f, x)
    analytic = f.gradient_at(x.coords)
    numeric = central_difference_gradient(f.func, x.coords)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradientCheck(max_rel_err=float(rel[worst]),
                         worst_label=f.chart.labels[worst],
                         analytic=analytic, numeric=numeric)

"""Differentiable scalar fields on phase space.

A field wraps a pure function of the coordinates, which reads them on axis 0: a point is a
(dim,) array, and a block of states a (dim, B) array whose trailing axis is the batch, which
the ``duals`` lifts take entry by entry. Its gradient is the registered ``grad`` if it has
one, else its exact forward-mode (dual number) pass recorded once by ``duals.trace`` as
straight-line float code with the pass's bits, compiled once per structure, else that dual
pass itself: a ``func`` that compares or tests a value, calls a function but the ``duals``
lifts (``math.sin``, ``np.sqrt``, ``duals.atan2``), reads a dual's ``val``, raises a dual to
a power but 2, or raises while traced is not traced. A black-box function registers central
finite differences, ``lambda z: central_difference_gradient(func, z).tolist()``, with step
h = cbrt(machine eps) * max(1, |x_i|). Evaluation and gradients are pure: the same
coordinates always produce bitwise-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from . import duals
from .errors import NumericDomainError, UsageError
from .kernels import _generated
from .phase import ChartSpec, PhaseSpacePoint, require_point, require_same_chart

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
    differences: ``grad=lambda z: central_difference_gradient(func, z).tolist()``.
    An error in a traced gradient reruns the dual pass, which raises its own.

    ``grad`` reads its point, a list of Python floats, by index or by unpacking,
    and returns a list of Python floats, as every field the package builds does
    (an array is read with the same bits, at numpy-scalar speed). ``_gradient`` passes
    that list on as it is, and so does ``gradient`` at one validated point, once it has
    checked its length and finiteness; ``gradient_at`` reads an array point by tolist() and
    gives an array. The RK4 loops trace ``grad`` once, on values with no comparison, truth
    value or ``float()``, and write in the float code it runs (``duals.trace``): a grad that
    compares, converts or computes on arrays is called at every stage, and one that
    type-tests its input is traced down its non-float branch.
    """

    name: str
    chart: ChartSpec
    func: Callable = dfield(compare=False)
    grad: Optional[Callable] = dfield(default=None, compare=False)

    # raw-coordinate fast path, used by the integrators -------------------
    def values_along(self, states) -> np.ndarray:
        """``func`` of every row of a (T, dim) block of states, in blocks of rows
        holding at most BLOCK_COORDINATES coordinates, one ``func`` call each."""
        states = np.asarray(states, dtype=float)
        out = np.empty(len(states))
        rows = max(1, BLOCK_COORDINATES // self.chart.dim)
        for start in range(0, len(states), rows):
            out[start:start + rows] = self.func(states[start:start + rows].T)
        return out

    def gradient_at(self, coords) -> np.ndarray:
        return np.asarray(self._gradient(np.asarray(coords, dtype=float).tolist()), dtype=float)

    @cached_property
    def _trace(self) -> Optional[tuple]:
        """The gradient's float code, once per field: ``_joint_trace`` of this field alone."""
        return _joint_trace((self,))

    @cached_property
    def _gradient(self) -> Callable:
        # the one gradient route, resolved once per field: the registered grad, else the
        # compiled trace (the dual pass on an error), else the dual pass
        dual = partial(duals.gradient, self.func)
        if self.grad is not None or self._trace is None:
            return self.grad or dual
        # the lifts in place of their math functions read a batch's columns entry by entry
        shape, lifted = self._trace[0], tuple(duals.LIFTS.get(c, c) for c in self._trace[1])
        return _generated("gradient", self.chart.n_pairs, 0, shape)(dual, lifted)

    def _call(self, z):
        """``_gradient`` at z, resolved at the first call, its entry count checked: a loop that
        writes this gradient in calls it only on an error, and only then is it traced alone."""
        return self._entries(self._gradient(z))

    def _entries(self, g):
        """The gradient ``g``, or a usage error unless it has one entry per coordinate."""
        if len(g) != self.chart.dim:
            raise UsageError(f"grad of {self.name!r} gives {len(g)} entries for the "
                             f"{self.chart.dim} coordinates of chart {self.chart.name!r}")
        return g

    # validated point API --------------------------------------------------
    def value(self, x: PhaseSpacePoint) -> float:
        require_point(self, x)
        return float(self.func(x.coords))

    def gradient(self, x: PhaseSpacePoint) -> list:
        """The gradient route's list at one point, its length and finiteness checked once."""
        require_point(self, x)
        g = self._entries(self._gradient(x.coords.tolist()))
        if not all(map(math.isfinite, g)):
            bad = next(l for l, v in zip(self.chart.labels, g) if not math.isfinite(v))
            raise NumericDomainError(f"gradient of {self.name!r} is non-finite in coordinate "
                                     f"{bad!r}")
        return g

    def __repr__(self):
        return f"ScalarField({self.name!r} on {self.chart.name!r})"


def _joint_trace(fields: Sequence[ScalarField]) -> Optional[tuple]:
    """``duals.trace`` of the fields' gradient routes together (each grad, else its func's dual
    pass), on their common chart; a traced route's wrong entry count raises here."""
    out = duals.trace([f.grad or partial(duals.gradient, f.func) for f in fields],
                      fields[0].chart.dim)
    for f, entries in zip(fields, out[0][1] if out else ()):
        if entries is not None:
            f._entries(entries)
    return out


def coordinate_field(chart: ChartSpec, label: str) -> ScalarField:
    """The coordinate function z -> z_label, with exact unit gradient (a new list per call)."""
    i = chart.index(label)
    return ScalarField(name=label, chart=chart, func=lambda z, i=i: z[i],
                       grad=lambda z, i=i, n=chart.dim: [0.0] * i + [1.0] + [0.0] * (n - i - 1))


def _power(x, e: int):
    """x ** e for an integer e >= 1. On a Python float an overflow is the signed inf
    that numpy's pow gives, not OverflowError; the finite bits are libm's pow either way,
    taken entry by entry on a column (numpy's own pow may round differently)."""
    if isinstance(x, np.ndarray):
        return np.array([_power(v, e) for v in x.tolist()])
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
            for i, e in factors:  # x ** 1 is x, bit for bit: no pow call
                term *= z[i] if e == 1 else _power(z[i], e)
            g[j] += term
        return g

    return ScalarField(name=name, chart=chart, func=func, grad=grad)


def field_product(a: ScalarField, b: ScalarField) -> ScalarField:
    chart = require_same_chart(a, b)
    grad = None
    if a.grad is not None and b.grad is not None:
        def grad(z, a=a, b=b):  # on float64 arrays from gradient_at, then as Python floats
            return (a.func(z) * b.gradient_at(z) + b.func(z) * a.gradient_at(z)).tolist()
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
    require_point(f, x)
    analytic = f.gradient_at(x.coords)
    numeric = central_difference_gradient(f.func, x.coords)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel))
    return GradientCheck(max_rel_err=float(rel[worst]),
                         worst_label=f.chart.labels[worst],
                         analytic=analytic, numeric=numeric)

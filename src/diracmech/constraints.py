"""Constraint sets, classification, and the Dirac bracket.

For constraints Phi_1..Phi_M the pairing matrix is M_IJ = {Phi_I, Phi_J}.
When it is invertible on the constraint surface the set is Second Class and

    {A,B}_D = {A,B} - {A,Phi_I} (M^-1)^IJ {Phi_J,B}

defines the Dirac bracket, under which every function commutes with every
constraint; {A,B}_D = grad A . D . grad B with the Dirac tensor D built once
per point. When the pairing matrix vanishes on the surface the set is First
Class (its elements generate gauge transformations instead of fixing a
reduced phase space). Everything in between is reported as mixed/degenerate
with a rank estimate. M is summed by the pairing function that ``kernels``
generates, with the sums the Dirac flow runs, and D by its tensor function:
ordered float sums and a float solve, so D takes no BLAS or LAPACK call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import cached_property
from itertools import starmap
from typing import Callable, Optional, Sequence

import numpy as np

from .brackets import poisson_bracket
from .errors import DegeneracyError, DiracMechError, NumericDomainError, UsageError
from .fields import ScalarField, _joint_trace, pullback_field
from .kernels import _generated
from .phase import ChartSpec, PhaseSpacePoint, require_point, require_same_chart

# |det M| <= DEGENERACY_RTOL * max(1, prod of row norms) counts as singular
DEGENERACY_RTOL = 1e-10

ON_SURFACE_TOL = 1e-9


@dataclass(frozen=True)
class KRamp:
    """Affine k(t) = k0 + k1 t. As the time ramp of a constraint it is plain data: the
    constraint reads Phi(z, t) = Phi(z) + k0 - k(t), so dPhi/dt is the constant -k1."""

    k0: float
    k1: float = 0.0

    def __call__(self, t):
        return self.k0 + self.k1 * t


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered constraints and auxiliary conditions, lumped together. ``time_ramps`` holds
    a ``KRamp`` or None per constraint: a ramp makes it Phi(z, t) = Phi(z) + k0 - k(t)."""

    chart: ChartSpec
    fields: tuple[ScalarField, ...]
    names: tuple[str, ...]
    time_ramps: Optional[tuple[Optional[KRamp], ...]] = dfield(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != len(self.fields):
            raise UsageError("one name per constraint field")
        if len(set(self.names)) != len(self.names):  # a residual series and drift row per name
            raise UsageError("constraint names must be distinct")
        if self.fields:
            require_same_chart(self, *self.fields)
        if len(self.fields) > self.chart.dim:
            raise UsageError(
                f"{len(self.fields)} constraints exceed the chart dimension {self.chart.dim}"
            )
        if self.time_ramps is not None and len(self.time_ramps) != len(self.fields):
            raise UsageError("one time ramp (or None) per constraint field")

    def __len__(self) -> int:
        return len(self.fields)

    @property
    def even_count(self) -> bool:
        return len(self.fields) % 2 == 0

    @cached_property
    def rates(self) -> tuple:
        """dPhi_I/dt of every constraint as Python floats: -k1 of its ramp, else 0.0."""
        return tuple(0.0 if ramp is None else float(-ramp.k1)
                     for ramp in self.time_ramps or (None,) * len(self.fields))

    @cached_property
    def _dirac_tensor(self) -> Callable[[list], list]:
        """D(z) at a point's floats or a batch's columns, generated once per set."""
        return _generated("tensor", self.chart.n_pairs, len(self.fields))(
            tuple(f._gradient for f in self.fields), _column_multipliers)

    def _traced_with(self, h: ScalarField) -> Optional[tuple]:
        """``_joint_trace`` of h's gradient route and the set's, kept for the last h traced with
        the set: a kept model's Dirac flow traces once."""
        kept = self.__dict__.get("_joint", (None,))
        if kept[0] is not h:
            kept = self.__dict__["_joint"] = h, _joint_trace((h, *self.fields))
        return kept[1]

    def gradient_rows(self, coords: list) -> list:
        """One gradient row per constraint at a point's Python floats or a batch's columns
        (``columns``), as ``_gradient`` returns it: floats or columns for the package's fields."""
        return [f._gradient(coords) for f in self.fields]

    def require_on_surface(self, coords, label: str, tol: float = ON_SURFACE_TOL) -> None:
        """Raise UsageError unless every |Phi_I(z, 0)| < tol, at a point's coordinates or at
        every row of a batch's: the first row off the surface names its worst constraint."""
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is off it
            vals = np.abs(self.values_along([0.0], np.reshape(coords, (-1, self.chart.dim))))
        off = ~np.all(vals < tol, axis=1)  # a NaN residual is off the surface too
        if off.any():
            vals = vals[np.argmax(off)]
            worst = int(np.argmax(vals))
            raise UsageError(f"{label} is off the constraint surface: |{self.names[worst]}| "
                             f"= {vals[worst]:.3e}, tolerance {tol:g}")

    def values_along(self, times, states) -> np.ndarray:
        """Phi_I(z, t) at every (t, z), as a (len(states), M) array; a point is a batch of one."""
        states = np.asarray(states, dtype=float)
        vals = np.empty((len(states), len(self.fields)))
        for j, f in enumerate(self.fields):
            vals[:, j] = f.values_along(states)
        for j, ramp in enumerate(self.time_ramps or ()):
            if ramp is not None:
                vals[:, j] += ramp.k0 - ramp(np.asarray(times, dtype=float))
        return vals

    def residual_series(self, times, states) -> dict[str, np.ndarray]:
        """|Phi_I| at every (t, z) of a trajectory, one array per constraint name."""
        vals = np.abs(self.values_along(times, states))
        return {name: vals[:, j] for j, name in enumerate(self.names)}


def pairing_matrix_of_rows(rows: list, n_pairs: int) -> list:
    """M_IJ = {Phi_I, Phi_J} as nested float lists, from float-list gradient rows.

    M = a - a^T with a_IJ = q_I . p_J summed in index order, so M is antisymmetric
    by construction and the diagonal a_II - a_II is NaN for a non-finite row. The
    sums are the Dirac rhs's, generated by ``kernels`` once per (n_pairs, len(rows)).
    """
    return _generated("pairing", n_pairs, len(rows))(rows)


def constraint_matrix(cs: ConstraintSet, x: PhaseSpacePoint) -> np.ndarray:
    require_same_chart(cs, x)
    m = pairing_matrix_of_rows(cs.gradient_rows(x.coords.tolist()), cs.chart.n_pairs)
    return np.array(m, dtype=float).reshape(len(cs), len(cs))


def degeneracy_scale(m) -> float:
    """max(1, prod of row norms); NaN or inf when an entry of M is not finite.

    On Python floats, for an array or nested lists: a small M costs no numpy
    calls, and math.hypot neither overflows nor underflows where a row's sum
    of squares would.
    """
    # max keeps a leading NaN
    return max(math.prod(starmap(math.hypot, m), start=1.0), 1.0)


def _eliminate(m, rhs):
    """(det M, M^-1 rhs) by Gaussian elimination with partial pivoting on Python floats (Higham
    2002, ch. 9), for rhs of k floats or k rows (lists); det is the pivots' signed product."""
    k, vector = len(m), not len(m) or rhs[0].__class__ is not list
    a = [[*map(float, row), *((b,) if vector else b)] for row, b in zip(m, rhs)]
    width, det = len(a[0]) if k else 0, 1.0
    for j in range(k):
        p, big = j, abs(a[j][j])
        for i in range(j + 1, k):  # the first largest |a_ij| at or below the diagonal
            if abs(a[i][j]) > big:
                p, big = i, abs(a[i][j])
        a[j], a[p] = a[p], a[j]
        top, pivot = a[j], a[j][j]
        if pivot == 0.0:  # M is singular
            return 0.0, None
        det *= pivot if p == j else -pivot
        for row in a[j + 1:]:
            f = row[j] / pivot
            for c in range(j + 1, width):
                row[c] -= f * top[c]
    for c in range(k, width):  # back substitution, in place of each rhs column
        for j in range(k - 1, -1, -1):
            row, v = a[j], a[j][c]
            for i in range(j + 1, k):
                v -= row[i] * a[i][c]
            row[c] = v / row[j]
    return det, [row[k] if vector else row[k:] for row in a]


def pairing_det(m) -> float:
    if len(m) == 2:  # on Python floats: an overflowing square is inf without a numpy warning
        m01 = float(m[0][1])
        return m01 * m01
    return _eliminate(m, [[]] * len(m))[0]


def _solve_pairing(m, rhs):
    # the closed 2x2 form, for rhs of two floats or two rows (lists) of floats or columns
    delta = m[0][1]
    first, second = rhs
    if first.__class__ is list:
        return [[-v / delta for v in second], [v / delta for v in first]]
    return [-second / delta, first / delta]


def _second_class(m, det: float) -> bool:
    """The package's one degeneracy test: |det M| > DEGENERACY_RTOL * degeneracy_scale(M).

    A NaN det or scale fails the comparison, so a non-finite M counts as singular.
    Where the scale of a finite M overflows, both sides are taken on M / 2^e with
    2^e near max |M_IJ|: det and the product of row norms scale alike by 2^(-e k),
    and a scale that overflowed was that product, not the floor 1.
    """
    scale = degeneracy_scale(m)
    if scale == math.inf and np.all(np.isfinite(m)):
        m = np.ldexp(m, -int(np.frexp(np.max(np.abs(m)))[1]))
        det, scale = pairing_det(m), math.prod(starmap(math.hypot, m.tolist()))
    return abs(det) > DEGENERACY_RTOL * scale


def _pairing_multipliers(m, rhs, coords):
    """M^-1 rhs for the pairing matrix M; raises DegeneracyError unless the set is
    Second Class at ``coords`` by ``_second_class``."""
    # two constraints: the closed form once the guard passes; more: one elimination
    det, solution = (pairing_det(m), rhs) if len(m) == 2 else _eliminate(m, rhs)
    if solution is None or not _second_class(m, det):
        problem = (f"is singular (det={det:.3e})" if np.all(np.isfinite(m))
                   else "has a non-finite entry")
        raise DegeneracyError(
            f"constraint pairing matrix {problem}; system is not Second Class here",
            det=det, coords=np.array(coords))
    return _solve_pairing(m, rhs) if len(m) == 2 else solution


def _stacked(rows: list, column) -> np.ndarray:
    """(n, rows, entries) from rows of (n,) columns or floats shared by every row."""
    return np.moveaxis(np.array([np.broadcast_arrays(*row, column)[:-1] for row in rows]), -1, 0)


def _column_multipliers(m, rhs, coords):
    """``_pairing_multipliers`` at a point's floats, or in order at every row of M = a - a^T and
    rhs of a batch's (n,) columns: the first to fail raises. More than two constraints take it on
    each row's floats; with two only a row that fails the inline test below takes it."""
    if coords[0].__class__ is float:
        return _pairing_multipliers(m, rhs, coords)
    stack = _stacked(m, coords[0])
    if len(m) > 2:
        s = _stacked(rhs, coords[0])
        rows = map(_pairing_multipliers, stack.tolist(), s.tolist(), zip(*coords))
        return np.reshape(list(rows), s.shape).transpose(1, 2, 0)
    # the Dirac loop's inline test, exact: with a zero diagonal the guard's scale is max(det, 1)
    det = stack[:, 0, 1] * stack[:, 0, 1]
    zero = (stack[:, 0, 0] == 0.0) & (stack[:, 1, 1] == 0.0)
    for i in np.flatnonzero(~(zero & (DEGENERACY_RTOL < det) & (det < math.inf))).tolist():
        _pairing_multipliers(stack[i].tolist(), [0.0] * len(m), [c[i] for c in coords])
    return _solve_pairing(m, rhs)  # elementwise


@dataclass(frozen=True)
class ClassificationResult:
    kind: str  # second_class | first_class | mixed_or_degenerate
    det_M: float
    rank: int
    tolerance_used: float
    sample_points: tuple[PhaseSpacePoint, ...]
    notes: tuple[str, ...] = ()


def classify(cs: ConstraintSet, samples: Sequence[PhaseSpacePoint], tol: float) -> ClassificationResult:
    """Classify a constraint set on on-surface samples.

    second_class: the pairing solve's degeneracy test passes at every sample, so
    dirac_tensor succeeds exactly there;
    first_class: max |M_IJ| < tol at every sample;
    otherwise mixed_or_degenerate, with the rank from the singular values.
    A non-finite M at any sample raises NumericDomainError.
    """
    if tol <= 0:
        raise UsageError("classification tolerance must be positive")
    if not samples:
        raise UsageError("classification needs at least one sample")
    notes = []
    if not cs.even_count:
        notes.append(f"odd constraint count M={len(cs)}: cannot be Second Class")

    all_second, all_first = True, True
    min_abs_det = np.inf
    min_rank = len(cs)
    for x in samples:
        require_same_chart(cs, x)
        cs.require_on_surface(x.coords, "classification sample")
        m = constraint_matrix(cs, x)
        if not np.all(np.isfinite(m)):  # the rank of a non-finite M is undefined
            raise NumericDomainError("constraint pairing matrix has a non-finite entry; "
                                     "cannot classify the constraint set")
        det = pairing_det(m)
        min_abs_det = min(min_abs_det, abs(det))
        if not _second_class(m, det):
            all_second = False
        if not (np.max(np.abs(m)) < tol if len(cs) else True):
            all_first = False
        if not (all_second or all_first):
            s = np.linalg.svd(m, compute_uv=False)
            cutoff = tol * max(s[0], 1.0) if s.size else 0.0
            min_rank = min(min_rank, int(np.sum(s > cutoff)))

    if all_second and cs.even_count and len(cs) > 0:
        kind, rank = "second_class", len(cs)
    elif all_first:
        kind, rank = "first_class", 0
    else:
        kind, rank = "mixed_or_degenerate", min_rank
    return ClassificationResult(kind=kind, det_M=float(min_abs_det), rank=rank,
                                tolerance_used=tol, sample_points=tuple(samples),
                                notes=tuple(notes))


def dirac_tensor(cs: ConstraintSet, x: PhaseSpacePoint) -> list:
    """D_ab = {z_a, z_b}_D = J_ab + sum_I S_Ia (M^-1 S)_Ib with S_Ia = {Phi_I, z_a}, as nested
    lists: at a point its floats, at a batch an (n,) column per entry, or one float for every
    row. With an empty constraint set D is the canonical J.

    The tensor function that ``kernels`` generates once per set reads the gradient rows,
    sums M, makes one guarded pairing solve for every column of S and sums each entry
    left to right with no fused multiply-add: no BLAS or LAPACK call. On columns it runs
    elementwise in that order, so with two constraints a row's D is bitwise its point's; on
    an error the rows run as points in turn, so the first bad row raises its own error.
    """
    require_same_chart(cs, x)
    # overflowing gradients and non-finite rows end in the guard's error, not in warnings
    with np.errstate(all="ignore"):
        try:
            return cs._dirac_tensor(x.columns)
        except DiracMechError:
            for row in x.coords.tolist() if x.coords.ndim > 1 else ():
                cs._dirac_tensor(row)
            raise


def _contraction(ga, d, gb) -> float:
    """ga . D . gb as one correctly rounded sum of the products ga_a D_ab gb_b."""
    return math.fsum(u * dab * v for u, row in zip(ga, d) for dab, v in zip(row, gb))


def dirac_bracket(a: ScalarField, b: ScalarField, cs: ConstraintSet, x: PhaseSpacePoint) -> float:
    """{a,b}_D at a point x; with an empty constraint set this is the Poisson bracket."""
    return _contraction(a.gradient(x), dirac_tensor(cs, x), b.gradient(x))


@dataclass(frozen=True)
class ObservableReport:
    max_abs: float
    per_constraint: dict[str, float]


def observable_check(a: ScalarField, cs: ConstraintSet,
                     samples: Sequence[PhaseSpacePoint]) -> ObservableReport:
    """Max |{a, Phi_I}_D| over samples; ~0 is the Second Class observable identity."""
    if len(cs) == 0:
        raise UsageError("an observable check needs at least one constraint")
    worst = [0.0] * len(cs)
    for x in samples:
        require_point(cs, x)  # before the tensor, which takes a batch
        d, ga = dirac_tensor(cs, x), a.gradient(x)
        worst = [max(w, abs(_contraction(ga, d, row)))
                 for w, row in zip(worst, cs.gradient_rows(x.columns))]
    per_constraint = dict(zip(cs.names, worst))
    return ObservableReport(max_abs=max(per_constraint.values()), per_constraint=per_constraint)


@dataclass(frozen=True)
class SurfaceParametrization:
    """Embedding of a reduced chart onto the constraint surface.

    ``embed`` maps reduced coordinates to full-chart coordinates, must land on
    the surface (checked to 1e-9), and must be dual-capable so pullbacks can
    be differentiated exactly.
    """

    reduced_chart: ChartSpec
    embed: Callable = dfield(compare=False)

    def embed_point(self, full_chart: ChartSpec, reduced_point: PhaseSpacePoint) -> PhaseSpacePoint:
        require_same_chart(self, reduced_point)
        coords = np.array([float(v) for v in self.embed(np.asarray(reduced_point.coords))])
        return PhaseSpacePoint(full_chart, coords)

    @property
    def chart(self) -> ChartSpec:
        return self.reduced_chart


@dataclass(frozen=True)
class ReducedBracketReport:
    dirac_value: float
    reduced_pb_value: float
    abs_diff: float


def reduced_bracket_check(a: ScalarField, b: ScalarField, cs: ConstraintSet,
                          param: SurfaceParametrization,
                          reduced_point: PhaseSpacePoint) -> ReducedBracketReport:
    """Dirac bracket vs. Poisson bracket of the pullbacks in reduced variables.

    For Second Class systems the two agree (Maskawa-Nakajima): canonical
    coordinates adapted to the surface turn the Dirac bracket into the plain
    Poisson bracket of the reduced chart.
    """
    x = param.embed_point(cs.chart, reduced_point)
    cs.require_on_surface(x.coords, "embedded point")
    dirac_value = dirac_bracket(a, b, cs, x)
    a_red = pullback_field(a, param.embed, param.reduced_chart)
    b_red = pullback_field(b, param.embed, param.reduced_chart)
    reduced_value = poisson_bracket(a_red, b_red, reduced_point)
    return ReducedBracketReport(dirac_value=dirac_value, reduced_pb_value=reduced_value,
                                abs_diff=abs(dirac_value - reduced_value))


def faddeev_popov_determinant(gauge_conditions: Sequence[ScalarField],
                              constraints: Sequence[ScalarField],
                              x: PhaseSpacePoint) -> float:
    """det of the K x K matrix {chi_i, C_j}, the canonical-measure weight: the
    off-diagonal block of the pairing matrix M of (chi..., C...)."""
    if len(gauge_conditions) != len(constraints):
        raise UsageError(
            f"need equally many gauge conditions and constraints, "
            f"got {len(gauge_conditions)} and {len(constraints)}"
        )
    k = len(constraints)
    rows = [f.gradient(x) for f in (*gauge_conditions, *constraints)]
    block = [row[k:] for row in pairing_matrix_of_rows(rows, x.chart.n_pairs)[:k]]
    return _eliminate(block, [[]] * k)[0] if k != 1 else block[0][0]  # 1.0 for k = 0


@dataclass(frozen=True)
class JacobianReport:
    jacobian_det: float
    bracket_value: float
    abs_diff: float


def pair_jacobian_check(gauge: ScalarField, constraint: ScalarField, x: PhaseSpacePoint,
                        pair_labels: tuple[str, str]) -> JacobianReport:
    """det d(chi,C)/d(labels) vs {chi,C}; equal when both fields ignore the other pair.

    This is the change-of-variables identity behind the canonical measure: the
    density of (chi, C) against the eliminated pair equals the mutual bracket.
    """
    chart = require_point(gauge, constraint, x)
    i1, i2 = chart.index(pair_labels[0]), chart.index(pair_labels[1])
    g_chi = gauge.gradient(x)
    g_c = constraint.gradient(x)
    jac = g_chi[i1] * g_c[i2] - g_chi[i2] * g_c[i1]
    bracket = faddeev_popov_determinant([gauge], [constraint], x)
    return JacobianReport(jacobian_det=float(jac), bracket_value=bracket,
                          abs_diff=abs(float(jac) - bracket))

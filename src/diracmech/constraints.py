"""Constraint sets, classification, and the Dirac bracket.

For constraints Phi_1..Phi_M the pairing matrix is M_IJ = {Phi_I, Phi_J}.
When it is invertible on the constraint surface the set is Second Class and

    {A,B}_D = {A,B} - {A,Phi_I} (M^-1)^IJ {Phi_J,B}

defines the Dirac bracket, under which every function commutes with every
constraint; {A,B}_D = grad A . D . grad B with the Dirac tensor D built once
per point. When the pairing matrix vanishes on the surface the set is First
Class (its elements generate gauge transformations instead of fixing a
reduced phase space). Everything in between is reported as mixed/degenerate
with a rank estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from functools import lru_cache
from itertools import starmap
from typing import Callable, Optional, Sequence

import numpy as np

from .brackets import poisson_bracket, poisson_tensor
from .errors import DegeneracyError, NumericDomainError, UsageError
from .fields import ScalarField, pullback_field
from .phase import ChartSpec, PhaseSpacePoint, require_same_chart

# |det M| <= DEGENERACY_RTOL * max(1, prod of row norms) counts as singular
DEGENERACY_RTOL = 1e-10

ON_SURFACE_TOL = 1e-9


@dataclass(frozen=True)
class TimeRamp:
    """Additive explicit-time part of a constraint: Phi(z,t) = Phi(z) + offset(t).

    ``offset`` takes a float or an array of times, elementwise; ``rate`` a float.
    """

    offset: Callable[[float], float]
    rate: Callable[[float], float]


@dataclass(frozen=True)
class ConstraintSet:
    """Ordered constraints and auxiliary conditions, lumped together."""

    chart: ChartSpec
    fields: tuple[ScalarField, ...]
    names: tuple[str, ...]
    time_ramps: Optional[tuple[Optional[TimeRamp], ...]] = dfield(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) != len(self.fields):
            raise UsageError("one name per constraint field")
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

    @property
    def time_dependent(self) -> bool:
        return self.time_ramps is not None and any(r is not None for r in self.time_ramps)

    def rates_at(self, t: float) -> list:
        """d(offset)/dt of every constraint of a time-dependent set as Python floats,
        0.0 where there is no ramp."""
        return [0.0 if ramp is None else float(ramp.rate(t)) for ramp in self.time_ramps]

    def gradient_rows(self, coords: list) -> list:
        """One gradient row per constraint at a list of Python floats (an array point's
        tolist()), as lists of Python floats."""
        return [f._gradient_floats(coords) for f in self.fields]

    def require_on_surface(self, coords, label: str, tol: float = ON_SURFACE_TOL) -> None:
        """Raise UsageError naming the worst constraint unless every |Phi_I(z, 0)| < tol."""
        vals = np.abs(self.values_along([0.0], [coords])[0])
        if not np.all(vals < tol):  # a NaN residual is off the surface too
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
                vals[:, j] += ramp.offset(np.asarray(times, dtype=float))
        return vals

    def residual_series(self, times, states) -> dict[str, np.ndarray]:
        """|Phi_I| at every (t, z) of a trajectory, one array per constraint name."""
        vals = np.abs(self.values_along(times, states))
        return {name: vals[:, j] for j, name in enumerate(self.names)}


def _float_dot(a, b) -> float:
    # summed in index order from +0.0, as BLAS sums: a lone -0.0 product gives +0.0
    total = 0.0
    for i in range(len(a)):
        total += a[i] * b[i]
    return total


def pairing_matrix_of_rows(rows: list, n_pairs: int) -> list:
    """M_IJ = {Phi_I, Phi_J} as nested float lists, from float-list gradient rows.

    M = a - a^T with a_IJ = q_I . p_J summed in index order, so M is antisymmetric
    by construction and the diagonal a_II - a_II is NaN for a non-finite row.
    """
    if len(rows) == 2:  # unrolled: dirac_tensor and classify build one 2x2 M per point
        r0, r1 = rows
        q0, p0, q1, p1 = r0[:n_pairs], r0[n_pairs:], r1[:n_pairs], r1[n_pairs:]
        a00, a01 = _float_dot(q0, p0), _float_dot(q0, p1)
        a10, a11 = _float_dot(q1, p0), _float_dot(q1, p1)
        return [[a00 - a00, a01 - a10], [a10 - a01, a11 - a11]]
    ps = [row[n_pairs:] for row in rows]
    a = [[_float_dot(row[:n_pairs], p) for p in ps] for row in rows]
    return [[a_i[j] - a[j][i] for j in range(len(a))] for i, a_i in enumerate(a)]


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


def pairing_det(m) -> float:
    if len(m) == 2:  # on Python floats: an overflowing square is inf without a numpy warning
        m01 = float(m[0][1])
        return m01 * m01
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite det is the guard's to judge
        return float(np.linalg.det(m))


def _solve_pairing(m, rhs):
    # closed 2x2 form as a list; pivoted LU (gesv) beyond that
    if len(m) == 2:
        delta = m[0][1]
        return [-rhs[1] / delta, rhs[0] / delta]
    return np.linalg.solve(m, rhs)


def _constraint_brackets(rows: list, grad: list, n_pairs: int) -> list:
    """{Phi_I, g} for every constraint as Python floats, from float-list gradient
    rows and the float-list gradient of g."""
    gq, gp = grad[:n_pairs], grad[n_pairs:]
    return [_float_dot(row[:n_pairs], gp) - _float_dot(row[n_pairs:], gq) for row in rows]


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


def _pairing_multipliers(rows: list, rhs, n_pairs: int, coords):
    """M^-1 rhs, with M built from float-list gradient ``rows``; raises
    DegeneracyError unless the set is Second Class at ``coords`` by ``_second_class``."""
    m = pairing_matrix_of_rows(rows, n_pairs)
    det = pairing_det(m)
    if not _second_class(m, det):
        problem = (f"is singular (det={det:.3e})" if np.all(np.isfinite(m))
                   else "has a non-finite entry")
        raise DegeneracyError(
            f"constraint pairing matrix {problem}; system is not Second Class here",
            det=det, coords=np.array(coords))
    return _solve_pairing(m, rhs)


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


@lru_cache(maxsize=None)
def _shared_poisson_tensor(n_pairs: int) -> np.ndarray:
    """One read-only J per chart size, for dirac_tensor to add to its correction."""
    j = poisson_tensor(n_pairs)
    j.flags.writeable = False
    return j


def dirac_tensor(cs: ConstraintSet, x: PhaseSpacePoint) -> np.ndarray:
    """D_ab = {z_a, z_b}_D = J + S^T M^-1 S at x, with S_Ia = {Phi_I, z_a}.

    One stack of gradient rows and one guarded pairing solve serve every
    coordinate pair; with an empty constraint set D is the canonical J.
    """
    n = require_same_chart(cs, x).n_pairs
    if len(cs) == 0:
        return poisson_tensor(n)
    # overflowing gradients end in the guard's error, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        rows = cs.gradient_rows(x.coords.tolist())
    # S_I = {Phi_I, z} = (-dPhi_I/dp, dPhi_I/dq)
    s = np.array([[-v for v in row[n:]] + row[:n] for row in rows])
    return _shared_poisson_tensor(n) + s.T @ _pairing_multipliers(rows, s, n, x.coords)


def dirac_bracket(a: ScalarField, b: ScalarField, cs: ConstraintSet, x: PhaseSpacePoint) -> float:
    """{a,b}_D at x; with an empty constraint set this is the Poisson bracket."""
    return float(a.gradient(x) @ dirac_tensor(cs, x) @ b.gradient(x))


@dataclass(frozen=True)
class ObservableReport:
    max_abs: float
    per_constraint: dict[str, float]


def observable_check(a: ScalarField, cs: ConstraintSet,
                     samples: Sequence[PhaseSpacePoint]) -> ObservableReport:
    """Max |{a, Phi_I}_D| over samples; ~0 is the Second Class observable identity."""
    if len(cs) == 0:
        raise UsageError("an observable check needs at least one constraint")
    worst = np.zeros(len(cs))
    for x in samples:
        d = dirac_tensor(cs, x)
        rows = np.array(cs.gradient_rows(x.coords.tolist()))
        worst = np.maximum(worst, np.abs(a.gradient(x) @ d @ rows.T))
    per_constraint = dict(zip(cs.names, map(float, worst)))
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
    if k == 0:
        return 1.0
    rows = [f.gradient(x).tolist() for f in (*gauge_conditions, *constraints)]
    block = [row[k:] for row in pairing_matrix_of_rows(rows, x.chart.n_pairs)[:k]]
    # det of a 1x1 matrix by LU is not always its entry
    return float(np.linalg.det(block)) if k > 1 else block[0][0]


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
    chart = require_same_chart(gauge, constraint, x)
    i1, i2 = chart.index(pair_labels[0]), chart.index(pair_labels[1])
    g_chi = gauge.gradient(x)
    g_c = constraint.gradient(x)
    jac = g_chi[i1] * g_c[i2] - g_chi[i2] * g_c[i1]
    bracket = faddeev_popov_determinant([gauge], [constraint], x)
    return JacobianReport(jacobian_det=float(jac), bracket_value=bracket,
                          abs_diff=abs(float(jac) - bracket))

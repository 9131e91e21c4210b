"""A sample set is one batch: a PhaseSpacePoint of (n, dim) coordinates, validated once, and
``dirac_tensor``, its pairing guard and the bracket oracles run once on its columns. Each
property holds the batch call to its calls on the rows one by one: bitwise for two
constraints, the same error for the first failing row."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracmech.constraints import (DEGENERACY_RTOL, _column_multipliers, _pairing_multipliers,
                                   _solve_pairing, dirac_tensor)
from diracmech.errors import DiracMechError, NumericDomainError, UsageError
from diracmech.models import CustomModel, KlauderModel, RelativisticParticle
from diracmech.models.klauder import R_MIN
from diracmech.phase import PhaseSpacePoint

SEEDS = st.integers(0, 2**32 - 1)
COUNTS = st.integers(1, 24)
EPS = float(np.finfo(float).eps)


def outcome(fn, *args):
    """(value, None), or (None, (type, message, repr of det, coords)) of the error fn
    raises: a NaN det compares by its text."""
    try:
        return fn(*args), None
    except DiracMechError as err:
        coords = getattr(err, "coords", None)
        return None, (type(err), str(err), repr(getattr(err, "det", None)),
                      None if coords is None else np.asarray(coords).tobytes())


def per_row_and_columns(cs, batch):
    """D by ``dirac_tensor`` at each row and at the whole batch, as (n, dim, dim) arrays, or
    the error each raises."""
    rows, row_error = outcome(lambda: np.array([dirac_tensor(cs, x) for x in batch]))
    d, column_error = outcome(dirac_tensor, cs, batch)
    assert column_error == row_error
    if d is None:
        return None, None
    n, dim = len(batch.coords), batch.chart.dim
    columns = np.array([[np.broadcast_to(d[a][b], n) for b in range(dim)]
                        for a in range(dim)]).transpose(2, 0, 1)
    return rows, columns


def assert_oracle_columns_are_the_rows(model, batch):
    for pair in model.bracket_pairs:
        column = model.dirac_oracle(pair, batch)
        rows = [model.dirac_oracle(pair, x) for x in batch]
        if column is None:
            assert rows == [None] * len(rows)
        else:
            assert np.broadcast_to(column, len(rows)).tolist() == rows
            assert list(map(repr, np.broadcast_to(column, len(rows)).tolist())) == \
                list(map(repr, rows))  # -0.0 stays -0.0


@given(SEEDS, COUNTS, st.floats(0.1, 3.0), st.floats(-2.0, 2.0),
       st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)), st.floats(0.0, 50.0))
@settings(max_examples=60, deadline=None)
@example(seed=0, count=1, alpha=1.0, k=1.0, r_bounds=(0.1, 5.0), momentum=5.0)
def test_klauder_columns_are_the_per_point_route(seed, count, alpha, k, r_bounds, momentum):
    model = KlauderModel(alpha=alpha, k=k)
    batch = model.sample(np.random.default_rng(seed), count,
                         (min(r_bounds), max(r_bounds) + 0.05), (-momentum, momentum))
    rows, columns = per_row_and_columns(model.constraints_at(batch), batch)
    assert columns.tobytes() == rows.tobytes()
    assert_oracle_columns_are_the_rows(model, batch)


@given(SEEDS, COUNTS, st.floats(0.1, 5.0), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_particle_columns_are_the_per_point_route(seed, count, mass, spatial_dim):
    model = RelativisticParticle(mass=mass, spatial_dim=spatial_dim)
    batch = model.sample(np.random.default_rng(seed), count)
    rows, columns = per_row_and_columns(model.constraints_at(batch), batch)
    assert columns.tobytes() == rows.tobytes()
    assert_oracle_columns_are_the_rows(model, batch)


def custom_models(constraints: int, n_pairs: int):
    """Custom models of random polynomial constraints: up to three terms of degree <= 3
    each, so the gradients raise coordinates to powers up to 2."""
    dim = 2 * n_pairs
    term = st.tuples(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 1.5, 3.0]),
                     st.lists(st.integers(0, dim - 1), min_size=1, max_size=3)
                     .map(lambda factors: [factors.count(i) for i in range(dim)]))
    labels = tuple(f"q{i}" for i in range(n_pairs)) + tuple(f"p{i}" for i in range(n_pairs))
    return st.lists(st.lists(term, min_size=1, max_size=3), min_size=constraints,
                    max_size=constraints).map(lambda sets: CustomModel(labels, tuple(
                        (f"c{i}", tuple(terms)) for i, terms in enumerate(sets))))


@given(SEEDS, COUNTS, st.integers(1, 2).flatmap(lambda n: custom_models(2, n)))
@settings(max_examples=60, deadline=None)
def test_custom_two_constraint_columns_are_the_per_point_route(seed, count, model):
    batch = model.sample(np.random.default_rng(seed), count)
    rows, columns = per_row_and_columns(model.constraint_set, batch)
    if rows is not None:  # else both routes raised the same error at the same row
        assert columns.tobytes() == rows.tobytes()
    assert_oracle_columns_are_the_rows(model, batch)


@given(SEEDS, COUNTS, st.integers(2, 3).flatmap(lambda n: custom_models(4, n)))
@settings(max_examples=40, deadline=None)
def test_custom_four_constraint_columns_are_the_per_point_route(seed, count, model):
    # numpy's LU of every row's M at once, against its LU of each M: host-dependent in the
    # last bits, so a bound relative to the row's largest entry of D stands in for the bits
    batch = model.sample(np.random.default_rng(seed), count)
    rows, columns = per_row_and_columns(model.constraint_set, batch)
    if rows is not None:
        scale = np.abs(rows).max(axis=(1, 2), keepdims=True)
        assert np.all(np.abs(columns - rows) <= 64 * EPS * scale)


def stack_columns(stack):
    """The (n, k, k) stack as nested lists of (n,) columns, as the tensor function holds M."""
    return [[stack[:, i, j] for j in range(stack.shape[2])] for i in range(stack.shape[1])]


def near_threshold(rng, ulps):
    """2x2 pairing matrices [[0, a], [-a, 0]] and general diagonals whose det a^2 lies within
    ``ulps`` units of DEGENERACY_RTOL * max(1, prod of row norms), on both sides."""
    a = np.sqrt(DEGENERACY_RTOL) * (1.0 + rng.integers(-ulps, ulps + 1, 8) * EPS)
    stack = np.zeros((8, 2, 2))
    stack[:, 0, 1], stack[:, 1, 0] = a, -a
    stack[4:, 0, 0] = rng.uniform(-1e-6, 1e-6, 4)  # the norms stay below 1: the floor scale
    return stack


def overflowing(rng):
    """2x2 and 4x4 matrices whose product of row norms overflows: the rescaled branch."""
    big = 10.0 ** rng.uniform(154, 300, (8, 2, 2)) * rng.choice([-1.0, 1.0], (8, 2, 2))
    big[:, 0, 0] = big[:, 1, 1] = 0.0
    big[:, 1, 0] = -big[:, 0, 1]
    big[::3, 0, 1] *= 1e-200  # some with a tiny pairing entry beside a huge diagonal
    big[::3, 0, 0] = 1e300
    return big


@given(SEEDS, st.sampled_from(["random", "near", "overflow", "nonfinite", "four"]))
@settings(max_examples=150, deadline=None)
@example(seed=0, kind="near")
@example(seed=1, kind="overflow")
@example(seed=19960647, kind="nonfinite")  # a NaN det
def test_column_guard_decides_every_row_as_second_class(seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "near":
        stack = near_threshold(rng, 4)
    elif kind == "overflow":
        stack = overflowing(rng)
    elif kind == "four":
        half = rng.normal(size=(6, 4, 4)) * 10.0 ** rng.integers(-8, 3, (6, 1, 1))
        stack = half - half.transpose(0, 2, 1)
        stack[::2, 3] = stack[::2, 2] * (1.0 + rng.integers(-2, 3) * EPS)  # near singular
        stack[::2, :, 3] = -stack[::2, 3]
        stack[::2, 3, 3] = 0.0
    else:
        half = rng.normal(size=(8, 2, 2)) * 10.0 ** rng.integers(-12, 4, (8, 1, 1))
        stack = half - half.transpose(0, 2, 1)
        if kind == "nonfinite":
            stack[rng.integers(0, 8), 0, rng.integers(0, 2)] = rng.choice([np.nan, np.inf])
    n, k = stack.shape[:2]
    coords = [rng.normal(size=n) for _ in range(4)]
    rhs = [[rng.normal(size=n), rng.normal(size=n)] for _ in range(k)]
    expected = None
    for i in range(n):  # the per-point route, row by row until the first failure
        _, expected = outcome(_pairing_multipliers, stack[i].tolist(), [0.0] * k,
                              [c[i] for c in coords])
        if expected is not None:
            break
    with np.errstate(all="ignore"):
        multipliers, error = outcome(_column_multipliers, stack_columns(stack), rhs, coords)
    assert error == expected
    if error is None and k == 2:  # the closed form on columns is the float one's bits
        for i in range(n):
            row = _solve_pairing(stack[i].tolist(), [[v[i] for v in s] for s in rhs])
            assert [[v[i] for v in s] for s in multipliers] == row


def point_error(chart, coords):
    """The outcome of the per-point validation that batches were once held to, as ``outcome``
    gives it: the shape, then a non-finite entry (the first), then the chart's domain."""
    coords = np.array(coords, dtype=float)
    if coords.shape != (chart.dim,):
        return UsageError, (f"point needs {chart.dim} coordinates for chart {chart.name!r}, "
                            f"got shape {coords.shape}"), "None", None
    if not np.isfinite(coords).all():
        bad = chart.labels[int(np.argmin(np.isfinite(coords)))]
        return NumericDomainError, f"non-finite coordinate {bad!r}", "None", None
    if chart.domain is not None and not chart.domain(coords):
        return NumericDomainError, (f"point violates domain of chart {chart.name!r}" + (
            f" ({chart.domain_description})" if chart.domain_description else "")), "None", None
    return None


# charts with a domain on one coordinate (its index, and values outside it) and without one
CHARTS = {"polar": (KlauderModel().polar_chart, 0, [0.0, R_MIN, -1.0]),
          "reduced": (KlauderModel(k=0.0).reduced_chart, 1, [0.0, -0.0]),
          "minkowski": (RelativisticParticle(mass=1.0, spatial_dim=1).full_chart, None, [])}


@given(SEEDS, st.integers(1, 8), st.sampled_from(sorted(CHARTS)), st.lists(st.sampled_from(
    ["ok", "nan", "inf", "-inf", "domain", "short", "long"]), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
@example(seed=0, count=3, chart="polar", faults=["domain", "nan"])
@example(seed=0, count=2, chart="minkowski", faults=["short"])
def test_batch_validation_raises_the_first_bad_rows_error(seed, count, chart, faults):
    # a point and a batch against the per-point validation of each row in turn
    rng = np.random.default_rng(seed)
    chart, column, outside = CHARTS[chart]
    coords = rng.uniform(0.1, 5.0, (count, chart.dim))
    for fault in faults:
        i, j = rng.integers(0, count), rng.integers(0, chart.dim)
        if fault == "domain" and column is not None:
            coords[i, column] = outside[rng.integers(0, len(outside))]
        elif fault in ("nan", "inf", "-inf"):
            coords[i, j] = float(fault)
    if "short" in faults:  # every row one coordinate short, or one too many
        coords = coords[:, :-1]
    elif "long" in faults:
        coords = np.hstack([coords, coords[:, :1]])
    expected = None
    for row in coords:
        point, error = outcome(PhaseSpacePoint, chart, row)
        assert error == point_error(chart, row)
        if error is None:
            assert point.coords.tobytes() == row.tobytes() and not point.coords.flags.writeable
        if expected is None:
            expected = error
    batch, error = outcome(PhaseSpacePoint, chart, coords)
    assert error == expected
    if error is None:
        assert batch.coords.tobytes() == coords.tobytes()
        assert not batch.coords.flags.writeable


def test_a_degenerate_row_raises_the_per_point_error_of_the_first_one():
    # {q, p^2 - c} pairs to 2p, singular where p = 0: rows 1 and 3 are, row 1 raises
    model = CustomModel(("q", "p"), (("q", ((1.0, (1, 0)),)), ("p2", ((1.0, (0, 2)),))))
    batch = PhaseSpacePoint(model.chart, [[1.0, 2.0], [0.5, 0.0], [2.0, -1.0], [3.0, 0.0]])
    assert per_row_and_columns(model.constraint_set, batch) == (None, None)  # the same error
    with pytest.raises(DiracMechError, match=r"is singular \(det=0.000e\+00\)") as raised:
        dirac_tensor(model.constraint_set, batch)
    assert raised.value.coords.tolist() == [0.5, 0.0]


def test_klauder_oracle_squares_are_products_bitwise():
    # libm's pow is not correctly rounded, so p ** 2 and p * p differ at some points: the
    # oracle forms each square as a product, as numpy does on a column
    model = KlauderModel(alpha=1.3, k=0.7)
    batch = model.sample(np.random.default_rng(7), 2000, (0.1, 5.0), (-5.0, 5.0))
    for x, (r, _, p_r, p_phi) in zip(batch, batch.coords.tolist()):
        denom = p_phi * p_phi + (r * p_r) * (r * p_r) + (1.3 * r * r) * (1.3 * r * r)
        for pair, other, sign in ((("r", "phi"), r, 1.0), (("phi", "r"), r, -1.0),
                                  (("phi", "p_r"), p_r, 1.0), (("p_r", "phi"), p_r, -1.0)):
            assert repr(model.dirac_oracle(pair, x)) == repr(sign * (-other * p_phi / denom))

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from diracmech import cli, duals
from diracmech.fields import ScalarField
from diracmech.verify import _random_poly as random_polynomial  # noqa: F401  (same draws)

CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


@pytest.fixture
def rng():
    return np.random.default_rng(941)


def fd_poisson_bracket(a, b, coords, step=None):
    """Independent bracket oracle: central differences of field *values* only.

    Never touches the gradient machinery under test.
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords) // 2

    def fd_grad(field):
        h = step if step is not None else CBRT_EPS * np.maximum(1.0, np.abs(coords))
        if np.isscalar(h):
            h = np.full(len(coords), float(h))
        g = np.empty(len(coords))
        for i in range(len(coords)):
            up, dn = np.array(coords), np.array(coords)
            up[i] += h[i]
            dn[i] -= h[i]
            g[i] = (float(field.func(up)) - float(field.func(dn))) / (up[i] - dn[i])
        return g

    ga, gb = fd_grad(a), fd_grad(b)
    return float(ga[:n] @ gb[n:] - gb[:n] @ ga[n:])


def assert_closed_form_equals_duals(field, points):
    """The field's traced gradient equals the dual route under == at every point."""
    assert field.grad is None and field._trace is not None, field.name
    for z in points:
        z = np.asarray(z, dtype=float)
        closed, dual = field.gradient_at(z), duals.gradient(field.func, z)
        assert np.array_equal(closed, dual), (field.name, z, closed, dual)


def assert_closed_form_finite_like_duals(field, points):
    """At overflow-prone points the traced gradient is finite exactly where the dual
    route is, names the same first non-finite coordinate, agrees where finite,
    and emits no numpy warning. Returns the number of all-finite points."""
    assert field.grad is None and field._trace is not None, field.name
    finite = 0
    for z in points:
        z = np.asarray(z, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = field.gradient_at(z)
        with np.errstate(all="ignore"):
            dual = duals.gradient(field.func, z)
        ok_closed, ok_dual = np.isfinite(closed), np.isfinite(dual)
        assert ok_closed.all() == ok_dual.all(), (field.name, z, closed, dual)
        if ok_dual.all():
            finite += 1
            assert np.array_equal(closed, dual), (field.name, z, closed, dual)
        else:
            assert np.argmin(ok_closed) == np.argmin(ok_dual), (field.name, z, closed, dual)
    return finite


def array_twin(field):
    """``field`` with a ``grad`` that returns its gradient as a float64 array: a user
    ``grad`` the package reads with the bits of the list its own fields return."""
    return ScalarField(field.name, field.chart, field.func,
                       lambda z, gradient=field._gradient: np.array(gradient(z)))


def array_twin_set(cs):
    """The constraint set ``cs`` with every field replaced by its array twin."""
    return dataclasses.replace(cs, fields=tuple(map(array_twin, cs.fields)))


def log_uniform(rng, low_exp, high_exp, size):
    """Random signs times 10**U(low_exp, high_exp)."""
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(low_exp, high_exp, size)


def fresh_models(monkeypatch):
    """Give the CLI an empty model cache of its own, of the same bound, until the test ends:
    a kept model holds the gradient routes it bound when it was built, before any patch of
    the test, and the models the test builds, bound to its patches, are dropped with it."""
    monkeypatch.setattr(cli, "_model", functools.lru_cache(**cli._model.cache_parameters())(
        cli._model.__wrapped__))


def refuse_duals(monkeypatch):
    """Make a dual pass at a point fail the test; a trace's one pass, on traced values, runs.
    The CLI builds the test's models afresh, so they bind the refusing pass."""
    gradient = duals.gradient
    fresh_models(monkeypatch)

    def refuse(func, coords):
        if not isinstance(coords[0], duals._Traced):
            raise AssertionError("the dual engine ran")
        return gradient(func, coords)

    monkeypatch.setattr(duals, "gradient", refuse)


def on_shell_point(particle, x_spatial, p_spatial):
    """The positive-energy point (0, x, p0, p) with p0 = ``particle.energy(p)``."""
    return particle.full_chart.point([0.0, *x_spatial, particle.energy(p_spatial), *p_spatial])

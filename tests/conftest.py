import numpy as np
import pytest

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
            g[i] = (field.value_at(up) - field.value_at(dn)) / (up[i] - dn[i])
        return g

    ga, gb = fd_grad(a), fd_grad(b)
    return float(ga[:n] @ gb[n:] - gb[:n] @ ga[n:])

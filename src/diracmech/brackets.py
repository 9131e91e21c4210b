"""The canonical Poisson bracket.

{A,B} = sum_i (dA/dq_i dB/dp_i - dB/dq_i dA/dp_i), evaluated from the fields'
gradient maps. The raw helpers operate on gradient vectors so constraint
machinery and integrators can reuse gradients they already hold.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .fields import ScalarField, central_difference_gradient
from .phase import PhaseSpacePoint, require_point, require_same_chart


def bracket_of_gradients(ga: list, gb: list, n_pairs: int) -> float:
    """ga . J gb, J gb = (dB/dp, -dB/dq), as one correctly rounded sum of its 2N products."""
    n = n_pairs
    return math.fsum(map(mul, ga, [*gb[n:], *(-v for v in gb[:n])]))


def poisson_tensor(n_pairs: int) -> np.ndarray:
    """J_ab = {z_a, z_b}; a difference of shifted identities, so no zero is -0.0."""
    return np.eye(2 * n_pairs, k=n_pairs) - np.eye(2 * n_pairs, k=-n_pairs)


def poisson_bracket(a: ScalarField, b: ScalarField, x: PhaseSpacePoint) -> float:
    n = require_point(a, b, x).n_pairs
    return bracket_of_gradients(a.gradient(x), b.gradient(x), n)


def poisson_bracket_field(a: ScalarField, b: ScalarField) -> ScalarField:
    """{a,b} as a derived field with a central-difference ``grad``.

    Used for nested brackets (Jacobi probes): the derived field's value is the
    bracket itself and its gradient is taken by finite differences of bracket
    values, independent of any analytic route.
    """
    chart = require_same_chart(a, b)
    n = chart.n_pairs

    def func(z, a=a, b=b, n=n):
        z = np.asarray(z, dtype=float)
        if z.ndim > 1:  # a (dim, B) block: gradients are taken one state at a time
            return np.array([func(state) for state in z.T])
        return bracket_of_gradients(a._gradient(z.tolist()), b._gradient(z.tolist()), n)

    return ScalarField(name=f"{{{a.name},{b.name}}}", chart=chart, func=func,
                       grad=lambda z, f=func: central_difference_gradient(f, z).tolist())

"""Forward-mode differentiation with dual numbers.

A :class:`Dual` carries a value together with a tangent vector and every
arithmetic operation propagates both. Seeding the coordinates of a point with
unit tangents therefore yields the exact gradient of any expression composed
from the operations below, at the cost of one evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericDomainError


class Dual:
    __slots__ = ("val", "eps")

    # keep numpy scalars from absorbing duals into object arrays; binary ops
    # then fall back to the __r*__ methods below
    __array_ufunc__ = None

    def __init__(self, val, eps):
        self.val = float(val)
        self.eps = eps  # 1-D float ndarray, owned by the arithmetic below

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.eps + other.eps)
        return Dual(self.val + float(other), self.eps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.eps - other.eps)
        return Dual(self.val - float(other), self.eps)

    def __rsub__(self, other):
        return Dual(float(other) - self.val, -self.eps)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.val * other.eps + other.val * self.eps)
        c = float(other)
        return Dual(self.val * c, c * self.eps)

    __rmul__ = __mul__

    # a zero divisor, an overflowing power or a complex power raises
    # NumericDomainError naming the operation and its operands
    def __truediv__(self, other):
        den = value(other)
        try:
            inv = 1.0 / den
        except ZeroDivisionError as err:
            raise division_error(self.val, den) from err
        if isinstance(other, Dual):
            return Dual(self.val * inv,
                        (self.eps - (self.val * inv) * other.eps) * inv)
        return Dual(self.val * inv, self.eps * inv)

    def __rtruediv__(self, other):
        c = float(other)
        try:
            inv = 1.0 / self.val
        except ZeroDivisionError as err:
            raise division_error(c, self.val) from err
        return Dual(c * inv, (-c * inv * inv) * self.eps)

    def __pow__(self, n):
        if isinstance(n, Dual):
            raise TypeError("dual exponents are not supported")
        n = float(n)
        if n == 2.0:
            return Dual(self.val * self.val, (2.0 * self.val) * self.eps)
        try:
            v = self.val ** n
            slope = n * self.val ** (n - 1.0)
        except (ZeroDivisionError, OverflowError) as err:
            raise NumericDomainError(f"({self.val!r}) ** {n!r}: {err.args[-1]}") from err
        if isinstance(v, complex):  # a negative base to a fractional power
            raise NumericDomainError(f"({self.val!r}) ** {n!r}: complex result")
        return Dual(v, slope * self.eps)

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __pos__(self):
        return self

    # comparisons act on values so domain guards work inside field code
    def __lt__(self, other):
        return self.val < value(other)

    def __le__(self, other):
        return self.val <= value(other)

    def __gt__(self, other):
        return self.val > value(other)

    def __ge__(self, other):
        return self.val >= value(other)


def division_error(num, den) -> NumericDomainError:
    """The error for ``num / den`` with a zero ``den``, on duals and closed forms alike."""
    return NumericDomainError(f"{num!r} / {den!r}: division by zero")


def value(x):
    """Plain float value of ``x``, whether dual or not."""
    return x.val if isinstance(x, Dual) else float(x)


def seed(coords):
    """Duals for ``coords`` with the identity as tangent basis."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    basis = np.eye(n)
    return [Dual(coords[i], basis[i]) for i in range(n)]


def gradient(func, coords):
    """Exact gradient of ``func`` at ``coords`` by one forward pass, as Python floats."""
    out = func(seed(coords))
    if isinstance(out, Dual):
        return out.eps.tolist()
    # constant expressions degrade to plain floats
    return [0.0] * len(coords)


# math's domain, range and division errors re-raise as NumericDomainError;
# the try costs nothing on the non-raising path
_MATH_ERRORS = (ValueError, OverflowError, ZeroDivisionError)


def _lift(fn, tangent):
    """``fn`` on floats and duals; ``tangent(v, x)`` is the tangent of a dual ``x``
    with value ``v = fn(x.val)``."""
    name = fn.__name__

    def lifted(x):
        try:
            if isinstance(x, Dual):
                v = fn(x.val)
                return Dual(v, tangent(v, x))
            return fn(x)
        except _MATH_ERRORS as err:
            raise NumericDomainError(f"{name}({value(x)!r}): {err}") from err

    lifted.__name__ = lifted.__qualname__ = name
    return lifted


sqrt = _lift(math.sqrt, lambda v, x: (0.5 / v) * x.eps)
exp = _lift(math.exp, lambda v, x: v * x.eps)
log = _lift(math.log, lambda v, x: x.eps / x.val)
sin = _lift(math.sin, lambda v, x: math.cos(x.val) * x.eps)
cos = _lift(math.cos, lambda v, x: -math.sin(x.val) * x.eps)
sinh = _lift(math.sinh, lambda v, x: math.cosh(x.val) * x.eps)
cosh = _lift(math.cosh, lambda v, x: math.sinh(x.val) * x.eps)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yv, xv = value(y), value(x)
        denom = xv * xv + yv * yv
        ye = y.eps if isinstance(y, Dual) else 0.0
        xe = x.eps if isinstance(x, Dual) else 0.0
        return Dual(math.atan2(yv, xv), (xv * ye - yv * xe) / denom)
    return math.atan2(y, x)

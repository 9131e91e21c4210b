"""Forward-mode differentiation with dual numbers.

A :class:`Dual` carries a value together with a sparse tangent, the partials an operation
reached by coordinate index, and every arithmetic operation propagates both. Seeding the
coordinates of a point with unit tangents therefore yields the exact gradient of any
expression composed from the operations below, at the cost of one evaluation (sparse forward
mode, Griewank & Walther, *Evaluating Derivatives*, ch. 7).

``trace`` records gradient routes once as straight-line float code, run on values that name
their floats (source transformation, ibid., ch. 6): the dual pass, recorded as it runs, or a
registered grad's own operations, a flow's routes on one tape that records each operation once.
"""

from __future__ import annotations

import math
import struct
from collections import Counter

import numpy as np

from .errors import NumericDomainError


class Dual:
    __slots__ = ("val", "eps")

    # keep numpy scalars from absorbing duals into object arrays; binary ops
    # then fall back to the __r*__ methods below
    __array_ufunc__ = None

    def __init__(self, val, eps):
        self.val = val if val.__class__ is _Traced else float(val)
        self.eps = eps  # a _Tangent, owned by the arithmetic below

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
    """The error for ``num / den`` with a zero ``den``."""
    return NumericDomainError(f"{num!r} / {den!r}: division by zero")


def value(x):
    """Plain float value of ``x``, whether dual or not."""
    return x.val if isinstance(x, Dual) else float(x)


def seed(coords):
    """Duals for ``coords``, coordinate j with the unit tangent of entry j."""
    return [Dual(x, _Tangent({j: 1.0})) for j, x in enumerate(coords)]


def gradient(func, coords):
    """Exact gradient of ``func`` at ``coords`` by one forward pass, as Python floats; at a
    batch's (n,) columns, each row's in turn (the first bad row raises), as columns."""
    if isinstance(coords[0], np.ndarray):
        return list(np.array([gradient(func, row) for row in zip(*coords)]).T)
    out = func(seed(coords))
    eps = out.eps if isinstance(out, Dual) else {}  # a constant expression gives a float
    return [eps.get(j, 0.0) for j in range(len(coords))]


# math's domain, range and division errors re-raise as NumericDomainError;
# the try costs nothing on the non-raising path
_MATH_ERRORS = (ValueError, OverflowError, ZeroDivisionError)
LIFTS = {}  # each math function a trace calls -> its lift, which also takes a block


def _apply(fn, x):
    """fn(x) on a float; on a traced value, the call recorded with fn handed in."""
    return x.emit("{}({})", _constant(x.tape, fn), x) if x.__class__ is _Traced else fn(x)


def _lift(fn, tangent):
    """``fn`` on floats, duals and blocks of states; ``tangent(v, x)`` is the tangent of a
    dual ``x`` with value ``v = fn(x.val)``."""
    name = fn.__name__

    def lifted(x):
        try:
            if isinstance(x, Dual):
                v = _apply(fn, x.val)
                return Dual(v, tangent(v, x))
            if isinstance(x, np.ndarray):  # libm entry by entry: each point keeps its bits
                return np.array(np.frompyfunc(fn, 1, 1)(x), dtype=float)
            return fn(x)
        except _MATH_ERRORS as err:
            if isinstance(x, np.ndarray):  # the error of the first bad entry
                np.frompyfunc(lifted, 1, 1)(x)
            raise NumericDomainError(f"{name}({value(x)!r}): {err}") from err

    lifted.__name__ = lifted.__qualname__ = name
    LIFTS[fn] = lifted
    return lifted


sqrt = _lift(math.sqrt, lambda v, x: (0.5 / v) * x.eps)
exp = _lift(math.exp, lambda v, x: v * x.eps)
log = _lift(math.log, lambda v, x: x.eps / x.val)
sin = _lift(math.sin, lambda v, x: _apply(math.cos, x.val) * x.eps)
cos = _lift(math.cos, lambda v, x: -_apply(math.sin, x.val) * x.eps)
sinh = _lift(math.sinh, lambda v, x: _apply(math.cosh, x.val) * x.eps)
cosh = _lift(math.cosh, lambda v, x: _apply(math.sinh, x.val) * x.eps)


def atan2(y, x):
    if isinstance(y, Dual) or isinstance(x, Dual):
        yv, xv = value(y), value(x)
        ye, xe = (v.eps if isinstance(v, Dual) else _Tangent() for v in (y, x))
        try:
            return Dual(math.atan2(yv, xv), (xv * ye - yv * xe) / (xv * xv + yv * yv))
        except ZeroDivisionError as err:  # y = x = 0, or their squares underflow
            raise NumericDomainError(f"atan2({yv!r}, {xv!r}): division by zero") from err
    if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):  # as a lift takes a block
        return np.array(np.frompyfunc(math.atan2, 2, 1)(y, x), dtype=float)
    return math.atan2(y, x)


class _Traced:
    """A float of a traced pass: a constant (value,), else an input or a temporary of the
    code its tape records. It has no ==, !=, order, truth value or float(), so a func that
    branches on a value or leaves the dual helpers raises while traced. Its hash is its
    identity: the tape compares two only on a full hash collision, and keeps the dual pass."""

    __slots__ = ("tape", "value")
    __hash__ = object.__hash__

    def __init__(self, tape, value=None):
        self.tape, self.value = tape, value

    def __eq__(self, other=None):  # != inverts ==, so it raises too
        raise TypeError("a traced value has no comparison and no truth value")

    __bool__ = __eq__

    def emit(self, template, *operands):  # the tape maps each operation, once, to its result
        return self.tape.setdefault((template, operands), _Traced(self.tape))

    def __neg__(self):
        return self.emit("-{}", self)

    def __pow__(self, n):  # an int exponent only: Dual's float one leaves a dual pass untraced
        return (self.emit("{} ** {}", self, _constant(self.tape, float(n)))
                if n.__class__ is int else NotImplemented)


def _constant(tape, v):  # the tape's constant v: one per float's bits (-0.0 isn't 0.0) or fn
    return tape.setdefault(v if callable(v) else struct.pack("d", v), _Traced(tape, (v,)))


def _recorded(template, reflected=False):
    fold = template == "{} * {}"  # x * 1.0 is x, bit for bit, for every float x

    def op(self, other):  # a float operand is a constant the code is handed
        if other.__class__ is not _Traced:
            if not isinstance(other, (int, float)):
                return NotImplemented
            other = _constant(self.tape, float(other))
        a, b = (other, self) if reflected else (self, other)
        if fold and (1.0,) in (a.value, b.value):
            return b if a.value == (1.0,) else a
        return a.tape.setdefault((template, (a, b)), _Traced(a.tape))
    return op


for _name, _sign in (("add", "+"), ("sub", "-"), ("mul", "*"), ("truediv", "/")):
    setattr(_Traced, f"__{_name}__", _recorded(f"{{}} {_sign} {{}}"))
    setattr(_Traced, f"__r{_name}__", _recorded(f"{{}} {_sign} {{}}", True))


class _Tangent(dict):
    """A dual's tangent, index -> float or traced value, of the entries an operation reached:
    the others are structural zeros, which it skips; a - b has 0.0 - b_j where only b has j."""

    __add__ = lambda a, b: _Tangent({**b, **a, **{j: a[j] + b[j] for j in a if j in b}})
    __sub__ = lambda a, b: _Tangent({**{j: 0.0 - v for j, v in b.items() if j not in a}, **a,
                                     **{j: a[j] - b[j] for j in a if j in b}})
    __neg__ = lambda a: _Tangent({j: -v for j, v in a.items()})
    __mul__ = lambda a, s: _Tangent({j: v * s for j, v in a.items()})
    __rmul__ = lambda a, s: _Tangent({j: s * v for j, v in a.items()})
    __truediv__ = lambda a, s: _Tangent({j: v / s for j, v in a.items()})


def trace(routes, dim):
    """The float operations of the gradient ``routes`` at dim coordinates as ((lines, outputs,
    count), constants), each route run once, on one tape, on values that name their floats:
    lines "t3 = t1 * c2" over the inputs x0.. and the count constants c0.. (each bit pattern of
    a float and each lift's math function), those the outputs need and every division, power
    and call (which may raise), each once however many routes run it, a temporary read once
    written into its reader; outputs a tuple of entries per route, one name for an entry two
    routes share. A route that raises while traced (it compares, tests or converts a value, or
    calls what is not recorded), or returns anything but a list of floats or traced values,
    leaves the tape as it was and has outputs None; None where every route does (the caller
    holds each length to dim). A dual pass, ``partial(gradient, func)``, is recorded as it runs
    on its sparse tangents, so the code gives the pass's bits."""
    tape, entries = {}, []
    seeds = [_Traced(tape) for _ in range(dim)]
    for grad in routes:
        start = len(tape)
        try:
            outputs = grad(list(seeds))
        except Exception:
            outputs = None
        if outputs.__class__ is list and not {v.__class__ for v in outputs} - {float, _Traced}:
            entries.append([v if v.__class__ is _Traced else _constant(tape, v) for v in outputs])
        else:  # refused: its operations are no other route's
            entries.append(None)
            for key in list(tape)[start:]:
                del tape[key]
    if not any(entries):
        return None
    ops = [(op, t) for op, t in tape.items() if op.__class__ is tuple]  # not the constants
    outputs = [v for e in entries if e for v in e]
    # every division, call and power may raise, so is kept
    live = {*outputs, *(t for (op, _), t in ops if "/" in op or "(" in op or "**" in op)}
    kept = [(t, op) for op, t in reversed(ops) if t in live and not live.update(op[1])]
    kept.reverse()
    names = {**{x: f"x{j}" for j, x in enumerate(seeds)},
             **{t: f"t{i}" for i, (t, _) in enumerate(kept)}}
    constants = []

    def name(v):  # the constants c0.. in order of first use
        if v not in names:
            names[v] = f"c{len(constants)}"
            constants.append(v.value[0])
        return names[v]

    reads, lines = Counter([*outputs, *(v for _, (_, operands) in kept for v in operands)]), []
    for t, (template, operands) in kept:
        text = template.format(*map(name, operands))
        if reads[t] == 1:  # read once, by a later line or as an entry: written into it
            names[t] = f"({text})"
        else:
            lines.append(f"{names[t]} = {text}")
    outputs = tuple(None if e is None else tuple(map(name, e)) for e in entries)
    return (tuple(lines), outputs, len(constants)), tuple(constants)

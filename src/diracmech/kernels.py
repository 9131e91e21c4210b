"""Generated float kernels, as ``namedtuple`` and ``dataclasses`` generate theirs: the whole
RK4 loop of each flow kind (Poisson, gauge and Dirac), a traced gradient, the pairing matrix
and the Dirac tensor. This module imports nothing from the package, and each kernel is
compiled in a namespace of its own: it reads the builtins and what it is handed.

For each kind, chart size n, constraint count k (a gauge multiplier's coefficient count) and
the structure of the flow's joint trace (its constants, one per bit pattern, are handed in),
the source is written out over the 2n coordinates, compiled at the first call that needs it,
and kept among the ``_KERNELS_KEPT`` most recently used. A flow's RK4 loop holds its
right-hand side's body four times, once per stage, with the trace of its gradient routes
written in (a dual pass's, or a grad's own) and each Dirac sum whose products read an earlier
sum's traced values taken from it: an error there calls every route and takes every sum, the
dual pass raising its own error and a grad giving its values (a polynomial's signed inf for
an overflowing power). A stage calls only a route the tracer refuses, and stage 3 reads stage
2's gauge multiplier. While n (k + 2)^2 <= 128 (up to 64
coordinates for the Poisson and gauge flows, up to 16 for two constraints) every list entry
and sum term is spelled out, which spares a step on a few coordinates the zips, slices and
loop counters that cost more than its arithmetic; past that, each list is one comprehension
and each sum one loop. Both forms keep the order of every sum, so they give the same bits.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import Optional

# A generated function for n pairs and k constraints (k = 0 for the Poisson and gauge kinds)
# is spelled out while n (k + 2)^2 <= _UNROLL_TERMS: a bound on the n (k^2 + 4k) product
# terms of a Dirac stage's sums and correction. Spelled out at n = 32 and k = 64, one Dirac
# stage's body took 0.7-0.9 s and 165 MiB to build (its loop form 0.1 s and 29 MiB; Python
# 3.11 on a 2-core x86-64 host), and past n = 2048 a sum's chain of additions is too deep for
# the compiler (RecursionError).
_UNROLL_TERMS = 128
# compiled kernels kept, least recently used dropped first: a ``verify all`` pass builds 19
# (a loop calls a traced gradient's route only on an error, which compiles its own kernel
# then), an evolve or brackets run at most 9, and each polynomial structure evolved one more
_KERNELS_KEPT = 64


def _source(kind: str, n: int, k: int = 0, trace: Optional[tuple] = None) -> str:
    """Python source of the function ``kind`` for a chart of n pairs.

    ``pairing(rows)`` returns M for k gradient rows. Each flow kind builds one kernel, its RK4
    loop: the factories ``poisson(gradient)``, ``gauge(gradient, coeffs)`` (lambda(t)'s k
    polynomial coefficients, constant first) and ``dirac(grad_h, grads, rates, solve, rtol)``
    (k constraints, any even count, their k constant rates dPhi_I/dt, added to {Phi_I, H}, and
    ``solve(m, s, z)``, the guarded solve of M) each return ``run(z, dt, start, stop, limit,
    rows)``: classic RK4 from the state list z at step ``start``, the flow's right-hand side
    written into each of its four stages, which appends each new state list to ``rows`` and
    returns the first step whose state has an entry past ``limit`` (or NaN), else ``stop``.
    With two constraints a Dirac stage takes solve's test and closed form itself where
    M = [[0, d], [-d, 0]] and d d < inf: hypot(0, d) = |d| makes the guard's scale max(d d, 1),
    so |det| > rtol scale holds exactly when d d > rtol. The factory ``tensor(grads, solve)``
    returns ``d(z)``, the Dirac tensor D as nested lists for any k, of floats or of a batch's
    columns: one solve, on M and S. Each sum runs from +0.0 in index order (an entry of D from
    its first product) and each list in coordinate order, unrolled or in a loop, so both forms
    give the same bits.

    With ``trace``, the ``duals.trace`` structure of the kind's gradient routes together (H's
    first; a route's entries None where it is called), its lines and entries are written in,
    its constants read from the factory's ``consts``; ``gradient(gradient, consts)`` returns
    one traced gradient ``traced(z)``, whose route ``gradient`` is the dual pass.
    """
    dim = 2 * n
    unrolled = n * ((0 if kind == "gauge" else k) + 2) ** 2 <= _UNROLL_TERMS

    def at(i):  # the {q} and {p} suffixes of entry i: a local name, or an index in a loop
        return {"q": f"_{i}", "p": f"_{n + i}"} if unrolled else {"q": "[i]", "p": f"[{n} + i]"}

    def vector(*parts):  # (template, count) parts: the list of every entry of each in turn
        if unrolled:
            return "[" + ", ".join(t.format(**at(i)) for t, c in parts for i in range(c)) + "]"
        return " + ".join(f"[{t.format(**at(None))} for i in range({c})]" for t, c in parts)

    def assign(name, *parts):  # the vector of parts to name: unrolled, entry j to {name}_j
        if not unrolled:
            return [f"{name} = {vector(*parts)}"]
        return [f"{name}_{j} = {e}"
                for j, e in enumerate(t.format(**at(i)) for t, c in parts for i in range(c))]

    def listed(name):  # the list of name's entries
        return "[" + ", ".join(f"{name}_{j}" for j in range(dim)) + "]" if unrolled else name

    def read(name, value):  # unrolled, entry j is then the local {name}_j
        return (", ".join(f"{name}_{j}" for j in range(dim)) if unrolled else name) + f" = {value}"

    def sums(terms):  # each name set to the sum of its template over i < n (none for k = 0)
        if unrolled or not terms:
            return [f"{name} = 0.0" + "".join(f" + {t.format(**at(i))}" for i in range(n))
                    for name, t in terms.items()]
        return ([" = ".join(terms) + " = 0.0", f"for i in range({n}):"]
                + [f"    {name} += {t.format(**at(None))}" for name, t in terms.items()])

    # M = a - a^T, a_IJ = q_I . p_J for the q and p halves of row I = grad Phi_I; a NaN
    # diagonal marks a non-finite row for the guard. Entry j of row I is r{I}_{j} and a_IJ
    # is a{I}_{J}, so no two (I, J) share a name
    cs = range(k)
    pairs = {f"a{i}_{j}": f"r{i}{{q}} * r{j}{{p}}" for i in cs for j in cs}
    matrix = "[" + ", ".join("[" + ", ".join(f"a{i}_{j} - a{j}_{i}" for j in cs) + "]"
                             for i in cs) + "]"
    if kind == "pairing":
        body = [*(read(f"r{i}", f"rows[{i}]") for i in cs), *sums(pairs), f"return {matrix}"]
        return "\n    ".join(["def pairing(rows):", *body])
    unpack = "".join(f"grad_{i}, " for i in cs) + "= grads"  # one name per constraint gradient
    if kind == "tensor":
        # S_I = {Phi_I, z} = (-dPhi_I/dp, dPhi_I/dq), L = M^-1 S from solve, and
        # D_ab = J_ab + (S_0a L_0b + S_1a L_1b + ...) left to right; J_ab is 1.0 where
        # b = a + n, -1.0 where a = b + n and 0.0 elsewhere
        def plus(products):  # "J_ab + (products)", or J_ab alone with no constraint
            return " + (" + " + ".join(products) + ")" if k else ""

        if unrolled:
            setup = []

            def entry(a, b):
                j = "1.0" if b == a + n else "-1.0" if a == b + n else "0.0"
                return j + plus((f"-r{i}_{n + a}" if a < n else f"r{i}_{a - n}") + f" * l{i}_{b}"
                                for i in cs)
            d = "[" + ", ".join("[" + ", ".join(entry(a, b) for b in range(dim)) + "]"
                                for a in range(dim)) + "]"
        else:
            setup = [f"j = [[float(b == a + {n}) - float(a == b + {n}) for b in range({dim})]"
                     f" for a in range({dim})]"]
            d = ("[[jab" + plus(f"s{i}[a] * l{i}[b]" for i in cs)
                 + " for b, jab in enumerate(ja)] for a, ja in enumerate(j)]")
        if k:
            setup.append(unpack)
        body = [*(read(f"r{i}", f"grad_{i}(z)") for i in cs), *sums(pairs),
                *(f"s{i} = " + vector((f"-r{i}{{p}}", n), (f"r{i}{{q}}", n)) for i in cs),
                *([f"l = solve({matrix}, [" + ", ".join(f"s{i}" for i in cs) + "], z)"]
                  if k else []),
                *(read(f"l{i}", f"l[{i}]") for i in cs), f"return {d}"]
        return "\n    ".join(["def tensor(grads, solve):", *setup, "def d(z):",
                              *(f"    {line}" for line in body), "return d"])
    one = kind in ("gradient", "poisson", "gauge")  # one gradient, else H's and each Phi_I's
    roles = ("g",) if one else ("gh", *(f"r{i}" for i in cs))
    routes = ("gradient",) if one else ("grad_h", *(f"grad_{i}" for i in cs))
    entries = trace[1] if trace else (None,) * len(roles)  # each role's traced entries, or None
    # the q and p halves of each role's entries: their traced values, or the role's own
    halves = {(role, h): (None, role, h) if e is None else e[n:] if h == "p" else e[:n]
              for role, e in zip(roles, entries) for h in "qp"}

    def point(z):  # the stage point z as a list, built where a route or the solve reads it
        return listed(z) if unrolled and z != "z" else z

    def gradients(z, terms={}):
        """Each gradient at z, a traced one written in, then the sums of ``terms`` over them:
        a sum whose every product reads the traced values of an earlier one's is that sum
        where the written code runs, and where it raises (every route called) a sum of its own."""
        calls = [read(role, f"{route}({point(z)})") for role, route in zip(roles, routes)]
        if not trace:
            return calls + sums(terms)
        # the trace's inputs x0.. read z's entries, and its t0.. and c0.. are g-prefixed
        sub = partial(re.sub, r"\b([xtc])(\d+)\b", lambda m: "g" + m[0] if m[1] != "x"
                      else f"{z}_{m[2]}" if unrolled else f"{z}[{m[2]}]")
        written, alike = list(map(sub, trace[0])), {}
        for role, call, outputs in zip(roles, calls, entries):
            written += [call] if outputs is None else (
                [f"{role}_{j} = {sub(o)}" for j, o in enumerate(outputs)] if unrolled
                else [f"{role} = [{', '.join(map(sub, outputs))}]"])
        for total, term in terms.items():  # the sums by the traced values of their factors
            alike.setdefault(tuple(map(halves.get, re.findall(r"(\w+)\{([qp])\}", term))),
                             []).append(total)
        shared = [names for names in alike.values() if len(names) > 1]
        both = {t: terms[t] for names in shared for t in names}  # taken in either branch
        written += sums({names[0]: terms[names[0]] for names in shared})
        return ["try:", *(f"    {line}" for line in written),
                *(f"    {t} = {names[0]}" for names in shared for t in names[1:]),
                "except (ArithmeticError, ValueError):",
                *(f"    {line}" for line in calls + sums(both)),
                *sums({t: term for t, term in terms.items() if t not in both})]

    if kind in ("gradient", "poisson"):
        params, setup = "gradient", []

        def stage(z, t, out):  # the rhs at the point z and time t (None: the last stage's)
            return [*gradients(z), *assign(out, ("g{p}", n), ("-g{q}", n))]
    elif kind == "gauge":
        # lambda(t) from its k coefficients m0.. (constant first) by Horner in numpy's polyval
        # order, from m{k-1} + t * 0.0: the bits of Polynomial(coeffs)(t) at every stage time
        params, setup = "gradient, coeffs", ["".join(f"m{i}, " for i in range(k)) + "= coeffs"]

        def stage(z, t, out):  # t None: the last stage's time, and its lam
            horner = [f"lam = m{k - 1} + {t} * 0.0",
                      *(f"lam = m{i} + lam * {t}" for i in reversed(range(k - 1)))]
            return [*(horner if t else []), *gradients(z),
                    *assign(out, ("lam * g{p}", n), ("lam * -g{q}", n))]
    else:
        # {Phi_I, H} = b_I - c_I, b_I = q_I . dH/dp and c_I = p_I . dH/dq, summed beside a_IJ
        terms = {f"{x}{i}": f"r{i}{{{u}}} * gh{{{v}}}" for i in cs for x, u, v in ("bqp", "cpq")}
        terms.update(pairs)
        # sum_I l_I dPhi_I/dz per entry, left to right from the first product
        lam = {x: " + ".join(f"l{i} * r{i}{{{x}}}" for i in cs) for x in "qp"}
        params = "grad_h, grads, rates, solve, rtol"
        setup = [unpack, "".join(f"rate_{i}, " for i in cs) + "= rates", 'inf = float("inf")']

        def stage(z, t, out):
            guarded = ["s = [" + ", ".join(f"b{i} - c{i} + rate_{i}" for i in cs) + "]",
                       "".join(f"l{i}, " for i in cs) + f"= solve({matrix}, s, {point(z)})"]
            if k == 2:  # solve's own test and closed form where the diagonal is 0 and det finite
                guarded = ["d = a0_1 - a1_0", "det = d * d",
                           "if a0_0 - a0_0 == 0.0 and a1_1 - a1_1 == 0.0 and rtol < det < inf:",
                           "    l0 = -(b1 - c1 + rate_1) / d", "    l1 = (b0 - c0 + rate_0) / d",
                           "else:", *(f"    {line}" for line in guarded)]
            return [*gradients(z, terms), *guarded,
                    *assign(out, (f"gh{{p}} - ({lam['p']})", n),
                            (f"-(gh{{q}} - ({lam['q']}))", n))]
    params += ", consts=()"  # the trace's constants
    setup += ["(" + "".join(f"gc{j}, " for j in range(trace[2])) + ") = consts"] if trace else []
    if kind == "gradient":  # one traced gradient, its route the dual pass
        inner, args, body = "traced", "z", [*([read("z", "z")] if unrolled else []),
                                            *gradients("z"), f"return {listed('g')}"]
    else:
        # the stage points and the new state, as the RK4 step sums them; the loop's own names
        # (step, t, t_half, t_next, y, k1-k4, half, sixth) are none that a stage sets
        def then(step):  # the next stage point y = z + step
            return assign("y", ("z{q} + " + step + "{q}", dim))

        bounded = (" and ".join(f"abs(z_{j}) <= limit" for j in range(dim)) if unrolled
                   else "all(abs(v) <= limit for v in z)")
        inner, args, body = "run", "z, dt, start, stop, limit, rows", [
            "half = 0.5 * dt", "sixth = dt / 6.0", *([read("z", "z")] if unrolled else []),
            "for step in range(start, stop):", *(f"    {line}" for line in [
                "t = step * dt", "t_half = t + half", "t_next = t + dt", *stage("z", "t", "k1"),
                *then("half * k1"), *stage("y", "t_half", "k2"),
                *then("half * k2"), *stage("y", None, "k3"),
                *then("dt * k3"), *stage("y", "t_next", "k4"),
                *assign("z", ("z{q} + sixth * (k1{q} + 2.0 * k2{q} + 2.0 * k3{q} + k4{q})", dim)),
                f"if not ({bounded}):", "    return step",
                *([f"z = {listed('z')}"] if unrolled else []), "rows.append(z)"]),
            "return stop"]
    return "\n    ".join([f"def {kind}({params}):", *setup, f"def {inner}({args}):",
                          *(f"    {line}" for line in body), f"return {inner}"])


@lru_cache(maxsize=_KERNELS_KEPT)
def _generated(kind: str, n: int, k: int = 0, trace: Optional[tuple] = None):
    """The function ``kind`` of ``_source`` for n pairs (and k constraints), compiled at its
    first use and shared while kept: it holds no state, so concurrent callers call it freely."""
    namespace = {}  # its globals: builtins and what the source defines, no module name
    exec(compile(_source(kind, n, k, trace), f"<diracmech.kernels {kind} n={n} k={k}>", "exec"),
         namespace)
    return namespace[kind]

"""Span recorder for the traced run, installed from outside the program.

``install`` wraps the public functions and methods of every layer (module) of
``diracmech`` in a span shim, at each binding a caller actually uses: module
globals (``from .brackets import poisson_bracket`` makes a second binding),
class attributes (``ScalarField.gradient_at``) and the check registries of
``verify``. A few private hooks are wrapped as well, because per-layer
counters need them: the pairing solve, trajectory finalisation, point
validation and the RK4 right-hand sides built by ``dynamics``.

Spans stay in memory in flat arrays (name, parent, start, end) and are only
recorded while the recorder is active, i.e. inside a benchmark op. Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "verify", "phase", "duals", "fields", "brackets", "constraints",
          "dynamics", "models.klauder", "models.particle", "models.maxwell", "circle")

# private names wrapped anyway: (layer, qualified name)
PRIVATE_HOOKS = {
    ("constraints", "_solve_pairing"),
    ("dynamics", "_finalize"),
    ("phase", "PhaseSpacePoint.__post_init__"),
}
# RK4 right-hand-side factories: the closure each returns is traced as dynamics.rhs
RHS_FACTORIES = {"_poisson_rhs", "_gauge_rhs", "_dirac_rhs"}
ROOT = "bench.op"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _even_nodes(steps):
    steps = int(steps)
    return steps + (steps % 2) + 1


# span tags: extra facts some per-layer metrics need, keyed by span name
TAGGERS = {
    "models.maxwell.LatticeMaxwell.vector_laplacian": lambda a, k, out: a[0].side,
    "models.maxwell.LatticeMaxwell.transverse_projector": lambda a, k, out: a[0].side,
    "models.maxwell.LatticeMaxwell.dirac_bracket_matrices": lambda a, k, out: a[0].side,
    "dynamics.evolve": lambda a, k, out: (type(_arg(a, k, 1, "flow")).__name__,
                                          _arg(a, k, 2, "cfg").steps),
    "circle.evolve_time_dependent":
        lambda a, k, out: _even_nodes(_arg(a, k, 4, "quadrature_steps", 2048)),
    "circle.expect_phi_quadrature": lambda a, k, out: _even_nodes(_arg(a, k, 3, "nodes", 4096)),
    "cli.write_table": lambda a, k, out: len(_arg(a, k, 3, "rows")),
}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self._stack = [-1]
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside an active root span; returns its result."""
        self.active = True
        sid = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)
            self.active = False

    def shim(self, fn, name: str, wrap_result: str | None = None):
        """``fn`` recording spans called ``name``.

        With ``wrap_result``, the function ``fn`` returns is shimmed too, under that name.
        """
        name_id = self.name_id(name)
        tagger = TAGGERS.get(name)
        rec = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = rec.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(sid)
            if tagger is not None:
                rec.tags[sid] = tagger(args, kwargs, out)
            if wrap_result is not None:
                out = rec.shim(out, wrap_result)
            return out

        return shim

    def arrays(self):
        """Copies of the span columns (the recorder may keep appending)."""
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent,
                            start=start, end=end)


class Installation:
    """Every binding the tracer replaced, so it can be put back."""

    def __init__(self):
        self._undo = []

    def set(self, container, key, value):
        if isinstance(container, (dict, list)):
            self._undo.append((container, key, container[key]))
            container[key] = value
        else:
            self._undo.append((container, key, container.__dict__[key]))
            setattr(container, key, value)

    def uninstall(self):
        for container, key, old in reversed(self._undo):
            if isinstance(container, (dict, list)):
                container[key] = old
            else:
                setattr(container, key, old)
        self._undo.clear()


def _layer_objects(rec, layer, module):
    """(original, replacement) for the module's functions; methods are patched in place."""
    found = {}
    patched_methods = []
    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            if name in RHS_FACTORIES and layer == "dynamics":
                found[id(obj)] = (obj, rec.shim(obj, f"dynamics.{name}", "dynamics.rhs"))
            elif not name.startswith("_") or (layer, name) in PRIVATE_HOOKS:
                found[id(obj)] = (obj, rec.shim(obj, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in list(vars(obj).items()):
                qual = f"{obj.__name__}.{attr}"
                if attr.startswith("_") and (layer, qual) not in PRIVATE_HOOKS:
                    continue
                label = f"{layer}.{qual}"
                if isinstance(raw, (staticmethod, classmethod)):
                    patched_methods.append((obj, attr, type(raw)(rec.shim(raw.__func__, label))))
                elif inspect.isfunction(raw):
                    patched_methods.append((obj, attr, rec.shim(raw, label)))
    return found, patched_methods


def install(rec: Recorder) -> Installation:
    done = Installation()
    replacements = {}
    for layer in LAYERS:
        module = importlib.import_module(f"diracmech.{layer}")
        found, methods = _layer_objects(rec, layer, module)
        replacements.update(found)
        for cls, attr, new in methods:
            done.set(cls, attr, new)
    package = [m for name, m in list(sys.modules.items())
               if name == "diracmech" or name.startswith("diracmech.")]

    def swap(container, key, value):
        hit = replacements.get(id(value))
        if hit is not None and hit[0] is value:
            done.set(container, key, hit[1])
            return True
        return False

    for module in package:
        for key, value in list(vars(module).items()):
            if swap(module, key, value):
                continue
            # registries such as verify.SUITES (dict of lists) and verify._CHECK_IDS
            if isinstance(value, dict) and not key.startswith("__"):
                for k, v in list(value.items()):
                    if not swap(value, k, v) and isinstance(v, list):
                        for i, item in enumerate(list(v)):
                            swap(v, i, item)
    return done


def layer_of(name: str) -> str:
    if name == ROOT:
        return "bench"
    for layer in sorted(LAYERS, key=len, reverse=True):
        if name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no layer")


class Spans:
    """Read-only view of a recording with self times computed."""

    def __init__(self, rec: Recorder):
        self.names = list(rec.names)
        self.name, self.parent, start, end = rec.arrays()
        self.tags = rec.tags
        self.dur = end - start
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        layers = [layer_of(n) for n in self.names]
        self.layer_index = np.array([LAYERS.index(l) if l in LAYERS else -1 for l in layers],
                                    dtype=np.int64)

    def ids(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    def count(self, name: str) -> int:
        return int(self.ids(name).size)

    def mean(self, name: str, where=None) -> float:
        ids = self.ids(name)
        if where is not None:
            ids = np.array([i for i in ids if where(self.tags.get(int(i)))], dtype=np.int64)
        return float(self.dur[ids].mean()) if ids.size else 0.0

    def total(self, name: str) -> float:
        return float(self.dur[self.ids(name)].sum())

    def tag_sum(self, name: str) -> float:
        return float(sum(self.tags.get(int(i), 0) for i in self.ids(name)))

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """layer -> (spans, self seconds), plus the benchmark root as 'bench'."""
        span_layer = self.layer_index[self.name]
        table = {}
        for i, layer in enumerate(LAYERS):
            mask = span_layer == i
            table[layer] = (int(mask.sum()), float(self.self_time[mask].sum()))
        mask = span_layer == -1
        table["bench"] = (int(mask.sum()), float(self.self_time[mask].sum()))
        return table

    def child_total(self, parent_ids: np.ndarray, name: str) -> np.ndarray:
        """Per parent, the summed duration of its direct children called ``name``."""
        out = np.zeros(parent_ids.size)
        ids = self.ids(name)
        where = {int(p): j for j, p in enumerate(parent_ids)}
        for i in ids:
            j = where.get(int(self.parent[i]))
            if j is not None:
                out[j] += self.dur[i]
        return out

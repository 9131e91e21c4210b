"""Every dense-kernel call in the package is listed with the scenario artifacts it reaches.

A matrix product (``@``), ``np.dot``, ``np.vecdot``, ``np.linalg.*`` or ``np.fft.*`` runs in
BLAS, LAPACK or an FFT library whose summation order depends on the host's kernels, so an
artifact it reaches may change its last bits from one host to another. Each call site is
keyed by module and function; a new one fails here until it is listed with the artifacts it
reaches (or "none"), and a listed one that is gone fails until its entry is dropped.
"""

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "diracmech"

QUANTUM = "quantum_sweep, quantum_ramped_sweep"
MAXWELL = "maxwell_l2, maxwell_l8_random"

# (module, function): ({call: count}, the scenario artifacts it reaches, or "none")
ALLOWED = {
    ("circle", "_simpson_sum"): ({"@": 1}, QUANTUM),
    ("circle", "expect_reduced"): ({"@": 2}, QUANTUM),
    ("circle", "expect_phi"): ({"@": 2}, QUANTUM),
    ("circle", "expect_phi_quadrature"): ({"@": 1}, QUANTUM),
    ("circle", "expect_cartesian_matrix_oracle"): ({"@": 4}, "none"),
    ("constraints", "classify"): ({"np.linalg.svd": 1}, "none"),  # the rank of a report
    ("models.maxwell", "LatticeMaxwell.project"):
        ({"np.fft.rfftn": 1, "np.fft.irfftn": 1}, MAXWELL),
    ("models.maxwell", "LatticeMaxwell.projector_residuals"):
        ({"np.linalg.norm": 1, "@": 1}, MAXWELL),
    ("models.maxwell", "LatticeMaxwell.scalar_laplacian_matrix"): ({"@": 1}, "none"),
    ("models.maxwell", "LatticeMaxwell.transverse_projector"):
        ({"np.linalg.pinv": 1, "@": 2}, "none"),
    ("models.maxwell", "LatticeMaxwell._mean_zero_basis"): ({"np.linalg.qr": 1}, "none"),
    ("models.maxwell", "LatticeMaxwell.dirac_bracket_matrices"):
        ({"@": 3, "np.linalg.cond": 1, "np.linalg.solve": 1}, "none"),
    ("models.maxwell", "LatticeMaxwell.energy"): ({"np.vecdot": 1}, MAXWELL),
    ("models.maxwell", "LatticeMaxwell.evolve"):
        ({"np.fft.rfftn": 1, "np.fft.ifft": 2, "np.fft.irfft": 1}, MAXWELL),
}

# the modules of the bracket paths: the Dirac tensor, its contractions and the Poisson bracket
BRACKET_MODULES = ("constraints", "brackets", "models.particle")


def _dense(node) -> str | None:
    """The dense-kernel call ``node`` makes, by its spelling, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return "@"
    if isinstance(node, ast.Call):
        name = ast.unparse(node.func).replace("numpy.", "np.", 1)
        if name in ("np.dot", "np.vecdot") or name.startswith(("np.linalg.", "np.fft.")):
            return name
    return None


def dense_calls() -> dict:
    """{(module, qualified function): Counter of its dense-kernel calls} over the package."""
    found = {}

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        call = _dense(node)
        if call is not None:
            found.setdefault((module, ".".join(scope)), Counter())[call] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        visit(ast.parse(path.read_text(), str(path)), module, ())
    return found


def test_every_dense_kernel_call_is_listed_with_the_artifacts_it_reaches():
    assert dense_calls() == {key: Counter(calls) for key, (calls, _) in ALLOWED.items()}
    assert all(artifacts for _, artifacts in ALLOWED.values())


def test_no_bracket_path_calls_a_dense_kernel():
    # classify's singular values give the rank of a mixed or degenerate set, no bracket
    on_brackets = {key for key in dense_calls() if key[0] in BRACKET_MODULES}
    assert on_brackets == {("constraints", "classify")}


def test_the_scan_sees_every_spelling():
    source = ("def f(a, b):\n    a @= b\n    return np.dot(a, b) + numpy.linalg.inv(a) @ b\n"
              "class C:\n    def g(self, x):\n        return np.fft.fft(x), np.vecdot(x, x)\n")
    found = {}
    for node in ast.walk(ast.parse(source)):
        call = _dense(node)
        if call is not None:
            found[call] = found.get(call, 0) + 1
    assert found == {"@": 2, "np.dot": 1, "np.linalg.inv": 1, "np.fft.fft": 1, "np.vecdot": 1}

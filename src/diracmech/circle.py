"""Quantum states on the circle and the reduced spectrum of the planar model.

States are truncated Fourier series psi(phi) = sum_m c_m e^{i m phi} with
m in [-M, M], normalized so sum |c_m|^2 = 1 against the measure dphi/(2 pi).
Angular momentum is diagonal (p_phi -> m hbar), so the reduced Hamiltonian
U(r*(p_phi)) acts by per-mode phases: evolution is a phase multiply, exactly
unitary. Expectation formulas below are cross-checked by quadrature oracles
on a phi grid and by dense mode-space matrix elements.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import NumericDomainError, UsageError
from .models.klauder import KlauderModel

NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CircleState:
    """Fourier coefficients c_m, m = -m_max .. m_max."""

    coeffs: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 1 or len(coeffs) % 2 == 0:
            raise UsageError("coefficients must be a 1-D array of odd length (m = -M..M)")
        if not np.all(np.isfinite(coeffs.view(float))):
            raise NumericDomainError("non-finite coefficient")
        if self.hbar <= 0:
            raise UsageError("hbar must be positive")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "hbar", float(self.hbar))

    @property
    def m_max(self) -> int:
        return (len(self.coeffs) - 1) // 2

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1)

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def normalized(self) -> "CircleState":
        # an exact power-of-two rescale first, so tiny amplitudes cannot underflow when squared
        _, exponent = np.frexp(np.max(np.abs(self.coeffs.view(float))))
        scaled = np.ldexp(self.coeffs.view(float), -exponent).view(complex)
        n2 = float(np.sum(np.abs(scaled) ** 2))
        if n2 == 0.0:
            raise UsageError("cannot normalize the zero state")
        return CircleState(scaled / np.sqrt(n2), self.hbar)

    @classmethod
    def single_mode(cls, m: int, m_max: int, hbar: float = 1.0) -> "CircleState":
        if abs(m) > m_max:
            raise UsageError(f"mode {m} outside window m_max={m_max}")
        c = np.zeros(2 * m_max + 1, dtype=complex)
        c[m + m_max] = 1.0
        return cls(c, hbar)

    @classmethod
    def random(cls, rng: np.random.Generator, m_max: int) -> "CircleState":
        c = rng.normal(size=2 * m_max + 1) + 1j * rng.normal(size=2 * m_max + 1)
        return cls(c).normalized()


def _reduced_spectrum(model: KlauderModel, m, hbar: float, t):
    """r* = ((k(t)^2 + p_phi^2)/alpha^2)^(1/4) and U(r*) (Horner, elementwise), with
    p_phi = m hbar, for modes m and times t that broadcast together;
    NumericDomainError where either is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        k = model.k(t)
        p_phi = m * hbar
        r_star = ((k * k + p_phi * p_phi) / model.alpha ** 2) ** 0.25
        u_values = np.broadcast_to(model.potential(r_star), r_star.shape)
    if not (np.all(np.isfinite(r_star)) and np.all(np.isfinite(u_values))):
        raise NumericDomainError("non-finite reduced spectrum: r*^4 or U(r*) overflows")
    return r_star, u_values


@dataclass(frozen=True, eq=False)
class SpectrumTable:
    """Per-mode reduced radius r*_m and energy U_m = U(r*_m) at one time t.

    r*_m = ((k^2 + (m hbar)^2)/alpha^2)^(1/4) and p_r* = k/r*_m with k = k(t); the
    (k, m) = (0, 0) mode is flagged degenerate (radius zero, p_r* undefined).
    """

    k: float
    hbar: float
    m_values: np.ndarray
    r_star: np.ndarray
    u_values: np.ndarray
    degenerate: np.ndarray  # boolean mask

    @classmethod
    def build(cls, model: KlauderModel, m_max: int, t: float = 0.0) -> "SpectrumTable":
        m = np.arange(-m_max, m_max + 1)
        r_star, u_values = _reduced_spectrum(model, m, model.hbar, t)
        return cls(k=model.k(t), hbar=model.hbar, m_values=m, r_star=r_star,
                   u_values=u_values, degenerate=(r_star == 0.0))

    def _match(self, state: CircleState):
        if len(state.coeffs) != len(self.m_values):
            raise UsageError("state window does not match spectrum table")
        if abs(state.hbar - self.hbar) > 0:
            raise UsageError("state and table disagree on hbar")


def _require_normalized(state: CircleState):
    if abs(state.norm_squared() - 1.0) > NORM_TOL:
        raise UsageError("state is not normalized; call normalized() first")


def _phase_factors(action, hbar: float) -> np.ndarray:
    """exp(-i action / hbar); NumericDomainError where action / hbar overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite phase raises below
        factors = np.exp(-1j * action / hbar)
    if not np.all(np.isfinite(factors)):
        raise NumericDomainError("non-finite phase: U t / hbar overflows")
    return factors


def _phased(state: CircleState, table: SpectrumTable, t: float) -> np.ndarray:
    """c_m exp(-i U_m t / hbar) of a normalized state on the table's window."""
    _require_normalized(state)
    table._match(state)
    with np.errstate(over="ignore"):  # an overflowing U t raises in _phase_factors
        action = table.u_values * t
    return state.coeffs * _phase_factors(action, state.hbar)


def _simpson_nodes(a: float, b: float, intervals: int) -> np.ndarray:
    """The composite Simpson nodes on [a, b]; an odd interval count rounds up to the
    next even one."""
    n = int(intervals)
    if n < 2:
        raise UsageError("need at least 2 quadrature steps")
    n += n % 2
    return np.linspace(a, b, n + 1)


def _simpson_sum(values, a: float, b: float):
    """Composite Simpson (weights 1-4-2-...-4-1) of values at the nodes of [a, b] along
    their last axis."""
    n = values.shape[-1] - 1
    # the weights come after the integrand's temporaries are freed: the peak stays theirs
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return ((b - a) / n / 3.0) * (values @ weights)


def _simpson(integrand, a: float, b: float, intervals: int):
    """Composite Simpson of integrand(nodes) along its last axis over [a, b]."""
    return _simpson_sum(integrand(_simpson_nodes(a, b, intervals)), a, b)


def evolve_static(state: CircleState, table: SpectrumTable, t: float) -> CircleState:
    """c_m -> c_m exp(-i U_m t / hbar); unitary, norm enforced to roundoff."""
    return CircleState(_phased(state, table, t), state.hbar).normalized()


def evolve_time_dependent(state: CircleState, model: KlauderModel, t0: float, t1: float,
                          quadrature_steps: int = 2048) -> CircleState:
    """Evolution under a time-dependent gauge parameter k(t).

    Every instantaneous Hamiltonian is a function of angular momentum alone,
    so all of them commute and the time-ordered exponential collapses to
    c_m -> c_m exp(-(i/hbar) int_t0^t1 U_m(t') dt'), with the integral done
    by composite Simpson quadrature on ``quadrature_steps`` subintervals.

    Where a ramped k(t) = k0 + k1 t vanishes inside [t0, t1], at t* = -k0/k1,
    r*_0(t) has a square-root cusp; each side of t* is then integrated in s on
    ``quadrature_steps`` subintervals, with t = t* +- s^2, where the integrand
    U_m(t* +- s^2) 2s is smooth.
    """
    _require_normalized(state)
    if state.hbar != model.hbar:
        raise UsageError("state and model disagree on hbar")
    hbar = state.hbar
    modes = state.m_values[:, None]

    def potentials(ts):  # U(r*_m(t)) for all modes and times; (modes, times)
        return _reduced_spectrum(model, modes, hbar, ts)[1]

    t_star = -model.k.k0 / model.k.k1 if model.time_dependent else np.nan
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite integral raises below
        if min(t0, t1) <= t_star <= max(t0, t1):
            def from_cusp(end):  # int_t*^end U_m dt
                if end == t_star:
                    return 0.0
                sign = np.sign(end - t_star)
                return sign * _simpson(lambda s: potentials(t_star + sign * s * s) * (2.0 * s),
                                       0.0, np.sqrt(abs(end - t_star)), quadrature_steps)
            integrals = from_cusp(t1) - from_cusp(t0)
        else:
            integrals = _simpson(potentials, t0, t1, quadrature_steps)
    return CircleState(state.coeffs * _phase_factors(integrals, hbar), hbar).normalized()


@dataclass(frozen=True)
class ReducedExpectations:
    r_mean: float
    pr_mean: float
    pphi_mean: float


def expect_reduced(state: CircleState, table: SpectrumTable) -> ReducedExpectations:
    """<r>, <p_r>, <p_phi> from the diagonal mode weights on the table's surface.

    <r> = sum |c_m|^2 r*_m, <p_r> = sum |c_m|^2 k / r*_m with the table's k,
    <p_phi> = hbar sum m |c_m|^2.
    """
    _require_normalized(state)
    table._match(state)
    w = np.abs(state.coeffs) ** 2
    if np.any(w[table.degenerate] > 0):
        raise NumericDomainError(
            "state occupies the degenerate (k, m) = (0, 0) mode; <p_r> undefined")
    ok = ~table.degenerate  # zero-weight degenerate modes contribute nothing
    return ReducedExpectations(
        r_mean=float(w @ table.r_star),
        pr_mean=float(np.sum(w[ok] * (table.k / table.r_star[ok]))),
        pphi_mean=float(state.hbar * (state.m_values @ w)),
    )


@dataclass(frozen=True)
class PhiExpectation:
    value: float
    imag_residue: float


def expect_phi(state: CircleState, table: SpectrumTable, t: float) -> PhiExpectation:
    """<phi> at time t from the analytic double sum.

    <phi> = pi - i sum_{m != n} c*_m c_n e^{(i/hbar)(U_m - U_n) t} / (n - m);
    the off-diagonal sum is purely imaginary, so the result is real up to
    roundoff, which is reported rather than discarded.
    """
    d = _phased(state, table, t)
    m = state.m_values
    diff = m[None, :] - m[:, None]  # n - m
    inv = np.zeros(diff.shape)
    off_diag = diff != 0
    inv[off_diag] = 1.0 / diff[off_diag]
    total = np.conj(d) @ inv @ d  # sum d*_m d_n / (n - m) over m rows, n cols
    value = np.pi - 1j * total
    return PhiExpectation(value=float(value.real), imag_residue=float(value.imag))


@dataclass(frozen=True, eq=False)
class PhiGrid:
    """The Simpson nodes of ``nodes`` intervals on [0, 2pi] and the basis e^{i m phi}
    at them, one row per node and one column per mode m = -m_max..m_max. Only the
    coefficients change from state to state, so a sweep builds one grid and passes
    it to every ``expect_phi_quadrature`` call."""

    nodes: int
    phis: np.ndarray
    basis: np.ndarray

    @classmethod
    def build(cls, m_max: int, nodes: int) -> "PhiGrid":
        phis = _simpson_nodes(0.0, 2.0 * np.pi, nodes)
        return cls(nodes=int(nodes), phis=phis,
                   basis=np.exp(1j * np.outer(phis, np.arange(-m_max, m_max + 1))))


def expect_phi_quadrature(state: CircleState, table: SpectrumTable, t: float,
                          nodes: int, grid: PhiGrid) -> float:
    """Quadrature oracle (1/2pi) int_0^{2pi} phi |psi(phi,t)|^2 dphi (Simpson) on
    ``nodes`` intervals, read from ``grid``, which ``PhiGrid.build(m_max, nodes)`` makes."""
    if (grid.nodes, grid.basis.shape[1]) != (nodes, len(state.coeffs)):
        raise UsageError("phi grid does not match the node count and the state window")
    values = grid.phis * np.abs(grid.basis @ _phased(state, table, t)) ** 2
    return float(_simpson_sum(values, 0.0, 2.0 * np.pi) / (2.0 * np.pi))


@dataclass(frozen=True)
class CartesianExpectations:
    xy: complex   # <x + i y>
    pxy: complex  # <p_x + i p_y>


def expect_cartesian(state: CircleState, table: SpectrumTable, t: float) -> CartesianExpectations:
    """Planar expectation values from adjacent-mode coherences.

    With the raising operator ordered to the left of the diagonal factors:
    <x + i y>   = sum_n r*_n c*_{n+1} c_n e^{(i/hbar)(U_{n+1} - U_n) t},
    <p_x+i p_y> = sum_n (k + i n hbar)/r*_n c*_{n+1} c_n e^{...}.
    """
    d = _phased(state, table, t)
    lower, upper = d[:-1], d[1:]          # modes n and n+1
    coherence = np.conj(upper) * lower    # c*_{n+1} c_n with the phases folded in
    r_star = table.r_star[:-1]
    xy = np.sum(r_star * coherence)
    n_vals = table.m_values[:-1]
    active = coherence != 0
    if np.any(active & (r_star == 0.0)):
        raise NumericDomainError("degenerate r* = 0 mode carries weight; <p> undefined")
    factors = np.zeros_like(coherence)
    safe = r_star > 0
    factors[safe] = (table.k + 1j * n_vals[safe] * state.hbar) / r_star[safe]
    pxy = np.sum(factors * coherence)
    return CartesianExpectations(xy=complex(xy), pxy=complex(pxy))


def expect_cartesian_matrix_oracle(state: CircleState, table: SpectrumTable,
                                   t: float) -> CartesianExpectations:
    """Same observables contracted against dense mode-space operator matrices."""
    d = _phased(state, table, t)
    size = len(d)
    x_op = np.zeros((size, size), dtype=complex)
    p_op = np.zeros((size, size), dtype=complex)
    for col in range(size - 1):  # ket mode n, bra mode n+1
        row = col + 1
        x_op[row, col] = table.r_star[col]
        if table.r_star[col] > 0:
            p_op[row, col] = (table.k + 1j * table.m_values[col] * state.hbar) / table.r_star[col]
        elif abs(d[row] * d[col]) > 0:
            raise NumericDomainError("degenerate r* = 0 mode carries weight; <p> undefined")
    return CartesianExpectations(xy=complex(np.conj(d) @ x_op @ d),
                                 pxy=complex(np.conj(d) @ p_op @ d))

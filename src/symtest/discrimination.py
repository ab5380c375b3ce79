"""Optimal binary tests and error probabilities.

The optimal family is the threshold tests {rho0 - t*rho1 > 0}; the minimal
combined error and the converse bounds are computed from it.  The constrained
type-II error beta_eps is the maximum over t >= 0 of its Lagrange dual
t(1 - eps) - Tr(t*rho0 - rho1)_+, a concave function that peaks in
[0, 1/eps].  On commuting pairs the dual is piecewise linear and is read off
its likelihood-ratio breakpoints; otherwise golden section maximizes it, one
eigvalsh per evaluation.  threshold_errors gives the error pairs of many
threshold tests on one state pair at once, from the joint eigenvalue atoms
of a commuting pair or from one eigh per rate otherwise, without forming the
projections np_test builds.  The atoms are PsiEvaluator.atoms: the support
overlaps of the two spectra every density operator keeps, plus one atom per
row for the mass of supp rho0 outside supp rho1.  So a state pair is never
decomposed again here, and one state's eigenvectors never meet the other's.
np_test, p_min, pmin_bounds_check and strong_converse_bound take one rate a
and weigh rho0n by e^{-a}: on n copies the caller passes n times the
per-copy rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import PsiEvaluator, _golden_min, _scan_min, fidelity
from .errors import DimensionError
from .linalg import (
    _eigh,
    above_cut,
    asmatrix,
    hermitian,
    matrix_pair,
    support_projection,
    trace_norm,
)
from .reports import CheckReport


@dataclass(frozen=True, eq=False)
class TestOperator:
    """A binary POVM effect: Hermitian with spectrum in [0, 1].

    ``mat`` is validated through :func:`hermitian` and then from its
    eigendecomposition: eigenvalues at most 1e-9 outside [0, 1] are clipped
    onto the edge (:meth:`Spectrum.clipped`), anything further out is
    rejected."""

    __test__ = False  # keep pytest from collecting the type

    mat: np.ndarray

    def __post_init__(self):
        # hold only the canonical copy, so the caller's matrix can be freed first
        object.__setattr__(self, "mat", hermitian(self.mat))
        spec = _eigh(self.mat)
        clipped = spec.clipped(0.0, 1.0, 1e-9)
        if clipped is not spec:
            object.__setattr__(self, "mat", hermitian(clipped.reconstruct()))


@dataclass(frozen=True)
class ErrorPair:
    beta0: float  # reject the null although it holds
    beta1: float  # accept the null although the alternative holds

    def __post_init__(self):
        for name, value in (("beta0", self.beta0), ("beta1", self.beta1)):
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise ValueError(f"{name}={value!r} outside [0, 1]")
        object.__setattr__(self, "beta0", float(min(max(self.beta0, 0.0), 1.0)))
        object.__setattr__(self, "beta1", float(min(max(self.beta1, 0.0), 1.0)))


def error_pair(test, rho0n, rho1n) -> ErrorPair:
    """Type-I and type-II error probabilities of a test."""
    t = test.mat if isinstance(test, TestOperator) else asmatrix(test)
    m0, m1 = asmatrix(rho0n), asmatrix(rho1n)
    if t.shape != m0.shape or m0.shape != m1.shape:
        raise DimensionError("test and states must share a dimension")
    beta0 = 1.0 - float(np.trace(m0 @ t).real)
    beta1 = float(np.trace(m1 @ t).real)
    return ErrorPair(beta0, beta1)


def np_test(rho0n, rho1n, a: float) -> TestOperator:
    """Spectral projection of exp(-a)*rho0n - rho1n onto its positive part."""
    m0, m1 = matrix_pair(rho0n, rho1n)
    return TestOperator(support_projection(math.exp(-a) * m0 - m1))


def threshold_errors(rho0n, rho1n, a_values) -> np.ndarray:
    """(beta0, beta1) of np_test(rho0n, rho1n, a) for each rate a, one row each.

    The tests are the projections np_test builds, with the same rank cut, but
    their errors are read off a spectrum: the joint eigenvalue atoms of a
    commuting pair, where the test keeps the atoms whose eigenvalue
    e^{-a} w0 - w1 survives the cut, or else one eigh per rate, summing
    <v|m|v> over the kept eigenvectors v instead of forming the projection.
    """
    m0, m1 = matrix_pair(rho0n, rho1n)
    atoms = _commuting_atoms(rho0n, rho1n)
    rows = []
    for a in a_values:
        weight = math.exp(-float(a))
        if atoms is not None:
            w0, w1, o = atoms
            keep = above_cut(weight * w0 - w1)
            accept0, accept1 = (w0 * o)[keep].sum(), (w1 * o)[keep].sum()
        else:
            delta = weight * m0 - m1
            w, v = np.linalg.eigh((delta + delta.conj().T) / 2.0)
            kept = v[:, above_cut(w)]
            vh = kept.conj().T
            accept0 = ((vh @ m0) * kept.T).sum().real
            accept1 = ((vh @ m1) * kept.T).sum().real
        errors = ErrorPair(1.0 - float(accept0), float(accept1))
        rows.append((errors.beta0, errors.beta1))
    return np.array(rows, dtype=float).reshape(-1, 2)


def p_min(rho0n, rho1n, a: float = 0.0) -> float:
    """Minimal weighted error (1 + e^{-a})/2 - ||e^{-a} rho0n - rho1n||_1 / 2.

    This is the minimum of e^{-a} beta0(T) + beta1(T) over all tests; at
    a = 0 it equals twice the equal-priors symmetric error probability.  On
    n copies the rate a is n times the per-copy rate.
    """
    m0, m1 = matrix_pair(rho0n, rho1n)
    weight = math.exp(-a)
    return (1.0 + weight) / 2.0 - trace_norm(weight * m0 - m1) / 2.0


def average_error(rho0n, rho1n) -> float:
    """Equal-priors symmetric error probability: 1/2 - ||rho0n - rho1n||_1 / 4."""
    return p_min(rho0n, rho1n) / 2.0


def pmin_bounds_check(rho0n, rho1n, a: float) -> CheckReport:
    """Power-trace sandwich around the minimal error at the rate a.

    Upper: p_min(a) <= min over s in [0,1] of e^{-as} Tr rho0n^s rho1n^(1-s).
    Lower: p_min(a) >= e^{-a}/(1 + e^{-a}) * (Tr rho0n^(1/2) rho1n^(1/2))^2.
    """
    ev = PsiEvaluator(rho0n, rho1n)

    def upper_objective(s: float) -> float:
        t = ev.trace_power(s)
        return math.exp(-a * s) * t

    pts = np.linspace(0.0, 1.0, 41)
    _, upper = _scan_min(upper_objective, pts, np.exp(-a * pts) * ev.trace_power(pts))

    weight = math.exp(-a)
    half_trace = ev.trace_power(0.5)
    lower = weight / (1.0 + weight) * half_trace**2

    value = p_min(rho0n, rho1n, a)
    report = CheckReport("p_min power-trace bounds")
    report.check_leq("p_min <= weighted trace min", value, upper, 1e-9)
    report.check_leq("fidelity-type lower bound <= p_min", lower, value, 1e-9)
    return report


def _commuting_atoms(rho0n, rho1n) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """:meth:`PsiEvaluator.atoms` of commuting PSD operators, None for others."""
    m0, m1 = hermitian(rho0n), hermitian(rho1n)
    scale = max(1.0, float(np.max(np.abs(m0))), float(np.max(np.abs(m1))))
    # for Hermitian m0 and m1, m1 m0 = (m0 m1)^*, so one product gives the commutator
    x = m0 @ m1
    if float(np.max(np.abs(x - x.conj().T))) > 1e-10 * scale:
        return None
    del x  # free it before the evaluator's overlap product
    return PsiEvaluator(rho0n, rho1n).atoms()


def _commuting_dual(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Maximum of the dual for atom weights (p, q).

    Here f(t) = t(1 - eps) - sum_k (t p_k - q_k)_+ is piecewise linear, so it
    peaks at t = 0 or at a breakpoint t_k = q_k/p_k, where with the atoms
    sorted by t_k it equals t_k (1 - eps - P_k) + Q_k for the cumulative
    weights P_k, Q_k.  Breakpoints beyond 1/eps cannot win and are skipped,
    which keeps huge ratios from tiny p_k out of the arithmetic.
    """
    atoms = p > 0.0
    t = q[atoms] / p[atoms]
    order = np.argsort(t)
    t = t[order]
    values = t * (1.0 - eps - np.cumsum(p[atoms][order])) + np.cumsum(q[atoms][order])
    best = values[t <= 1.0 / eps].max(initial=0.0)
    return float(min(max(0.0, best), 1.0))


def _general_dual(m0: np.ndarray, m1: np.ndarray, eps: float) -> float:
    """Golden-section maximum of the concave dual over [0, 1/eps].

    Every evaluated t gives a lower bound on beta_eps by weak duality, so the
    largest value seen is returned; f(0) = 0 starts the record.
    """
    best = 0.0

    def neg_dual(t: float) -> float:
        nonlocal best
        w = np.linalg.eigvalsh(t * m0 - m1)
        value = t * (1.0 - eps) - float(np.sum(w[w > 0.0]))
        best = max(best, value)
        return -value

    _golden_min(neg_dual, 0.0, 1.0 / eps)
    return min(best, 1.0)


def beta_eps(rho0n, rho1n, eps: float) -> float:
    """Minimal type-II error subject to type-I error at most eps.

    Computed as max over t >= 0 of t(1 - eps) - Tr(t*rho0n - rho1n)_+, the
    Lagrange dual of the hypothesis-testing problem (Wang-Renner,
    arXiv:1007.5456); strong duality makes the maximum equal beta_eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    m0, m1 = matrix_pair(rho0n, rho1n)
    atoms = _commuting_atoms(rho0n, rho1n)
    if atoms is not None:
        w0, w1, o = atoms
        return _commuting_dual(w0 * o, w1 * o, eps)
    return _general_dual(m0, m1, eps)


def strong_converse_bound(evaluator: PsiEvaluator, eps: float, a):
    """Converse floor e^{-a} (1 - eps - e^{-max over [1,3/2] of {a(s-1) - psi_n(s)}}).

    Nonpositive values mean the bound is vacuous at this rate.  It holds only
    where supp rho0 lies in supp rho1 (else psi_n(s > 1) is +inf, which the
    convention 0**s = 0 makes finite) and supp rho1 is invariant under the
    group; the caller checks both.  evaluator is the PsiEvaluator of the
    n-copy pair, and on n copies the rate a is n times the per-copy rate.  a
    is a float, which gives a float, or an array, which gives an array of its
    shape: psi is sampled on the window once per call, and each rate refines
    its own maximum.
    """
    pts = np.linspace(1.0, 1.5, 21)
    window = evaluator.psi(pts)

    def bound(a: float) -> float:
        phi_tilde_n = -_scan_min(lambda s: evaluator.psi(s) - a * (s - 1.0), pts,
                                 window - a * (pts - 1.0))[1]
        return math.exp(-a) * (1.0 - eps - math.exp(-phi_tilde_n))

    return bound(a) if isinstance(a, (float, int)) else np.vectorize(bound, otypes=[float])(a)


def stein_a_grid(slope: float) -> np.ndarray:
    """Rate grid of width 1 around the slope of psi at s = 1."""
    return np.linspace(slope - 0.5, slope + 0.5, 21)


def fidelity_pmin_check(rho0n, rho1n) -> CheckReport:
    """Fidelity sandwich around the equal-priors symmetric error."""
    f = fidelity(rho0n, rho1n)
    value = average_error(rho0n, rho1n)
    lower = (1.0 - math.sqrt(max(1.0 - f * f, 0.0))) / 2.0
    report = CheckReport("fidelity sandwich for the symmetric error")
    report.check_leq("(1 - sqrt(1 - F^2))/2 <= avg error", lower, value, 1e-9)
    report.check_leq("avg error <= F/2", value, f / 2.0, 1e-9)
    return report

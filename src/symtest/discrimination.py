"""Optimal binary tests and error probabilities.

The optimal family is the threshold tests {rho0 - t*rho1 > 0}; the minimal
combined error and the converse bounds are computed from it.  The constrained
type-II error beta_eps is the maximum of its Lagrange dual (_dual).
threshold_errors reads many threshold tests of one pair at once, off the
commuting atoms (PsiEvaluator.atoms, read off the spectra every density
operator keeps) or one eigh per part.  Both run on a TwirledPair, the
parts (m, x0, x1) of a pair, each part's difference cut at its own level.
np_test splits its difference along its exact zeros and cuts it at the one
level of the whole difference (linalg.eig), so it keeps what the sweep
keeps from the one part (1, rho0n, rho1n) of two states; its projection,
certified idempotent in the Frobenius norm (linalg.support_projection), is
the test as it is, not decomposed again.  Every function of a pair reads
it through linalg.state_pair and never gates the states again; the one
Hermitian gate here is TestOperator's.  np_test, p_min, pmin_bounds_check
and strong_converse_bound take one rate a and weigh rho0n by e^{-a}: on n
copies the caller passes n times the per-copy rate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .divergences import CERTIFIED_GAP, PsiEvaluator, _bracket_min, _scan_min, fidelity
from .errors import DimensionError
from .linalg import (
    Frozen,
    _block_eigh,
    _rebuilt,
    _split_eig,
    above_cut,
    asmatrix,
    hermitian,
    state_pair,
    support_projection,
    trace_norm,
)
from .reports import CheckReport

# matrix entries per stacked eigh of a threshold sweep: bounds its
# temporaries, whatever the length of the rate grid
SWEEP_ENTRIES = 2**18


class TestOperator(Frozen):
    """A binary POVM effect: Hermitian with spectrum in [0, 1].

    ``mat`` passes :func:`hermitian` once and is decomposed along its exact
    zeros (linalg._split_eig): eigenvalues at most 1e-9 outside [0, 1] are
    clipped onto the edge, anything further out is rejected, and only the
    components the clip moved are rebuilt (linalg._rebuilt).  np_test takes
    a support_projection as it is (``TestOperator._of``): its certificate
    already puts its spectrum within 1e-9 of {0, 1}."""

    __test__ = False  # keep pytest from collecting the type
    __slots__ = ("mat",)

    def __init__(self, mat):
        checked = hermitian(mat)
        checked = _rebuilt(checked, *_split_eig(checked, mat, _block_eigh), 1.0, 1e-9)
        checked.setflags(write=False)
        self._set(mat=checked)


def _error_gate(name: str, value: float) -> None:
    if not (-1e-9 <= value <= 1.0 + 1e-9):
        raise ValueError(f"{name}={value!r} outside [0, 1]")


class ErrorPair(Frozen):
    """Type-I and type-II error probabilities, each within 1e-9 of [0, 1]
    and clipped onto it; equal and hashed by value."""

    __slots__ = ("beta0", "beta1")

    def __init__(self, beta0: float, beta1: float):
        # beta0: reject the null although it holds; beta1: accept the null
        # although the alternative holds
        _error_gate("beta0", beta0)
        _error_gate("beta1", beta1)
        self._set(beta0=float(min(max(beta0, 0.0), 1.0)), beta1=float(min(max(beta1, 0.0), 1.0)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.beta0, self.beta1) == (other.beta0, other.beta1)

    def __hash__(self):
        return hash((self.beta0, self.beta1))


def error_pair(test, rho0n, rho1n) -> ErrorPair:
    """Type-I and type-II error probabilities of a test."""
    t = test.mat if isinstance(test, TestOperator) else asmatrix(test)
    s0, s1 = state_pair(rho0n, rho1n)
    m0, m1 = s0.mat, s1.mat
    if t.shape != m0.shape:
        raise DimensionError("test and states must share a dimension")
    # Re Tr(m t) = Re sum conj(t_ij) m_ij for a Hermitian m, in O(d^2)
    beta0 = 1.0 - float(np.vdot(t, m0).real)
    beta1 = float(np.vdot(t, m1).real)
    return ErrorPair(beta0, beta1)


def np_test(rho0n, rho1n, a: float) -> TestOperator:
    """Spectral projection of exp(-a)*rho0n - rho1n onto its positive part,
    taken as support_projection certified it (no second eigh)."""
    s0, s1 = state_pair(rho0n, rho1n)
    return TestOperator._of(mat=support_projection(math.exp(-a) * s0.mat - s1.mat))


def threshold_errors(rho0n, rho1n, a_values) -> np.ndarray:
    """(beta0, beta1) of np_test(rho0n, rho1n, a) for each rate a, one row each.

    The tests are the projections np_test builds, with the same rank cut,
    their errors read off the commuting atoms or one eigh per difference
    (_threshold_errors), not off a projection.  The pair is the one-part
    :class:`TwirledPair`.
    """
    return TwirledPair([(1, *state_pair(rho0n, rho1n))]).threshold_errors(a_values)


def _threshold_errors(parts, atoms, a_values) -> np.ndarray:
    """threshold_errors of the direct sum of the parts (m, x0, x1), A = x0.mat
    and B = x1.mat: from the commuting atoms when given, else from one eigh
    per part of each difference e^{-a} A - B, cut at that part's own level,
    part t adding m_t times its accepted masses.  The rates go SWEEP_ENTRIES
    matrix entries (or atoms) at a time, one stacked array per part."""
    # the weights np_test puts on A, bit for bit
    weights = np.array([math.exp(-float(a)) for a in a_values])
    accept0, accept1 = np.zeros(weights.size), np.zeros(weights.size)
    if atoms is not None:
        w0, w1, o = atoms
        for rates in _rate_chunks(weights.size, w0.size):
            kept = above_cut(np.multiply.outer(weights[rates], w0) - w1)
            accept0[rates], accept1[rates] = kept @ (w0 * o), kept @ (w1 * o)
    else:
        for mult, x0, x1 in parts:
            m0, m1 = x0.mat, x1.mat
            for rates in _rate_chunks(weights.size, m0.size):
                # e^{-a} A - B of two canonical matrices is exactly Hermitian
                w, v = np.linalg.eigh(weights[rates, None, None] * m0 - m1)
                kept = above_cut(w)
                vh, vt = v.conj().transpose(0, 2, 1), v.transpose(0, 2, 1)
                for accept, m in ((accept0, m0), (accept1, m1)):
                    # <v|m|v> of each eigenvector v, summed over the kept ones
                    accept[rates] += mult * (((vh @ m) * vt).sum(axis=2).real * kept).sum(axis=1)
    return _error_rows(accept0, accept1)


def _error_rows(accept0: np.ndarray, accept1: np.ndarray) -> np.ndarray:
    """The rows (1 - accept0, accept1) through ErrorPair's gate, the whole
    array at once: the first entry out of range raises, then all are
    clipped onto [0, 1]."""
    rows = np.column_stack((1.0 - accept0, accept1))
    bad = np.flatnonzero(~((rows >= -1e-9) & (rows <= 1.0 + 1e-9)))
    if bad.size:
        _error_gate(("beta0", "beta1")[bad[0] % 2], float(rows.flat[bad[0]]))
    return np.clip(rows, 0.0, 1.0)


def _rate_chunks(count: int, entries: int) -> list[slice]:
    """Slices of count rates, each of at most SWEEP_ENTRIES // entries of them."""
    step = max(1, SWEEP_ENTRIES // max(entries, 1))
    return [slice(k, k + step) for k in range(0, count, step)]


def p_min(rho0n, rho1n, a: float = 0.0) -> float:
    """Minimal weighted error (1 + e^{-a})/2 - ||e^{-a} rho0n - rho1n||_1 / 2.

    This is the minimum of e^{-a} beta0(T) + beta1(T) over all tests; at
    a = 0 it equals twice the equal-priors symmetric error probability.  On
    n copies the rate a is n times the per-copy rate.
    """
    s0, s1 = state_pair(rho0n, rho1n)
    weight = math.exp(-a)
    return (1.0 + weight) / 2.0 - trace_norm(weight * s0.mat - s1.mat) / 2.0


def average_error(rho0n, rho1n) -> float:
    """Equal-priors symmetric error probability: 1/2 - ||rho0n - rho1n||_1 / 4."""
    return p_min(rho0n, rho1n) / 2.0


def pmin_bounds_check(rho0n, rho1n, a):
    """Power-trace sandwich around the minimal error at the rate a.

    Upper: p_min(a) <= min over s in [0,1] of e^{-as} Tr rho0n^s rho1n^(1-s).
    Lower: p_min(a) >= e^{-a}/(1 + e^{-a}) * (Tr rho0n^(1/2) rho1n^(1/2))^2.
    A float a gives one report, a sequence of rates one report each, all
    read off one evaluator.
    """
    rho0n, rho1n = state_pair(rho0n, rho1n)
    ev = PsiEvaluator(rho0n, rho1n)
    pts = np.linspace(0.0, 1.0, 41)
    window, half_trace = ev.psi(pts), ev.trace_power(0.5)

    def check(a: float) -> CheckReport:
        # the log of the objective, psi(s) - a*s, is convex
        def tilted(s: float) -> tuple[float, float]:
            value, slope = ev.psi_slope(s)
            return value - a * s, slope - a

        upper = math.exp(_scan_min(tilted, pts, window - a * pts))
        weight = math.exp(-a)
        lower = weight / (1.0 + weight) * half_trace**2
        value = p_min(rho0n, rho1n, a)
        report = CheckReport("p_min power-trace bounds")
        report.check_leq("p_min <= weighted trace min", value, upper, 1e-9)
        report.check_leq("fidelity-type lower bound <= p_min", lower, value, 1e-9)
        return report

    return check(a) if isinstance(a, (float, int)) else list(map(check, a))


def _commute(parts) -> bool:
    """Whether A = x0.mat and B = x1.mat commute in every part (m, x0, x1),
    each within 1e-10 * max(1, max|A|, max|B|) in its largest entry."""
    for _, x0, x1 in parts:
        m0, m1 = x0.mat, x1.mat
        scale = max(1.0, float(np.max(np.abs(m0))), float(np.max(np.abs(m1))))
        # for Hermitian m0 and m1, m1 m0 = (m0 m1)^*, so one product gives the commutator
        x = m0 @ m1
        if float(np.max(np.abs(x - x.conj().T))) > 1e-10 * scale:
            return False
    return True


def _dual(parts, atoms, outside: float, eps: float) -> float:
    """Maximum over [0, 1/eps] of the concave dual of the direct sum of the
    parts (m, x0, x1), A = x0.mat and B = x1.mat,
    f(t) = t(1 - eps) - sum_t m_t Tr(t A - B)_+, by divergences._bracket_min
    of -f.  At t = 0, f = 0 with right slope (1 - eps) - outside, outside
    the mass of rho0 outside supp rho1 (PsiEvaluator.outside_mass).  For
    t > 0, f and its supergradient (1 - eps) - sum_t m_t Tr(A_t P+(t)), P+
    projecting onto the positive part of t A_t - B_t, are the sums of o*d
    and o*w0 over the commuting atoms (w0, w1, o) with d = t w0 - w1 > 0, or
    else take one eigh per part.  The best value seen, a lower bound on
    beta_eps by weak duality, is returned.  On the atoms f is piecewise
    linear and peaks at a breakpoint w1/w0, so where the gap (absolute below
    1) exceeds 1e-14 of the best value, f is read at the breakpoints of the
    last bracket, each term then at most t: a small beta_eps stays accurate.
    """
    rising, falling = [0.0], []  # a falling start ends the bracket at t = 0

    def neg_dual(t: float) -> tuple[float, float]:
        if t == 0.0:
            return 0.0, outside - (1.0 - eps)
        value, slope = t * (1.0 - eps), 1.0 - eps
        if atoms is not None:
            w0, w1, o = atoms
            d = t * w0 - w1
            kept = o * (d > 0.0)
            value -= float(kept @ d)
            slope -= float(kept @ w0)
        else:
            for mult, x0, x1 in parts:
                w, v = np.linalg.eigh(t * x0.mat - x1.mat)
                kept = v[:, w > 0.0]
                value -= mult * float(np.sum(w[w > 0.0]))
                # Tr A P+ = sum of <v|A|v> over the eigenvectors v of the positive part
                slope -= mult * float(np.sum(kept.conj() * (x0.mat @ kept)).real)
        (rising if slope > 0.0 else falling).append(t)
        return -value, -slope

    best, gap = _bracket_min(neg_dual, 0.0, 1.0 / eps)
    best = -best
    if atoms is not None and falling and gap > CERTIFIED_GAP * best:
        w0, w1, o = atoms
        inside = (max(rising) * w0 <= w1) & (w1 <= min(falling) * w0)
        t = w1[inside] / w0[inside]
        best = float(np.max(t * (1.0 - eps) - np.maximum(t[:, None] * w0 - w1, 0.0) @ o, initial=best))
    return min(max(0.0, best), 1.0)


def beta_eps(rho0n, rho1n, eps: float) -> float:
    """Minimal type-II error subject to type-I error at most eps.

    Computed as max over t >= 0 of t(1 - eps) - Tr(t*rho0n - rho1n)_+, the
    Lagrange dual of the hypothesis-testing problem (Wang-Renner,
    arXiv:1007.5456); strong duality makes the maximum equal beta_eps.  The
    pair is the one-part :class:`TwirledPair`.
    """
    return TwirledPair([(1, *state_pair(rho0n, rho1n))]).beta_eps(eps)


class TwirledPair:
    """A pair of states held as the parts (m, x0, x1) of its direct sum: m
    copies of the pair of canonical matrices (x0.mat, x1.mat), each x a
    DensityOperator or a schur_weyl.Block.  Two states are the one part
    (1, rho0, rho1); divergences.TwirledSweep.pair(n) is one part per
    Schur-Weyl block t (m = m_t) for qubits, the one part of
    groups.twirled_pair otherwise.  ``evaluator`` (the PsiEvaluator of the
    parts) and ``atoms`` (its commuting atoms when A and B commute in every
    part, else None) are built once, on first use.  :meth:`beta_eps` and
    :meth:`threshold_errors` give what the functions of the same names give
    on the dense pair.
    """

    def __init__(self, parts):
        self.parts = parts

    @functools.cached_property
    def evaluator(self) -> PsiEvaluator:
        return PsiEvaluator.of_parts(self.parts)

    @functools.cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        return self.evaluator.atoms() if _commute(self.parts) else None

    def beta_eps(self, eps: float) -> float:
        """:func:`_dual`, read off the commuting atoms when there are any."""
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie strictly between 0 and 1")
        return _dual(self.parts, self.atoms, self.evaluator.outside_mass(), eps)

    def threshold_errors(self, a_values) -> np.ndarray:
        return _threshold_errors(self.parts, self.atoms, a_values)


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
        def tilted(s: float) -> tuple[float, float]:
            value, slope = evaluator.psi_slope(s)
            return value - a * (s - 1.0), slope - a

        phi_tilde_n = -_scan_min(tilted, pts, window - a * (pts - 1.0))
        return math.exp(-a) * (1.0 - eps - math.exp(-phi_tilde_n))

    return bound(a) if isinstance(a, (float, int)) else np.vectorize(bound, otypes=[float])(a)


def stein_a_grid(slope: float) -> np.ndarray:
    """Rate grid of width 1 around the slope of psi at s = 1."""
    return np.linspace(slope - 0.5, slope + 0.5, 21)


def fidelity_pmin_check(rho0n, rho1n) -> CheckReport:
    """Fidelity sandwich around the equal-priors symmetric error."""
    rho0n, rho1n = state_pair(rho0n, rho1n)
    f = fidelity(rho0n, rho1n)
    value = average_error(rho0n, rho1n)
    lower = (1.0 - math.sqrt(max(1.0 - f * f, 0.0))) / 2.0
    report = CheckReport("fidelity sandwich for the symmetric error")
    report.check_leq("(1 - sqrt(1 - F^2))/2 <= avg error", lower, value, 1e-9)
    report.check_leq("avg error <= F/2", value, f / 2.0, 1e-9)
    return report

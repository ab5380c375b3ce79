"""Statistical distance measures between density operators.

Everything here is driven by the two-parameter trace functional
Tr rho0**s rho1**(1-s): the log of that trace as a function of s, psi, and
its exact slope (both read off the two kept spectra, no finite difference),
the PsiCurve that samples an exact evaluator on a grid itself, the one
Legendre-Fenchel transform phi over [0, 1], and the Renyi,
relative-entropy, fidelity, Chernoff and Hoeffding quantities built from it.
The strong-converse window [1, 3/2] is maximized by
discrimination.strong_converse_bound on its own grid.  Orthogonal supports are a
legitimate regime and are represented by the IEEE sentinel NEG_INF, which
propagates through sums with finite numbers the way the math requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .groups import GroupAction, is_support_invariant, twirled_pair
from .linalg import abs_power_trace, eig, matrix_pair
from .reports import CheckReport

NEG_INF = float("-inf")
POS_INF = float("inf")
UNDERFLOW = 1e-300

GOLDEN_XTOL = 1e-10


def default_s_grid() -> np.ndarray:
    """201 uniform points on [-0.5, 2]; covers every window used downstream."""
    return np.linspace(-0.5, 2.0, 201)


class PsiEvaluator:
    """Spectral engine for s -> log Tr rho0**s rho1**(1-s).

    Both spectra are taken once (the ones density operators keep); each
    evaluation is then a weighted sum over the support-restricted
    eigenvalue pairs, so sweeping a grid of s values costs one matrix product
    total.  The trace sums the pair weights w0_i**s O_ij w1_j**(1-s) over the
    Nussbaum-Szkola overlaps O_ij = |<v0_i|v1_j>|**2.
    """

    def __init__(self, rho0, rho1):
        m0, _ = matrix_pair(rho0, rho1)
        s0, s1 = eig(rho0).support(), eig(rho1).support()
        self._log0 = np.log(s0.eigenvalues)
        self._log1 = np.log(s1.eigenvalues)
        overlap = np.abs(s0.eigenvectors.conj().T @ s1.eigenvectors) ** 2
        # overlaps below eigenvector accuracy are roundoff ghosts of exact zeros
        floor = (16.0 * m0.shape[0] * float(np.finfo(float).eps)) ** 2
        overlap[overlap < floor] = 0.0
        self._overlap = overlap

    def trace_power(self, s: float) -> float:
        if self._log0.size == 0 or self._log1.size == 0:
            return 0.0
        a = np.exp(s * self._log0)
        b = np.exp((1.0 - s) * self._log1)
        return float(max(a @ self._overlap @ b, 0.0))

    def psi(self, s: float) -> float:
        t = self.trace_power(s)
        return math.log(t) if t > UNDERFLOW else NEG_INF

    def slope(self, s: float) -> float:
        """Exact derivative of psi at s, the mean of log w0_i - log w1_j under
        the pair weights; nan where psi is -inf."""
        t = self.trace_power(s)
        if t <= UNDERFLOW:
            return math.nan
        a = np.exp(s * self._log0)
        b = np.exp((1.0 - s) * self._log1)
        return float((a * self._log0) @ self._overlap @ b - a @ self._overlap @ (b * self._log1)) / t


def psi(rho0, rho1, s: float) -> float:
    """log Tr rho0**s rho1**(1-s); NEG_INF for orthogonal supports."""
    return PsiEvaluator(rho0, rho1).psi(s)


@dataclass(frozen=True, eq=False)
class PsiCurve:
    """An s -> psi(s) map: its exact evaluator ``fn``, its exact derivative
    ``slope``, and ``values``, fn sampled on ``s_grid`` by the constructor.

    The optimizers evaluate ``fn`` on the grid points inside their window and
    refine past the grid with it; ``values`` are the printed samples and the
    convexity check's input.
    """

    s_grid: np.ndarray
    fn: Callable[[float], float] = field(repr=False)
    slope: Callable[[float], float] = field(repr=False)
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        grid = np.array(self.s_grid, dtype=float)  # a copy: the caller's grid stays writable
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("s grid must be a 1-d array of at least 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("s grid must be strictly ascending")
        vals = np.array([self.evaluate(s) for s in grid])
        finite = np.isfinite(vals)
        if np.any(np.isnan(vals)) or np.any(vals == POS_INF):
            raise ValueError("curve values must be finite or -inf")
        scale = max(1.0, float(np.max(np.abs(vals[finite]))) if finite.any() else 1.0)
        for k in range(grid.size - 2):
            window = vals[k : k + 3]
            if not np.all(np.isfinite(window)):
                continue
            left = (window[1] - window[0]) / (grid[k + 1] - grid[k])
            right = (window[2] - window[1]) / (grid[k + 2] - grid[k + 1])
            if right - left < -1e-7 * scale:
                raise ValueError(
                    f"curve is not convex near s={grid[k + 1]:g} (slope drop {right - left:.3e})"
                )
        grid.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "s_grid", grid)
        object.__setattr__(self, "values", vals)

    def evaluate(self, s: float) -> float:
        return float(self.fn(float(s)))

    def covers(self, lo: float, hi: float) -> bool:
        return self.s_grid[0] <= lo + 1e-12 and self.s_grid[-1] >= hi - 1e-12


def psi_curve(rho0, rho1, grid=None) -> PsiCurve:
    """The curve of psi on a grid, with the exact evaluator and slope."""
    ev = PsiEvaluator(rho0, rho1)
    return PsiCurve(default_s_grid() if grid is None else grid, ev.psi, ev.slope)


def renyi(rho0, rho1, alpha: float) -> float:
    """Renyi relative entropy of order alpha != 1 built on the same trace."""
    if abs(alpha - 1.0) < 1e-12:
        raise ValueError("order 1 is the relative entropy; call relative_entropy instead")
    t = PsiEvaluator(rho0, rho1).trace_power(alpha)
    if t <= UNDERFLOW:
        return POS_INF
    return math.log(t) / (alpha - 1.0)


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi entropy of order alpha != 1 of a single state."""
    if abs(alpha - 1.0) < 1e-12:
        raise ValueError("order 1 is the von Neumann entropy")
    w = eig(rho).support().eigenvalues
    return math.log(float(np.sum(w**alpha))) / (1.0 - alpha)


def relative_entropy(rho0, rho1) -> float:
    """Tr rho0 (log rho0 - log rho1) when supp rho0 <= supp rho1, else +inf:
    the slope of psi at s = 1."""
    matrix_pair(rho0, rho1)  # raises DimensionError on a dimension mismatch
    v0, v1 = eig(rho0).support().eigenvectors, eig(rho1).support().eigenvectors
    resid = v0 - v1 @ (v1.conj().T @ v0)  # the part of supp rho0 outside supp rho1
    if float(np.linalg.norm(resid)) > 1e-7:
        return POS_INF
    del v0, v1, resid  # the evaluator takes its own support copies: free these first
    return PsiEvaluator(rho0, rho1).slope(1.0)


def fidelity(rho, sigma) -> float:
    """Tr |rho**(1/2) sigma**(1/2)|, clipped into [0, 1]."""
    f = abs_power_trace(rho, sigma, 0.5)
    return float(min(max(f, 0.0), 1.0))


def _golden_min(fn, a: float, b: float) -> tuple[float, float]:
    """Deterministic golden-section minimum; ties resolve toward smaller s."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > GOLDEN_XTOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    candidates = [(a, fn(a)), ((a + b) / 2.0, fn((a + b) / 2.0)), (b, fn(b))]
    best = min(candidates, key=lambda p: (p[1], p[0]))
    return best


def _grid_in(curve: PsiCurve, lo: float, hi: float) -> np.ndarray:
    pts = curve.s_grid[(curve.s_grid >= lo - 1e-12) & (curve.s_grid <= hi + 1e-12)]
    pts = np.unique(np.concatenate([pts, [lo, hi]]))
    return pts[(pts >= lo) & (pts <= hi)]


def _scan_min(fn, pts: np.ndarray) -> tuple[float, float]:
    """Minimum of fn over the ascending points pts, refined by golden section
    between the neighbours of the best point."""
    vals = np.array([fn(float(s)) for s in pts])
    k = int(np.argmin(vals))
    best_s, best_v = float(pts[k]), float(vals[k])
    if best_v == NEG_INF:
        return best_s, best_v
    a = float(pts[max(k - 1, 0)])
    b = float(pts[min(k + 1, pts.size - 1)])
    if b > a:
        s_ref, v_ref = _golden_min(fn, a, b)
        if v_ref < best_v or (v_ref == best_v and s_ref < best_s):
            best_s, best_v = s_ref, v_ref
    return best_s, best_v


def hoeffding_distance(curve: PsiCurve, r: float) -> float:
    """sup over t in [0, 1) of (-t*r - psi(t)) / (1 - t); +inf when r < -psi(1)."""
    if r < 0:
        raise ValueError("rate parameter r must be nonnegative")
    if not curve.covers(0.0, 1.0):
        raise ValueError("curve does not cover [0, 1)")
    psi1 = curve.evaluate(1.0)
    if psi1 == NEG_INF:
        return POS_INF
    boundary_tol = 1e-9
    if r + psi1 < -boundary_tol:
        return POS_INF

    def objective(t: float) -> float:
        v = curve.evaluate(t)
        if v == NEG_INF:
            return POS_INF
        return (-t * r - v) / (1.0 - t)

    hi = 1.0 - 1e-7
    _, neg_best = _scan_min(lambda t: -objective(t), _grid_in(curve, 0.0, hi))
    best = -neg_best
    if best == POS_INF:
        return POS_INF
    if abs(r + psi1) <= boundary_tol:
        best = max(best, r + curve.slope(1.0))
    return best


def phi(curve: PsiCurve, a: float) -> float:
    """Legendre-Fenchel transform, max over [0, 1] of a*s - psi(s), refined
    past the grid; phi(0) is the Chernoff distance."""
    if not curve.covers(0.0, 1.0):
        raise ValueError("curve does not cover the window [0, 1]")

    def neg_objective(s: float) -> float:
        v = curve.evaluate(s)
        if v == NEG_INF:
            return NEG_INF
        return v - a * s

    _, vmin = _scan_min(neg_objective, _grid_in(curve, 0.0, 1.0))
    if vmin == NEG_INF:
        return POS_INF
    return -vmin


def chernoff_distance(curve: PsiCurve) -> float:
    """-min over [0, 1] of the curve; +inf for orthogonal supports."""
    return phi(curve, 0.0)


def lieb_bound_check(rho0, rho1, action: GroupAction, n: int,
                     s_grid=None) -> CheckReport:
    """Sandwich of the n-copy twirled psi between the scaled unrestricted and
    single-copy twirled curves: on [0, 1] it sits above n*psi_unrestricted and
    below n*psi_1; on [1, 2] both bounds flip when supp rho1 is invariant."""
    if s_grid is None:
        s_grid = default_s_grid()
    s_grid = np.asarray(s_grid, dtype=float)
    pair_n = twirled_pair(rho0, rho1, action, n)
    pair_1 = twirled_pair(rho0, rho1, action, 1)
    ev_n = PsiEvaluator(*pair_n)
    ev_1 = PsiEvaluator(*pair_1)
    ev_0 = PsiEvaluator(rho0, rho1)
    report = CheckReport(f"psi sandwich (n={n})")
    invariant = is_support_invariant(rho1, action)
    report.note("supp rho1 invariant", value=float(invariant))
    for s in s_grid[(s_grid >= 0.0) & (s_grid <= 1.0)]:
        s = float(s)
        pn, p1, p0 = ev_n.psi(s), ev_1.psi(s), ev_0.psi(s)
        report.check_leq(f"n*psi_unres <= psi_n at s={s:g}", n * p0, pn, 1e-8)
        report.check_leq(f"psi_n <= n*psi_1 at s={s:g}", pn, n * p1, 1e-8)
    if invariant:
        for s in s_grid[(s_grid >= 1.0) & (s_grid <= 2.0)]:
            s = float(s)
            pn, p1, p0 = ev_n.psi(s), ev_1.psi(s), ev_0.psi(s)
            report.check_leq(f"psi_n <= n*psi_unres at s={s:g}", pn, n * p0, 1e-8)
            report.check_leq(f"n*psi_1 <= psi_n at s={s:g}", n * p1, pn, 1e-8)
    return report


"""Statistical distance measures between density operators.

Everything here is driven by the two-parameter trace functional
Tr rho0**s rho1**(1-s): the log of that trace as a function of s, psi, and
its exact slope (both read off the two kept spectra, no finite difference),
the PsiCurve that samples an exact evaluator on a grid itself, the one
Legendre-Fenchel transform phi over [0, 1], and the Renyi,
relative-entropy, fidelity, Chernoff and Hoeffding quantities built from it.
PsiEvaluator is the one reader of a pair's two kept spectra together and
holds arrays only: the relative entropy takes its nesting test from its
``outside`` mass, and discrimination the commuting atoms from its ``atoms``.
A pair is one list of parts (m, x0, x1), m copies of the pair (x0, x1),
held as their direct sum; each x has a ``mat`` and a ``spectrum``: a
DensityOperator, or a schur_weyl.Block.  PsiEvaluator(rho0, rho1) is the
one part (1, rho0, rho1) and reads the spectra, discrimination.TwirledPair
the matrices of the same list.  TwirledSweep(rho0, rho1, action).pair(n)
gives the twirled n-copy pair for every n: for qubits one part per
Schur-Weyl block t with m = m_t and no 2^n-sized array, each block
decomposed once for the whole sweep (schur_weyl.SymBlocks, one per state);
for d > 2 the one part of twirled_pair(rho0, rho1, action, n).  A command
that sweeps n holds one sweep.  A caller that builds the dense pair for
another matrix quantity reads psi off it.
A PsiCurve calls its evaluator once on its whole grid; phi and
hoeffding_distance scan the curve's samples, call the evaluator at a window
end off the grid, and read the value and the slope of each scalar step of
_bracket_min, the one 1-D refinement, which certifies its own gap, off one
pass (PsiCurve.psi_slope).
Orthogonal supports are a legitimate regime and are represented by the IEEE
sentinel NEG_INF, which propagates through sums with finite numbers the way
the math requires.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DimensionError
from .groups import GroupAction, _check_power_dim, is_support_invariant, twirled_pair
from .linalg import Frozen, abs_power_trace, as_state, state_pair
from .reports import CheckReport

NEG_INF = float("-inf")
POS_INF = float("inf")
UNDERFLOW = 1e-300

# a 1-D refinement stops once its certified gap is at most this times
# max(1, |best|)
CERTIFIED_GAP = 1e-14
# s points per matrix product of an array evaluation; bounds its temporaries
# at GRID_CHUNK times the rank, whatever the length of the grid
GRID_CHUNK = 256


def default_s_grid() -> np.ndarray:
    """201 uniform points on [-0.5, 2]; covers every window used downstream."""
    return np.linspace(-0.5, 2.0, 201)


class PsiEvaluator:
    """Spectral engine for s -> log Tr rho0**s rho1**(1-s), the only code that
    reads a pair's two kept spectra together.  It holds arrays read off one
    product cross = V0* V1 of the supports' eigenvectors per part of the
    pair: psi sums w0_i**s O_ij w1_j**(1-s) over the Nussbaum-Szkola
    overlaps O_ij = |cross_ij|**2, and ``outside`` and ``atoms`` return
    stored arrays.  A pair is a list of parts (m, x0, x1), of which it reads
    x0.spectrum and x1.spectrum: the one part (1, rho0, rho1) for two states,
    read through linalg.state_pair (a plain array as its DensityOperator,
    validated once), one per Schur-Weyl block t (m = m_t) for a twirled
    n-copy qubit pair (:meth:`TwirledSweep.pair`).  The arrays are the direct
    sum of the parts':
    eigenvalues and outside masses end to end, the overlaps block diagonal
    with part t's weighted by m_t, so every product below sums over the
    parts.

    ``trace_power`` and ``psi`` take a float or an array of s.  A float gives
    a float, through one vector-matrix-vector product; an array gives an
    array of its shape, through one matrix product per GRID_CHUNK points,
    so sweeping a grid costs a few products, not one call per point.
    ``slope`` and ``psi_slope`` take a float only; ``psi_slope`` gives the
    value and the slope of one pass, for a refinement that reads both.
    """

    def __init__(self, rho0, rho1):
        self._build([(1, *state_pair(rho0, rho1))])

    @classmethod
    def of_parts(cls, parts) -> "PsiEvaluator":
        """The evaluator of the pair whose parts are (m, x0, x1)."""
        ev = cls.__new__(cls)
        ev._build(parts)
        return ev

    def _build(self, parts) -> None:
        """The arrays of the parts (m, x0, x1) of a pair: each part's two
        spectra cut to their supports (Spectrum.support, component by
        component), its overlaps zeroed below the eigenvector accuracy of its
        size."""
        supp0, supp1, overlaps, outsides = [], [], [], []
        for mult, x0, x1 in parts:
            spec0, spec1 = x0.spectrum, x1.spectrum
            s0, s1 = spec0.support(), spec1.support()
            v0, v1 = s0.eigenvectors, s1.eigenvectors
            cross = v0.conj().T @ v1
            if s1 is spec1:
                outside = np.zeros(s0.eigenvalues.size)
            else:
                # row i is (v0_i - P1 v0_i)^T; 1 - sum_j O_ij would lose 1e-13 to rounding
                outside = (np.abs(v0.T - cross.conj() @ v1.T) ** 2).sum(axis=1)
            overlap = np.abs(cross) ** 2
            # overlaps below the eigenvector accuracy of the part's size are
            # roundoff ghosts of exact zeros
            floor = (16.0 * spec0.eigenvalues.size * float(np.finfo(float).eps)) ** 2
            overlap[overlap < floor] = 0.0
            supp0.append(s0)
            supp1.append(s1)
            overlaps.append(mult * overlap if mult != 1 else overlap)
            outsides.append(mult * outside if mult != 1 else outside)
        self._w0 = _joined([s.eigenvalues for s in supp0])
        self._w1 = _joined([s.eigenvalues for s in supp1])
        self._log0, self._log1 = np.log(self._w0), np.log(self._w1)
        self._outside = _joined(outsides)
        self._overlap = _direct_sum(overlaps)

    def outside(self) -> np.ndarray:
        """Mass of each support vector v0_i of rho0 outside supp rho1,
        ||v0_i - P1 v0_i||**2 times its multiplicity; zeros when rho1 has
        full rank."""
        return self._outside

    def outside_mass(self) -> float:
        """Tr rho0 (1 - P1), the mass of rho0 outside supp rho1: the
        ``outside`` masses weighted by their eigenvalues of rho0."""
        return float(self._w0 @ self._outside)

    def atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nonzero atoms (w0_i, w1_j, O_ij) and (w0_i, 0, outside_i): on a commuting
        pair sum O f(w0, w1) is Tr f(rho0, rho1) whenever f(0, .) = 0."""
        overlap = np.column_stack([self._overlap, self._outside])
        i, j = np.nonzero(overlap)
        return self._w0[i], np.append(self._w1, 0.0)[j], overlap[i, j]

    def trace_power(self, s):
        # an empty support sums no pairs: every product below is then 0
        if isinstance(s, (float, int)):
            a = np.exp(s * self._log0)
            b = np.exp((1.0 - s) * self._log1)
            t = float(a @ self._overlap @ b)
            return 0.0 if t < 0.0 else t
        s = np.asarray(s, dtype=float)
        out = np.empty(s.shape)
        flat_s, flat_out = s.reshape(-1), out.reshape(-1)
        for k in range(0, flat_s.size, GRID_CHUNK):
            chunk = flat_s[k:k + GRID_CHUNK]
            a = np.exp(np.multiply.outer(chunk, self._log0))
            b = np.exp(np.multiply.outer(1.0 - chunk, self._log1))
            flat_out[k:k + GRID_CHUNK] = ((a @ self._overlap) * b).sum(axis=1)
        return np.maximum(out, 0.0, out=out)

    def psi(self, s):
        t = self.trace_power(s)
        if isinstance(t, float):
            return math.log(t) if t > UNDERFLOW else NEG_INF
        out = np.full(t.shape, NEG_INF)
        kept = t > UNDERFLOW
        out[kept] = np.log(t[kept])
        return out

    def psi_slope(self, s: float) -> tuple[float, float]:
        """(psi(s), psi'(s)) of a float s from one pass: the value psi gives
        and the exact derivative, the mean of log w0_i - log w1_j under the
        pair weights; (-inf, nan) where psi is -inf."""
        a = np.exp(s * self._log0)
        b = np.exp((1.0 - s) * self._log1)
        row = a @ self._overlap
        t = float(row @ b)
        if t <= UNDERFLOW:
            return NEG_INF, math.nan
        return math.log(t), float((a * self._log0) @ self._overlap @ b - row @ (b * self._log1)) / t

    def slope(self, s: float) -> float:
        """Exact derivative of psi at s; nan where psi is -inf."""
        return self.psi_slope(s)[1]

    def relative_entropy(self) -> float:
        """Tr rho0 (log rho0 - log rho1), psi'(1); +inf past 1e-14 of mass outside supp rho1."""
        return POS_INF if float(self._outside.sum()) > 1e-14 else self.slope(1.0)

    def renyi(self, alpha: float) -> float:
        """Renyi relative entropy of order alpha != 1, psi(alpha) / (alpha - 1)."""
        if abs(alpha - 1.0) < 1e-12:
            raise ValueError("order 1 is the relative entropy; call relative_entropy instead")
        t = self.trace_power(alpha)
        return POS_INF if t <= UNDERFLOW else math.log(t) / (alpha - 1.0)


class TwirledSweep:
    """The twirled n-copy pair of (rho0, rho1) under an action, for every n.

    :meth:`pair` gives the pair at n as the parts (m, x0, x1) of its direct
    sum.  A qubit pair gives one part per Schur-Weyl block t, m = m_t and x
    the blocks t of the two states (schur_weyl.Block), read off one
    schur_weyl.SymBlocks per state, which decomposes each block once for
    every n; any other pair gives the one part (1, *twirled_pair(rho0, rho1,
    action, n)).  The route follows action.dim; the qubit route checks that
    the states are qubits, and every n checks the dimension cap against 2^n,
    as twirled_pair does.  A command holds its sweep as a local, so no block
    outlives it.
    """

    def __init__(self, rho0, rho1, action: GroupAction):
        self._pair = (rho0, rho1, action)
        self._blocks = None
        if action.dim == 2:
            # imported here, so only the commands that take the route compile it
            from .schur_weyl import SymBlocks

            s0, s1 = state_pair(rho0, rho1)
            if s0.dim != 2:
                raise DimensionError(
                    f"Schur-Weyl blocks need qubits, got states of dimension {s0.dim} "
                    f"and an action of dimension {action.dim}")
            self._blocks = (SymBlocks(s0, action), SymBlocks(s1, action))

    def pair(self, n: int) -> list:
        if self._blocks is None:
            return [(1, *twirled_pair(*self._pair, n))]
        _check_power_dim(self._pair[2], n)
        blocks0, blocks1 = (blocks.blocks(n) for blocks in self._blocks)
        return [(mult, x0, x1) for (mult, x0), (_, x1) in zip(blocks0, blocks1)]

    def evaluator(self, n: int) -> "PsiEvaluator":
        """The PsiEvaluator of the pair at n."""
        return PsiEvaluator.of_parts(self.pair(n))


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end, the one array itself when alone."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _direct_sum(mats: list[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of mats, the one matrix itself when alone."""
    if len(mats) == 1:
        return mats[0]
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    i = j = 0
    for m in mats:
        out[i:i + m.shape[0], j:j + m.shape[1]] = m
        i, j = i + m.shape[0], j + m.shape[1]
    return out


def psi(rho0, rho1, s: float) -> float:
    """log Tr rho0**s rho1**(1-s); NEG_INF for orthogonal supports."""
    return PsiEvaluator(rho0, rho1).psi(s)


class PsiCurve(Frozen):
    """An s -> psi(s) map: its exact evaluator ``fn``, ``psi_slope``, which
    gives the value and the exact derivative at a float s from one pass, and
    ``values``, fn sampled on ``s_grid`` by the constructor.

    ``fn`` takes a float or an array of s: the constructor calls it once on
    the whole grid (a scalar result is broadcast to the grid, so a constant
    works).  The optimizers scan ``values`` at the grid points inside their
    window and refine past the grid with ``psi_slope``; ``values`` are also
    the printed samples and the convexity check's input.  :meth:`slope` is
    the derivative alone.
    """

    __slots__ = ("s_grid", "fn", "psi_slope", "values")

    def __init__(self, s_grid, fn: Callable, psi_slope: Callable[[float], tuple[float, float]]):
        grid = np.array(s_grid, dtype=float)  # a copy: the caller's grid stays writable
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("s grid must be a 1-d array of at least 2 points")
        if not np.all(np.isfinite(grid)):
            raise ValueError("s grid must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("s grid must be strictly ascending")
        grid.setflags(write=False)
        vals = np.array(np.broadcast_to(np.asarray(fn(grid), dtype=float), grid.shape))
        finite = np.isfinite(vals)
        if np.any(np.isnan(vals)) or np.any(vals == POS_INF):
            raise ValueError("curve values must be finite or -inf")
        scale = max(1.0, float(np.max(np.abs(vals[finite]))) if finite.any() else 1.0)
        with np.errstate(invalid="ignore"):  # -inf - -inf, in windows skipped below
            secant = np.diff(vals) / np.diff(grid)
            drop = secant[1:] - secant[:-1]
        windows = finite[:-2] & finite[1:-1] & finite[2:]
        bad = np.flatnonzero(windows & (drop < -1e-7 * scale))
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"curve is not convex near s={grid[k + 1]:g} (slope drop {drop[k]:.3e})"
            )
        vals.setflags(write=False)
        self._set(s_grid=grid, fn=fn, psi_slope=psi_slope, values=vals)

    def evaluate(self, s: float) -> float:
        return float(self.fn(float(s)))

    def slope(self, s: float) -> float:
        return self.psi_slope(s)[1]

    def covers(self, lo: float, hi: float) -> bool:
        return self.s_grid[0] <= lo + 1e-12 and self.s_grid[-1] >= hi - 1e-12


def psi_curve(rho0, rho1, grid=None) -> PsiCurve:
    """The curve of psi on a grid, with the exact evaluator and slope."""
    ev = PsiEvaluator(rho0, rho1)
    return PsiCurve(default_s_grid() if grid is None else grid, ev.psi, ev.psi_slope)


def renyi(rho0, rho1, alpha: float) -> float:
    """Renyi relative entropy of order alpha != 1 built on the same trace."""
    return PsiEvaluator(rho0, rho1).renyi(alpha)


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi entropy of order alpha != 1 of a state, read off the spectrum
    its DensityOperator keeps."""
    if abs(alpha - 1.0) < 1e-12:
        raise ValueError("order 1 is the von Neumann entropy")
    w = as_state(rho).spectrum.support().eigenvalues
    return math.log(float(np.sum(w**alpha))) / (1.0 - alpha)


def relative_entropy(rho0, rho1) -> float:
    """Tr rho0 (log rho0 - log rho1), psi'(1); +inf past 1e-14 of mass outside supp rho1."""
    return PsiEvaluator(rho0, rho1).relative_entropy()


def fidelity(rho, sigma) -> float:
    """Tr |rho**(1/2) sigma**(1/2)| of two states, read through
    linalg.state_pair, clipped into [0, 1]."""
    f = abs_power_trace(*state_pair(rho, sigma), 0.5)
    return float(min(max(f, 0.0), 1.0))


def _bracket_min(fn, lo: float, hi: float) -> tuple[float, float]:
    """Minimum of a convex function on [lo, hi] and its certified gap.

    fn(x) gives (value, slope), the slope exact (any subgradient at a kink).
    An end slope of the wrong sign puts the minimum at that end, certified
    exactly.  Otherwise the end slopes have opposite signs, and the tangents
    at the two ends meet below the minimum, so the best value seen less the
    tangents' meeting value is the gap.  Each step is the secant root of the
    slope through the two newest points.  Near a smooth minimum the tangents
    meet near the middle of the bracket; when they meet off its middle half,
    or the secant root leaves the open bracket, the step is their meeting
    point, exact at a kink between straight pieces.  A step still off the
    open bracket becomes its midpoint.  It stops when the gap is at most
    CERTIFIED_GAP * max(1, |best|), or when the bracket stops shrinking."""
    f_lo, g_lo = fn(lo)
    if not g_lo < 0.0:
        return f_lo, 0.0
    f_hi, g_hi = fn(hi)
    best = min(f_lo, f_hi)
    if not g_hi > 0.0:
        return best, 0.0
    (x0, g0), (x1, g1) = (lo, g_lo), (hi, g_hi)  # the two newest points
    while True:
        meet = min(max((f_hi - f_lo + g_lo * lo - g_hi * hi) / (g_lo - g_hi), lo), hi)
        gap = best - max(f_lo + g_lo * (meet - lo), f_hi + g_hi * (meet - hi))
        if gap <= CERTIFIED_GAP * max(1.0, abs(best)):
            return best, gap
        x = x1 - g1 * (x1 - x0) / (g1 - g0) if g1 != g0 else meet
        if not lo < x < hi or abs(2.0 * meet - lo - hi) > 0.5 * (hi - lo):
            x = meet
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return best, gap
        f, g = fn(x)
        best = min(best, f)
        (x0, g0), (x1, g1) = (x1, g1), (x, g)
        if g < 0.0:
            lo, f_lo, g_lo = x, f, g
        elif g > 0.0:
            hi, f_hi, g_hi = x, f, g
        else:
            # a zero slope is the minimum; a nan one marks a -inf value
            return best, 0.0


def _window(curve: PsiCurve, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan points of [lo, hi], its grid points and both ends, and the
    curve there: its samples on the grid, fn at an end off the grid."""
    inside = (curve.s_grid >= lo) & (curve.s_grid <= hi)
    pts, vals = curve.s_grid[inside], curve.values[inside]
    if pts.size == 0 or pts[0] != lo:
        pts, vals = np.insert(pts, 0, lo), np.insert(vals, 0, curve.evaluate(lo))
    if pts[-1] != hi:
        pts, vals = np.append(pts, hi), np.append(vals, curve.evaluate(hi))
    return pts, vals


def _scan_min(fn, pts: np.ndarray, vals: np.ndarray) -> float:
    """Minimum of a convex function over the ascending points pts, where it
    takes the values vals, refined by :func:`_bracket_min` of fn between the
    neighbours of the best point."""
    k = int(np.argmin(vals))
    best = float(vals[k])
    lo, hi = float(pts[max(k - 1, 0)]), float(pts[min(k + 1, pts.size - 1)])
    if best == NEG_INF or not hi > lo:
        return best
    return min(best, _bracket_min(fn, lo, hi)[0])


def hoeffding_distance(curve: PsiCurve, r: float) -> float:
    """sup over t in [0, 1) of (-t*r - psi(t)) / (1 - t); +inf when r < -psi(1).

    On the nesting boundary r = -psi(1) the objective is r plus the secant
    slope of psi over [t, 1], nondecreasing in t for a convex psi, so the sup
    is r + psi'(1), returned without a scan.  Off it, the negated objective
    is scanned in t and refined in u = t/(1 - t), where it is
    u*r + (1 + u)*psi(t), convex (a perspective of psi) with slope
    r + psi(t) + (1 - t)*psi'(t)."""
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
    # the sup takes in t = 0, where the objective is -psi(0) >= 0, so an
    # exponent below 0 is rounding
    if abs(r + psi1) <= boundary_tol:
        return max(0.0, r + curve.slope(1.0))

    def neg_objective(t, v):
        # a -inf value gives -t*r + inf = +inf: an unbounded objective
        return -((-t * r - v) / (1.0 - t))

    def in_u(u):
        t = u / (1.0 + u)
        v, slope = curve.psi_slope(t)
        return neg_objective(t, v), r + v + (1.0 - t) * slope

    pts, vals = _window(curve, 0.0, 1.0 - 1e-7)
    return max(0.0, -_scan_min(in_u, pts / (1.0 - pts), neg_objective(pts, vals)))


def phi(curve: PsiCurve, a: float) -> float:
    """Legendre-Fenchel transform, max over [0, 1] of a*s - psi(s), refined
    past the grid; phi(0) is the Chernoff distance."""
    if not curve.covers(0.0, 1.0):
        raise ValueError("curve does not cover the window [0, 1]")
    pts, vals = _window(curve, 0.0, 1.0)

    def tilted(s):
        value, slope = curve.psi_slope(s)
        return value - a * s, slope - a

    # a -inf value stays -inf: an unbounded transform
    return -_scan_min(tilted, pts, vals - a * pts)


def chernoff_distance(curve: PsiCurve) -> float:
    """-min over [0, 1] of the curve; +inf for orthogonal supports."""
    return phi(curve, 0.0)


def lieb_bound_check(rho0, rho1, action: GroupAction, n: int,
                     s_grid=None) -> CheckReport:
    """Sandwich of the n-copy twirled psi between the scaled unrestricted and
    single-copy twirled curves: on [0, 1] it sits above n*psi_unrestricted and
    below n*psi_1; on [1, 2] both bounds flip when supp rho1 is invariant."""
    sweep = TwirledSweep(rho0, rho1, action)
    return _psi_sandwich(sweep.evaluator(n), sweep.evaluator(1), PsiEvaluator(rho0, rho1),
                         is_support_invariant(rho1, action), n,
                         default_s_grid() if s_grid is None else s_grid)


def _psi_sandwich(ev_n: PsiEvaluator, ev_1: PsiEvaluator, ev_0: PsiEvaluator,
                  invariant: bool, n: int, s_grid) -> CheckReport:
    """:func:`lieb_bound_check` from the evaluators of the twirled n-copy
    pair, the twirled pair and the pair, and whether supp rho1 is invariant."""
    s_grid = np.asarray(s_grid, dtype=float)
    report = CheckReport(f"psi sandwich (n={n})")
    report.note("supp rho1 invariant", value=float(invariant))
    low = s_grid[(s_grid >= 0.0) & (s_grid <= 1.0)]
    curves = (ev.psi(low).tolist() for ev in (ev_n, ev_1, ev_0))
    for s, pn, p1, p0 in zip(low.tolist(), *curves):
        report.check_leq(f"n*psi_unres <= psi_n at s={s:g}", n * p0, pn, 1e-8)
        report.check_leq(f"psi_n <= n*psi_1 at s={s:g}", pn, n * p1, 1e-8)
    if invariant:
        high = s_grid[(s_grid >= 1.0) & (s_grid <= 2.0)]
        curves = (ev.psi(high).tolist() for ev in (ev_n, ev_1, ev_0))
        for s, pn, p1, p0 in zip(high.tolist(), *curves):
            report.check_leq(f"psi_n <= n*psi_unres at s={s:g}", pn, n * p0, 1e-8)
            report.check_leq(f"n*psi_1 <= psi_n at s={s:g}", n * p1, pn, 1e-8)
    return report


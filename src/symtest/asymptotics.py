"""Closed-form psi curves for the built-in two-level scenarios, convergence
diagnostics for the per-copy curves and root solvers for the crossover
points.

The closed forms are the per-copy limits of the twirled n-copy curves, so
the mean (per-copy limit) Chernoff, Hoeffding and relative-entropy rates of
a scenario with a kind are the transforms of :func:`closed_form_curve`, and
:func:`closed_form_relative_entropy` is its exact slope at s = 1."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import (
    NEG_INF,
    PsiCurve,
    PsiEvaluator,
    TwirledSweep,
    default_s_grid,
    relative_entropy,
)
from .errors import CheckError
from .groups import GroupAction, block_structure, pinching_map, tensor_power
from .linalg import DensityOperator, asmatrix, kron_power, spectral_projections
from .reports import CheckReport

Z2_COMMUTING = "Z2Commuting"
TORUS_PURE_VS_MIXED = "TorusPureVsMixed"
TORUS_TWO_PURE = "TorusTwoPure"


def sigma_state(lam: float) -> DensityOperator:
    """Mixture of the two Hadamard-basis projectors with weight lam."""
    off = lam - 0.5
    return DensityOperator([[0.5, off], [off, 0.5]])


def pure_qubit(lam: float) -> DensityOperator:
    root = math.sqrt(lam * (1.0 - lam))
    return DensityOperator([[lam, root], [root, 1.0 - lam]])


def diag_qubit(alpha: float) -> DensityOperator:
    return DensityOperator([[alpha, 0.0], [0.0, 1.0 - alpha]])


def z2_action() -> GroupAction:
    return GroupAction.finite([np.eye(2), np.diag([1.0, -1.0])])


def torus_action() -> GroupAction:
    return GroupAction.torus([0, 1])


@dataclass(frozen=True)
class Scenario:
    """A named discrimination problem: two states, an action, and a copy budget."""

    name: str
    rho0: DensityOperator
    rho1: DensityOperator
    action: GroupAction
    n_max: int = 8
    params: dict = field(default_factory=dict)
    kind: str | None = None

    def __post_init__(self):
        if self.rho0.dim != self.rho1.dim or self.rho0.dim != self.action.dim:
            raise ValueError("scenario states and action must share a dimension")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")


def make_scenario(kind: str, n_max: int = 8, **params) -> Scenario:
    if kind == Z2_COMMUTING:
        lam, mu = params["lam"], params["mu"]
        return Scenario(
            name=f"z2-commuting(lam={lam:g},mu={mu:g})",
            rho0=sigma_state(lam), rho1=sigma_state(mu),
            action=z2_action(), n_max=n_max, params={"lam": lam, "mu": mu}, kind=kind,
        )
    if kind == TORUS_PURE_VS_MIXED:
        alpha = params["alpha"]
        return Scenario(
            name=f"torus-pure-vs-mixed(alpha={alpha:g})",
            rho0=pure_qubit(0.5), rho1=diag_qubit(alpha),
            action=torus_action(), n_max=n_max, params={"alpha": alpha}, kind=kind,
        )
    if kind == TORUS_TWO_PURE:
        lam, mu = params["lam"], params["mu"]
        return Scenario(
            name=f"torus-two-pure(lam={lam:g},mu={mu:g})",
            rho0=pure_qubit(lam), rho1=pure_qubit(mu),
            action=torus_action(), n_max=n_max, params={"lam": lam, "mu": mu}, kind=kind,
        )
    raise ValueError(f"unknown scenario kind {kind!r}")


def _require_interior(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name}={value!r} must lie strictly inside (0, 1)")


def _logsumexp(terms) -> float:
    terms = [t for t in terms if t != NEG_INF]
    if not terms:
        return NEG_INF
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _xlog(c: float) -> float:
    return math.log(c) if c > 0.0 else NEG_INF


def _two_pure_psi(lam: float, mu: float, s: float) -> tuple[float, float]:
    x0, x1, y0, y1 = _xlog(lam), _xlog(1.0 - lam), _xlog(mu), _xlog(1.0 - mu)
    t1, t2 = s * x0 + (1.0 - s) * y0, s * x1 + (1.0 - s) * y1
    value = _logsumexp([t1, t2])
    return value, math.exp(t1 - value) * (x0 - y0) + math.exp(t2 - value) * (x1 - y1)


def _pure_vs_mixed_psi(alpha: float, s: float) -> tuple[float, float]:
    if s <= 0.0:
        top = math.log(max(alpha, 1.0 - alpha))
        return (1.0 - s) * top - s * math.log(2.0), -top - math.log(2.0)
    # s * logsumexp(e*la, e*lb) with e = (1-s)/s, written so that no factor
    # overflows as s -> 0: (1-s)*top + s*log1p(exp(-e*|la - lb|))
    la, lb = math.log(alpha), math.log(1.0 - alpha)
    top, gap = max(la, lb), abs(la - lb)
    e = math.exp(-(1.0 - s) * gap / s)
    tail = math.log1p(e)
    value = (1.0 - s) * top + s * tail - s * math.log(2.0)
    # d/ds of s*tail is tail + q*gap/s, q = e/(1 + e) the softmax weight of
    # the smaller log; q*gap is formed before the division, so q = 0 stays 0
    return value, -top + tail + e / (1.0 + e) * gap / s - math.log(2.0)


def _z2_psi_normalized(a: float, b: float, s: float) -> tuple[float, float]:
    # requires 0 <= a < b <= 1/2
    if a <= 0.0:
        return (1.0 - s) * math.log(1.0 - b), -math.log(1.0 - b)
    s_star = solve_branch_crossover(a, b)
    if s >= s_star:
        return _two_pure_psi(a, b, s)
    value = (s / 2.0) * math.log(a * (1.0 - a)) + ((1.0 - s) / 2.0) * math.log(b * (1.0 - b)) + math.log(2.0)
    return value, 0.5 * math.log(a * (1.0 - a)) - 0.5 * math.log(b * (1.0 - b))


def _closed_form(kind: str, params: dict, s: float) -> tuple[float, float]:
    """(value, exact slope) at s of the limit of (1/n) psi_n for the built-in
    scenario kinds."""
    if kind == TORUS_TWO_PURE:
        lam, mu = params["lam"], params["mu"]
        _require_interior(lam, "lam")
        _require_interior(mu, "mu")
        return _two_pure_psi(lam, mu, s)
    if kind == TORUS_PURE_VS_MIXED:
        alpha = params["alpha"]
        _require_interior(alpha, "alpha")
        return _pure_vs_mixed_psi(alpha, s)
    if kind == Z2_COMMUTING:
        lam, mu = params["lam"], params["mu"]
        if not (0.0 <= lam <= 1.0 and 0.0 <= mu <= 1.0):
            raise ValueError("lam and mu must lie in [0, 1]")
        # the twirled problem only sees {lam, 1-lam} and {mu, 1-mu}
        a = min(lam, 1.0 - lam)
        b = min(mu, 1.0 - mu)
        if abs(a - b) <= 1e-15:
            return 0.0, 0.0  # identical twirled states
        if a < b:
            return _z2_psi_normalized(a, b, s)
        value, slope = _z2_psi_normalized(b, a, 1.0 - s)
        return value, -slope
    raise ValueError(f"no closed form for scenario kind {kind!r}")


def closed_form_psi(kind: str, params: dict, s: float) -> float:
    """Exact limit of (1/n) psi_n(s) for the built-in scenario kinds."""
    return _closed_form(kind, params, s)[0]


def closed_form_curve(kind: str, params: dict, grid=None) -> PsiCurve:
    """The closed form as a PsiCurve; an array of s is mapped point by point,
    as Python floats, through the scalar formulas."""

    def fn(s):
        if isinstance(s, float):
            return closed_form_psi(kind, params, s)
        values = [closed_form_psi(kind, params, x) for x in np.ravel(s).tolist()]
        return np.reshape(values, np.shape(s))

    return PsiCurve(default_s_grid() if grid is None else grid, fn,
                    lambda s: _closed_form(kind, params, s))


def closed_form_relative_entropy(kind: str, params: dict) -> float:
    """Mean relative entropy of a built-in kind: the slope at s = 1 of its
    closed-form curve."""
    return _closed_form(kind, params, 1.0)[1]


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    s: float
    value: float  # (1/n) psi_n(s)
    closed_form: float
    gap: float
    monotone: bool


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]

    def __post_init__(self):
        for row in self.rows:
            if 0.0 <= row.s <= 1.0 and not (row.gap >= -1e-8 or row.gap == NEG_INF):
                raise CheckError(
                    f"normalized curve dipped below its limit at n={row.n}, s={row.s:g} "
                    f"(gap {row.gap:.3e})"
                )


def convergence_table(scenario: Scenario, s_grid) -> ConvergenceTable:
    """Per-(n, s) gaps of (1/n) psi_n against the scenario's closed form."""
    if scenario.kind is None:
        raise ValueError("convergence_table needs a scenario with a closed-form kind")
    s_grid = np.asarray(s_grid, dtype=float)
    n_max = scenario.n_max
    values = np.empty((n_max, s_grid.size))
    sweep = TwirledSweep(scenario.rho0, scenario.rho1, scenario.action)
    for n in range(1, n_max + 1):
        values[n - 1] = sweep.evaluator(n).psi(s_grid) / n
    closed = np.array([closed_form_psi(scenario.kind, scenario.params, float(s)) for s in s_grid])
    monotone = [bool(np.all(np.diff(values[:, j]) <= 1e-10)) for j in range(s_grid.size)]
    rows = []
    for n in range(1, n_max + 1):
        for j, s in enumerate(s_grid):
            v, c = float(values[n - 1, j]), float(closed[j])
            gap = v - c if not (v == NEG_INF and c == NEG_INF) else 0.0
            rows.append(ConvergenceRow(n, float(s), v, c, gap, monotone[j]))
    return ConvergenceTable(tuple(rows))


def solve_branch_crossover(lam: float, mu: float) -> float:
    """The nonpositive s where the dominant-pairing and half-sum branches of
    the commuting-pair curve meet: the root of the linear balance equation
    s * log((1-lam) mu / (lam (1-mu))) = log(mu / (1-mu)).

    Requires 0 < lam < mu <= 1/2.
    """
    if not 0.0 < lam < mu <= 0.5:
        raise ValueError("need 0 < lam < mu <= 1/2")
    return math.log(mu / (1.0 - mu)) / math.log((1.0 - lam) * mu / (lam * (1.0 - mu)))


def solve_flat_chernoff_alpha() -> float:
    """The mixing weight at which the twirled pure-vs-mixed curve has a flat
    minimum at s = 1/2, so the restricted Chernoff distance is exactly half
    the unrestricted one.  Root of 2*H(alpha) = log 2 on (0, 1/2)."""

    def f(alpha: float) -> float:
        return -2.0 * (alpha * math.log(alpha) + (1.0 - alpha) * math.log(1.0 - alpha)) - math.log(2.0)

    lo, hi = 1e-12, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2.0
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2.0
    if not 0.10 <= root <= 0.12:
        raise ArithmeticError(f"flat-minimum weight {root!r} outside the expected window")
    return root


def stein_gap_check(scenario: Scenario, n: int) -> CheckReport:
    """Finite-n relative-entropy accounting for an invariant alternative.

    The pinched classical value sits below n*S(rho0||rho1) by monotonicity
    and above it minus d*log(n+1) + 2*log(sum_i d_i), so the twirled problem
    loses nothing per copy in the Stein regime.
    """
    sweep = TwirledSweep(scenario.rho0, scenario.rho1, scenario.action)
    return _stein_gap(scenario, n, sweep.evaluator(n))


def _stein_gap(scenario: Scenario, n: int, twirled: PsiEvaluator) -> CheckReport:
    """:func:`stein_gap_check` from the evaluator of the twirled n-copy pair."""
    report = CheckReport(f"stein gap (n={n})")
    s_single = relative_entropy(scenario.rho0, scenario.rho1)
    if s_single == math.inf:
        report.note("single-copy relative entropy infinite; nothing to check")
        return report
    report.check_leq("S(twirled)/n <= S(rho0||rho1)",
                     twirled.relative_entropy() / n, s_single, 1e-8)
    rho1_pow = DensityOperator(kron_power(asmatrix(scenario.rho1), n))
    projections = [p for _, p in spectral_projections(rho1_pow)]
    powered = tensor_power(scenario.action, n)
    pinched = pinching_map(kron_power(asmatrix(scenario.rho0), n), powered, projections)
    s_pinched = relative_entropy(DensityOperator(pinched), rho1_pow)
    allowance = scenario.rho0.dim * math.log(n + 1.0) + 2.0 * math.log(
        sum(d for _, d in block_structure(scenario.action, n))
    )
    report.check_leq("pinched relative entropy <= n*S", s_pinched, n * s_single, 1e-8)
    report.check_leq("n*S - pinched <= rank allowance",
                     n * s_single - s_pinched, allowance, 1e-8)
    return report

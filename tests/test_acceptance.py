"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single PASS/FAIL line (run with `pytest -s` to see them).  The one
criterion that is analytically unattainable as literally stated is kept as a
strict expected failure next to the exact finite-size identity that replaces
it; see the notes shipped alongside the repository for the derivation.
"""

import math
import time

import numpy as np
import pytest

from symtest.asymptotics import (
    closed_form_curve,
    closed_form_psi,
    diag_qubit,
    half_binomial_sum,
    half_binomial_sum_limit,
    binomial_power_sum,
    binomial_power_sum_limit,
    make_scenario,
    pure_qubit,
    solve_flat_chernoff_alpha,
    z2_action,
)
from symtest.discrimination import average_error, beta_eps, p_min, stein_a_grid, strong_converse_bound
from symtest.divergences import (
    PsiEvaluator,
    chernoff_distance,
    default_s_grid,
    hoeffding_distance,
    phi,
    psi_curve,
)
from symtest.groups import twirled_pair, weyl_twirl
from symtest.oracle import block_scalar_oracle, ptrace_oracle
from symtest.verify import run_verify

LOG2 = math.log(2.0)
S_M_03 = -(math.log(0.3) + math.log(0.7)) / 2.0


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_balanced_mixing_point():
    started = time.monotonic()
    alpha = solve_flat_chernoff_alpha()
    curve = closed_form_curve("TorusPureVsMixed", {"alpha": alpha})
    slope = curve.slope(0.5)
    chernoff = chernoff_distance(curve)
    elapsed = time.monotonic() - started
    ok = (
        abs(alpha - 0.11) <= 0.01
        and abs(slope) <= 1e-8
        and abs(chernoff - LOG2 / 2) <= 1e-8
        and elapsed < 1.0
    )
    report(
        "balanced mixing point",
        ok,
        f"alpha*={alpha:.6f}, slope(1/2)={slope:.2e}, C_M={chernoff:.12f}, {elapsed:.2f}s",
    )
    assert abs(alpha - 0.11) <= 0.01
    assert abs(slope) <= 1e-8
    assert abs(chernoff - LOG2 / 2) <= 1e-8
    assert elapsed < 1.0


def test_pure_vs_mixed_cross_validation():
    started = time.monotonic()
    worst_match = 0.0
    worst_envelope = -math.inf
    for alpha in (0.3, 0.5):
        sc = make_scenario("TorusPureVsMixed", alpha=alpha)
        for n in range(1, 9):
            ev = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n))
            for s in (0.25, 0.5, 0.75, 1.25):
                dense = ev.psi(s)
                scalar = math.log(block_scalar_oracle(sc.kind, sc.params, n, s))
                worst_match = max(worst_match, abs(dense - scalar))
            gap = abs(ev.psi(0.5) / n + LOG2 / 2)
            worst_envelope = max(worst_envelope, gap - math.log(n + 1) / n)
    elapsed = time.monotonic() - started
    ok = worst_match <= 1e-8 and worst_envelope <= 1e-12 and elapsed < 30.0
    report(
        "pure-vs-mixed cross-validation",
        ok,
        f"max |dense - scalar|={worst_match:.2e}, envelope slack={-worst_envelope:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst_match <= 1e-8
    assert worst_envelope <= 1e-12
    assert elapsed < 30.0


def test_two_pure_exactness():
    started = time.monotonic()
    lam, mu = 0.3, 0.6
    sc = make_scenario("TorusTwoPure", lam=lam, mu=mu)
    grid = default_s_grid()
    worst = 0.0
    for n in range(1, 9):
        ev = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n))
        for s in grid:
            got = ev.psi(float(s)) / n
            want = closed_form_psi(sc.kind, sc.params, float(s))
            worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    report("two-pure exactness", ok, f"max deviation={worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_commuting_regimes():
    # opposite-side mixtures: a strict per-copy gap over the unrestricted
    # curve, inside the log2/n envelope of the dominant-pairing formula
    lam, mu = 0.2, 0.7
    sc = make_scenario("Z2Commuting", lam=lam, mu=mu)
    unres = psi_curve(sc.rho0, sc.rho1)
    worst_envelope = -math.inf
    min_gap = math.inf
    for n in range(1, 9):
        ev = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n))
        for s in np.linspace(0.0, 1.0, 9):
            limit = closed_form_psi(sc.kind, sc.params, float(s))
            worst_envelope = max(worst_envelope, abs(ev.psi(float(s)) / n - limit) - LOG2 / n)
        if n >= 2:
            min_gap = min(min_gap, ev.psi(0.5) / n - unres.evaluate(0.5))
    ok_gap = min_gap > 1e-6
    ok_env = worst_envelope <= 1e-12

    # fully extremal mixtures twirl to the same state: a coin flip is optimal
    sc_x = make_scenario("Z2Commuting", lam=0.0, mu=1.0)
    worst_eq = 0.0
    worst_err = 0.0
    for n in range(1, 9):
        pair = twirled_pair(sc_x.rho0, sc_x.rho1, sc_x.action, n)
        worst_eq = max(worst_eq, float(np.max(np.abs(pair[0].mat - pair[1].mat))))
        worst_err = max(worst_err, abs(average_error(*pair) - 0.5))
        assert abs(p_min(*pair) - 1.0) <= 1e-12  # combination form of the same fact
    ok_x = worst_eq <= 1e-12 and worst_err <= 1e-12
    report(
        "commuting regimes",
        ok_gap and ok_env and ok_x,
        f"min strict gap={min_gap:.3e}, envelope slack={-worst_envelope:.2e}, "
        f"extremal state diff={worst_eq:.1e}, symmetric error offset={worst_err:.1e}",
    )
    assert ok_gap and ok_env and ok_x


def test_inequality_suite():
    started = time.monotonic()
    reports = run_verify(n_max=6)
    elapsed = time.monotonic() - started
    violations = [e for r in reports for e in r.violations]
    total = sum(len(r.entries) for r in reports)
    ok = not violations and elapsed < 300.0
    report(
        "inequality suite",
        ok,
        f"{total} checks across {len(reports)} reports, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    for bad in violations[:10]:
        print("   violation:", bad.label, bad.lhs, bad.rhs)
    assert not violations
    assert elapsed < 300.0


def test_beta_eps_consistency():
    sc = make_scenario("TorusPureVsMixed", alpha=0.3)
    curve = closed_form_curve(sc.kind, sc.params)
    a_grid = stein_a_grid(curve.slope(1.0))
    gaps = {0.1: [], 0.3: []}
    ok = True
    for n in (4, 6, 8, 10):
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
        ev = PsiEvaluator(*pair)
        for eps in (0.1, 0.3):
            value = beta_eps(*pair, eps)
            rate = -math.log(value) / n
            gaps[eps].append(abs(rate - S_M_03))
            floor = max(
                strong_converse_bound(ev, eps=eps, a=n * float(a))
                for a in a_grid
            )
            ok = ok and floor <= value + 1e-9
    details = []
    for eps, series in gaps.items():
        ok = ok and series[-1] <= 0.25
        ok = ok and all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        details.append(f"eps={eps:g}: gaps={['%.3f' % g for g in series]}")
    report("beta_eps consistency", ok, "; ".join(details) + f", S_M={S_M_03:.4f}")
    assert ok


def test_limit_and_transform_identities(rng):
    started = time.monotonic()
    # transform identity on the pure-vs-mixed curve
    curve = closed_form_curve("TorusPureVsMixed", {"alpha": 0.3})
    worst_lf = 0.0
    for r in (0.05, 0.2):
        lo, hi = -10.0, 10.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if phi(curve, mid) - mid > r:
                lo = mid
            else:
                hi = mid
        worst_lf = max(worst_lf, abs(phi(curve, lo) - hoeffding_distance(curve, r)))
    # Weyl average against the contraction oracle
    worst_weyl = 0.0
    cases = [(m, d) for m in (1, 2, 3) for d in (1, 2, 3)]
    for k in range(20):
        m, d = cases[k % len(cases)]
        g = rng.standard_normal((m * d, m * d)) + 1j * rng.standard_normal((m * d, m * d))
        h = (g + g.conj().T) / 2
        expected = np.kron(ptrace_oracle(h, m, d) / d, np.eye(d))
        worst_weyl = max(worst_weyl, float(np.max(np.abs(weyl_twirl(h, m, d) - expected))))
    # binomial limit formulas at n = 400
    dev_power = abs(binomial_power_sum(0.3, 0.7, 0.5, 400)
                    - binomial_power_sum_limit(0.3, 0.7, 0.5))
    dev_half = abs(half_binomial_sum(0.8, 0.2, 400) - half_binomial_sum_limit(0.8, 0.2))
    elapsed = time.monotonic() - started
    ok = (worst_lf <= 1e-6 and worst_weyl <= 1e-9
          and dev_power <= 0.02 and dev_half <= 0.02 and elapsed < 10.0)
    report(
        "limit and transform identities",
        ok,
        f"transform defect={worst_lf:.2e}, weyl defect={worst_weyl:.2e}, "
        f"binomial devs=({dev_power:.3f}, {dev_half:.3f}), {elapsed:.1f}s",
    )
    assert worst_lf <= 1e-6
    assert worst_weyl <= 1e-9
    assert dev_power <= 0.02 and dev_half <= 0.02
    assert elapsed < 10.0


def _subgroup_worst_gap(correction: bool) -> float:
    rho0, rho1 = pure_qubit(0.5), diag_qubit(0.3)
    ev0 = PsiEvaluator(rho0, rho1)
    worst = 0.0
    for n in range(1, 7):
        ev = PsiEvaluator(*twirled_pair(rho0, rho1, z2_action(), n))
        for s in default_s_grid():
            s = float(s)
            expected = ev0.psi(s)
            if correction:
                expected += (1.0 - s) * LOG2 / n
            worst = max(worst, abs(ev.psi(s) / n - expected))
    return worst


@pytest.mark.xfail(
    strict=True,
    reason="analytically unattainable as stated: the per-copy curve carries an "
    "exact (1-s)log2/n offset over the unrestricted one at finite n",
)
def test_subgroup_equality_literal():
    worst = _subgroup_worst_gap(correction=False)
    report("subgroup equality (literal)", worst <= 1e-9,
           f"max |psi_n/n - psi_unrestricted|={worst:.3e}")
    assert worst <= 1e-9


def test_subgroup_equality_exact_identity():
    worst = _subgroup_worst_gap(correction=True)
    # the offset vanishes with n, which is the equality content at the limit
    trend = [(1.0 + 0.5) * LOG2 / n for n in range(1, 7)]
    ok = worst <= 1e-9 and all(b < a for a, b in zip(trend, trend[1:]))
    report(
        "subgroup equality experiment",
        ok,
        f"finite-size identity defect={worst:.2e}; offset bound shrinks "
        f"{trend[0]:.3f} -> {trend[-1]:.3f} over n=1..6",
    )
    assert worst <= 1e-9

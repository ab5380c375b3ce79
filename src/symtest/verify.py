"""The full inequality battery behind the `verify` command.

Each function returns a CheckReport; run_verify assembles the complete set
over the built-in scenarios plus seeded random instances.  A report that
reads dense twirled pairs takes them from ``pairs(key, n)``, the twirled
n-copy pair of builtin scenario ``key``, which run_verify builds and
validates once per (key, n) however many reports read it.  A clean run is
the machine-checkable statement that every finite-size inequality this
package implements holds at its stated tolerance.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .asymptotics import (
    Scenario,
    TORUS_PURE_VS_MIXED,
    TORUS_TWO_PURE,
    Z2_COMMUTING,
    closed_form_curve,
    closed_form_psi,
    closed_form_relative_entropy,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    stein_gap_check,
    torus_action,
    z2_action,
)
from .discrimination import (
    fidelity_pmin_check,
    p_min,
    pmin_bounds_check,
    stein_a_grid,
    strong_converse_bound,
    beta_eps,
)
from .divergences import (
    PsiEvaluator,
    chernoff_distance,
    fidelity,
    hoeffding_distance,
    lieb_bound_check,
    phi,
    psi_curve,
    relative_entropy,
    renyi_entropy,
)
from .groups import (
    GroupAction,
    block_structure,
    dim_growth,
    is_support_invariant,
    twirl,
    twirled_pair,
    weyl_twirl,
)
from .linalg import DensityOperator, abs_power_trace, asmatrix, kron_power
from .oracle import DEFAULT_SEED, pmin_random_battery, ptrace_oracle, random_density
from .reports import CheckReport


def builtin_scenarios(n_max: int = 6) -> dict[str, Scenario]:
    return {
        "two-commuting": make_scenario(Z2_COMMUTING, n_max=n_max, lam=0.2, mu=0.7),
        "two-commuting-extremal": make_scenario(Z2_COMMUTING, n_max=n_max, lam=0.0, mu=1.0),
        "pure-vs-mixed": make_scenario(TORUS_PURE_VS_MIXED, n_max=n_max, alpha=0.3),
        "pure-vs-maximally-mixed": make_scenario(TORUS_PURE_VS_MIXED, n_max=n_max, alpha=0.5),
        "two-pure": make_scenario(TORUS_TWO_PURE, n_max=n_max, lam=0.3, mu=0.6),
        "z2-invariant-alt": Scenario(
            name="z2-invariant-alt(lam=0.2,alpha=0.3)",
            rho0=sigma_state(0.2),
            rho1=DensityOperator([[0.3, 0.0], [0.0, 0.7]]),
            action=z2_action(),
            n_max=n_max,
            params={"lam": 0.2, "alpha": 0.3},
        ),
    }


def _random_pairs(count: int, dims=(2, 3)):
    rng = np.random.default_rng(DEFAULT_SEED)
    pairs = []
    for k in range(count):
        dim = dims[k % len(dims)]
        pairs.append((DensityOperator(random_density(dim, rng=rng)),
                      DensityOperator(random_density(dim, rng=rng))))
    return pairs


def psi_sandwich_reports(scenarios, n_max: int) -> list[CheckReport]:
    sparse_grid = np.linspace(-0.5, 2.0, 26)
    out = []
    for key in ("two-commuting", "two-commuting-extremal", "pure-vs-mixed", "two-pure"):
        sc = scenarios[key]
        for n in range(1, n_max + 1):
            rep = lieb_bound_check(sc.rho0, sc.rho1, sc.action, n, s_grid=sparse_grid)
            rep.name = f"{key}: {rep.name}"
            out.append(rep)
    return out


def additivity_report(scenarios) -> CheckReport:
    """psi subadditivity on [0,1] and Renyi superadditivity below order 1."""
    report = CheckReport("psi/Renyi additivity across copy counts")
    pairs = [(1, 1), (1, 2), (2, 2)]
    for key in ("two-commuting", "pure-vs-mixed", "two-pure"):
        sc = scenarios[key]
        evs = {n: PsiEvaluator.twirled(sc.rho0, sc.rho1, sc.action, n) for n in (1, 2, 3, 4)}
        s_grid = np.array([0.25, 0.5, 0.75])
        curves = {n: ev.psi(s_grid).tolist() for n, ev in evs.items()}
        for n, m in pairs:
            for s, lhs, psi_n, psi_m in zip(s_grid.tolist(), curves[n + m], curves[n], curves[m]):
                report.check_leq(
                    f"{key}: psi_{n + m}({s:g}) <= psi_{n}+psi_{m}", lhs, psi_n + psi_m, 1e-8)
            for alpha in (0.0, 0.3, 0.7):
                lhs = evs[n].renyi(alpha) + evs[m].renyi(alpha)
                rhs = evs[n + m].renyi(alpha)
                report.check_leq(
                    f"{key}: S_{alpha:g}({n})+S_{alpha:g}({m}) <= S_{alpha:g}({n + m})",
                    lhs, rhs, 1e-8)
    return report


def renyi_entropy_subadditivity_report(pairs) -> CheckReport:
    """Against a maximally mixed alternative the twirled Renyi entropy is
    subadditive for orders below 1."""
    report = CheckReport("Renyi entropy subadditivity vs maximally mixed alternative")
    states = {n: pairs("pure-vs-maximally-mixed", n)[0] for n in (1, 2, 3, 4)}
    for n, m in ((1, 1), (1, 2), (2, 2)):
        for alpha in (0.3, 0.7):
            lhs = renyi_entropy(states[n + m], alpha)
            rhs = renyi_entropy(states[n], alpha) + renyi_entropy(states[m], alpha)
            report.check_leq(f"H_{alpha:g}({n + m}) <= H_{alpha:g}({n})+H_{alpha:g}({m})",
                             lhs, rhs, 1e-8)
    return report


def pmin_bounds_reports(pairs) -> list[CheckReport]:
    out = []
    for key in ("two-commuting", "two-commuting-extremal", "pure-vs-mixed", "two-pure"):
        for n in (1, 2, 3):
            pair = pairs(key, n)
            for a in (-0.2, 0.0, 0.3):
                rep = pmin_bounds_check(*pair, n * a)
                rep.name = f"{key}: {rep.name} (a={a:g}, n={n})"
                out.append(rep)
    merged = CheckReport("p_min bounds on 50 random qubit pairs")
    for rho0, rho1 in _random_pairs(50, dims=(2,)):
        for a in (-0.2, 0.0, 0.3):
            rep = pmin_bounds_check(rho0, rho1, a)
            merged.entries.extend(rep.entries)
    out.append(merged)
    return out


def fidelity_reports(scenarios, pairs, n_max: int) -> list[CheckReport]:
    out = []
    sandwich = CheckReport("fidelity sandwich on twirled pairs")
    power = CheckReport("fidelity never drops below its product-state power")
    for key, sc in scenarios.items():
        f_single = fidelity(sc.rho0, sc.rho1)
        for n in range(1, min(n_max, 4) + 1):
            pair = pairs(key, n)
            rep = fidelity_pmin_check(*pair)
            for e in rep.entries:
                e.label = f"{key} n={n}: {e.label}"
            sandwich.entries.extend(rep.entries)
            power.check_leq(f"{key}: F(n={n}) >= F^n",
                            f_single**n, fidelity(*pair), 1e-9)
    out.append(sandwich)
    out.append(power)

    lemma = CheckReport("power trace dominates squared fidelity (50 random pairs)")
    s_grid = np.linspace(0.0, 1.0, 5)
    for k, (rho0, rho1) in enumerate(_random_pairs(50)):
        f2 = fidelity(rho0, rho1) ** 2
        traces = PsiEvaluator(rho0, rho1).trace_power(s_grid).tolist()
        for s, trace in zip(s_grid.tolist(), traces):
            lemma.check_leq(f"pair {k}: Tr rho^{s:g} sigma^{1 - s:g} >= F^2",
                            f2, trace, 1e-9)
    out.append(lemma)
    return out


def fidelity_floor_report(scenarios, pairs) -> CheckReport:
    """For an invariant alternative the normalized log-fidelity decreases
    along doubling and never crosses its single-copy floor."""
    report = CheckReport("normalized log-fidelity floor (invariant alternative)")
    for key in ("pure-vs-mixed", "pure-vs-maximally-mixed", "z2-invariant-alt"):
        sc = scenarios[key]
        floor = math.log(fidelity(sc.rho0, sc.rho1))
        values = {}
        for n in (1, 2, 4):
            values[n] = math.log(fidelity(*pairs(key, n))) / n
            report.check_leq(f"{key}: log F(n={n})/n >= log F", floor, values[n], 1e-9)
        report.check_leq(f"{key}: doubling 1->2", values[2], values[1], 1e-9)
        report.check_leq(f"{key}: doubling 2->4", values[4], values[2], 1e-9)
    return report


def trace_norm_power_report(scenarios, pairs, n_max: int) -> CheckReport:
    """Finite-n two-sided bound on Tr|rho0n^s rho1n^(1-s)| for invariant
    alternatives: the single-copy power to the n, with a (sum_i d_i)^2
    prefactor on the upper side."""
    report = CheckReport("absolute power-trace bounds (invariant alternative)")
    for key in ("pure-vs-mixed", "pure-vs-maximally-mixed", "z2-invariant-alt"):
        sc = scenarios[key]
        # these bounds need the alternative itself fixed by the action
        twirled = twirl(asmatrix(sc.rho1), sc.action)
        if float(np.max(np.abs(twirled - asmatrix(sc.rho1)))) > 1e-10:
            continue
        single = {s: abs_power_trace(sc.rho0, sc.rho1, s)
                  for s in (0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)}
        for n in range(1, min(n_max, 4) + 1):
            pair = pairs(key, n)
            prefactor = sum(d for _, d in block_structure(sc.action, n)) ** 2
            for s in (0.5, 0.6, 0.75, 0.9, 1.0):
                lhs = abs_power_trace(*pair, s)
                rhs = prefactor * single[s] ** n
                report.check_leq(f"{key} n={n}: |trace| <= (sum d)^2 single^n at s={s:g}",
                                 lhs, rhs, 1e-9)
            for s in (0.0, 0.1, 0.25, 0.4, 0.5):
                lhs = single[s] ** n
                rhs = abs_power_trace(*pair, s)
                report.check_leq(f"{key} n={n}: single^n <= |trace| at s={s:g}",
                                 lhs, rhs, 1e-9)
    return report


def restricted_pmin_report(scenarios, pairs, n_max: int) -> CheckReport:
    """Twirling both states can only raise the minimal symmetric error, and
    the half-power trace floors it."""
    report = CheckReport("restricted p_min monotone + half-power floor")
    for key, sc in scenarios.items():
        for n in range(1, min(n_max, 4) + 1):
            pair = pairs(key, n)
            raw0 = kron_power(asmatrix(sc.rho0), n)
            raw1 = kron_power(asmatrix(sc.rho1), n)
            restricted = p_min(*pair)
            unrestricted = p_min(DensityOperator(raw0),
                                 DensityOperator(raw1))
            report.check_leq(f"{key} n={n}: p_min(untwirled) <= p_min(twirled)",
                             unrestricted, restricted, 1e-9)
            floor = 2.0 * PsiEvaluator(*pair).psi(0.5) - math.log(2.0)
            report.check_leq(f"{key} n={n}: half-power floor on log p_min",
                             floor, math.log(restricted), 1e-9)
    return report


def chernoff_band_report() -> CheckReport:
    """Restricted mean Chernoff distance sits inside [C/2, C] for the
    pure-vs-mixed family (differentiable curve), hence inside [C/4, C]."""
    report = CheckReport("Chernoff band for the pure-vs-mixed family")
    for alpha in (0.11, 0.3, 0.5, 0.8):
        curve = closed_form_curve(TORUS_PURE_VS_MIXED, {"alpha": alpha})
        sc = make_scenario(TORUS_PURE_VS_MIXED, alpha=alpha)
        unres = chernoff_distance(psi_curve(sc.rho0, sc.rho1))
        restricted = chernoff_distance(curve)
        report.check_leq(f"alpha={alpha:g}: C/4 <= C_M", unres / 4.0, restricted, 1e-8)
        report.check_leq(f"alpha={alpha:g}: C/2 <= C_M", unres / 2.0, restricted, 1e-8)
        report.check_leq(f"alpha={alpha:g}: C_M <= C", restricted, unres, 1e-8)
    return report


def np_optimality_report(pairs) -> CheckReport:
    """No random test beats the threshold test's weighted error."""
    report = CheckReport("threshold-test optimality vs random batteries")
    for key in ("pure-vs-mixed", "two-pure"):
        pair = pairs(key, 2)
        for a in (-0.2, 0.0, 0.3):
            battery_min, reference = pmin_random_battery(*pair, 2 * a, count=100)
            report.check_leq(f"{key} a={a:g}: p_min <= battery best",
                             reference, battery_min, 1e-9)
            report.check_close(f"{key} a={a:g}: closed form matches pipeline",
                               p_min(*pair, 2 * a), reference, 1e-10)
    return report


def stein_reports(scenarios, n_max: int) -> list[CheckReport]:
    sc = scenarios["pure-vs-mixed"]
    return [stein_gap_check(sc, n) for n in range(1, min(n_max, 5) + 1)]


def lf_identity_report() -> CheckReport:
    """The two routes to the constrained-rate transform agree: chasing the
    transform along its own level set equals the direct sup of the Hoeffding
    objective."""
    report = CheckReport("Legendre-Fenchel level-set identity")
    curve = closed_form_curve(TORUS_PURE_VS_MIXED, {"alpha": 0.3})
    for r in (0.05, 0.2):
        lo, hi = -10.0, 10.0
        mid = (lo + hi) / 2.0
        while lo < mid < hi:  # until the midpoint rounds onto an end
            if phi(curve, mid) - mid > r:
                lo = mid
            else:
                hi = mid
            mid = (lo + hi) / 2.0
        lhs = phi(curve, lo)
        rhs = hoeffding_distance(curve, r)
        report.check_close(f"r={r:g}: sup phi over level set = Hoeffding sup", lhs, rhs, 1e-6)
    return report


def weyl_report() -> CheckReport:
    """The Weyl average equals embed(partial trace / d) on random inputs."""
    report = CheckReport("Weyl average realizes the partial trace")
    rng = np.random.default_rng(DEFAULT_SEED)
    cases = [(m, d) for m in (1, 2, 3) for d in (1, 2, 3)]
    k = 0
    while k < 20:
        m, d = cases[k % len(cases)]
        g = rng.standard_normal((m * d, m * d)) + 1j * rng.standard_normal((m * d, m * d))
        h = (g + g.conj().T) / 2.0
        averaged = weyl_twirl(h, m, d)
        expected = np.kron(ptrace_oracle(h, m, d) / d, np.eye(d))
        dev = float(np.max(np.abs(averaged - expected)))
        report.check_leq(f"instance {k} (m={m}, d={d})", dev, 0.0, 1e-9)
        k += 1
    return report


def beta_eps_converse_report(scenarios, pairs) -> CheckReport:
    """The strong-converse floor never exceeds the exact constrained error."""
    report = CheckReport("beta_eps versus strong-converse floor")
    sc = scenarios["pure-vs-mixed"]
    curve = closed_form_curve(sc.kind, sc.params)
    for n in (4, 6):
        pair = pairs("pure-vs-mixed", n)
        ev = PsiEvaluator(*pair)
        value = beta_eps(*pair, 0.1)
        grid = stein_a_grid(curve.slope(1.0))
        for a, bound in zip(grid, strong_converse_bound(ev, eps=0.1, a=n * grid).tolist()):
            report.check_leq(f"n={n}, a={a:.3f}: floor <= beta_eps", bound, value, 1e-9)
    return report


def data_processing_report() -> CheckReport:
    """Twirling raises the power trace on [0,1]; with a faithful alternative
    it lowers it on [1,2]."""
    report = CheckReport("data processing under the twirl")
    rng = np.random.default_rng(DEFAULT_SEED)
    actions = {
        2: GroupAction.finite([np.eye(2), np.diag([1.0, -1.0])]),
        3: GroupAction.torus([0, 1, 2]),
    }
    s_grid = np.array([0.0, 0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.8, 2.0])
    for k in range(12):
        dim = 2 if k % 2 == 0 else 3
        action = actions[dim]
        rho0 = random_density(dim, rng=rng)
        rho1 = random_density(dim, rng=rng)  # full rank a.s., so faithful
        t0, t1 = twirl(rho0, action), twirl(rho1, action)
        raw = PsiEvaluator(rho0, rho1).psi(s_grid).tolist()
        twirled = PsiEvaluator(t0, t1).psi(s_grid).tolist()
        for s, psi_raw, psi_tw in zip(s_grid.tolist(), raw, twirled):
            if s <= 1.0:
                report.check_leq(f"pair {k}: psi_tw >= psi at s={s:g}", psi_raw, psi_tw, 1e-8)
            else:
                report.check_leq(f"pair {k}: psi_tw <= psi at s={s:g}", psi_tw, psi_raw, 1e-8)
    return report


def conjugation_chain_report() -> CheckReport:
    """Replacing the alternative by any of its group conjugates can only
    help the unrestricted problem, and the restricted mean distance matches
    the best conjugate for the commuting family."""
    report = CheckReport("Chernoff chain through group conjugates")
    for lam, mu in ((0.2, 0.7), (0.3, 0.4)):
        sc = make_scenario(Z2_COMMUTING, lam=lam, mu=mu)
        restricted = chernoff_distance(closed_form_curve(sc.kind, sc.params))
        per_conjugate = []
        for u in sc.action.unitaries:
            conj = DensityOperator(u.conj().T @ asmatrix(sc.rho1) @ u)
            per_conjugate.append(chernoff_distance(psi_curve(sc.rho0, conj)))
        best = min(per_conjugate)
        plain = chernoff_distance(psi_curve(sc.rho0, sc.rho1))
        report.check_leq(f"(lam,mu)=({lam:g},{mu:g}): C_M <= best conjugate",
                         restricted, best, 1e-8)
        report.check_leq(f"(lam,mu)=({lam:g},{mu:g}): best conjugate <= C",
                         best, plain, 1e-8)
        report.check_close(f"(lam,mu)=({lam:g},{mu:g}): C_M attains the best conjugate",
                           restricted, best, 1e-8)
        if (0.5 - lam) * (0.5 - mu) < 0:
            report.check_leq(f"(lam,mu)=({lam:g},{mu:g}): strictly restricted",
                             restricted, plain - 1e-6)
    return report


def closed_form_bracket_report(scenarios, n_max: int) -> CheckReport:
    """The normalized per-copy curve brackets its closed-form limit: from
    above on [0, 1], from below on [1, 2] when the alternative's support is
    invariant."""
    report = CheckReport("normalized curves bracket their closed forms")
    for key in ("two-commuting", "pure-vs-mixed", "two-pure"):
        sc = scenarios[key]
        mirror = is_support_invariant(sc.rho1, sc.action)
        low, high = np.linspace(0.0, 1.0, 5), np.array([1.0, 1.25, 1.5, 2.0])
        for n in range(1, min(n_max, 5) + 1):
            ev = PsiEvaluator.twirled(sc.rho0, sc.rho1, sc.action, n)
            for s, value in zip(low.tolist(), (ev.psi(low) / n).tolist()):
                limit = closed_form_psi(sc.kind, sc.params, s)
                report.check_leq(f"{key} n={n}: limit <= curve at s={s:g}", limit, value, 1e-8)
            if mirror:
                for s, value in zip(high.tolist(), (ev.psi(high) / n).tolist()):
                    limit = closed_form_psi(sc.kind, sc.params, s)
                    report.check_leq(f"{key} n={n}: curve <= limit at s={s:g}", value, limit, 1e-8)
    return report


def beta_eps_shape_report(pairs) -> CheckReport:
    """The constrained type-II error is nonincreasing and continuous in eps."""
    report = CheckReport("beta_eps monotone and right-continuous in eps")
    for key in ("pure-vs-mixed", "two-pure"):
        pair = pairs(key, 3)
        eps_grid = np.linspace(0.05, 0.9, 10)
        values = [beta_eps(*pair, float(e)) for e in eps_grid]
        for (e1, v1), (e2, v2) in zip(zip(eps_grid, values), zip(eps_grid[1:], values[1:])):
            report.check_leq(f"{key}: beta({e2:.2f}) <= beta({e1:.2f})", v2, v1, 1e-10)
        for e, v in zip(eps_grid[::3], values[::3]):
            nudged = beta_eps(*pair, float(e) + 1e-9)
            report.check_close(f"{key}: right-continuity at eps={e:.2f}", nudged, v, 1e-6)
    return report


def dim_growth_report(n_max: int = 6) -> CheckReport:
    """The per-copy log of the summed irrep dimensions decays toward zero."""
    report = CheckReport("commutant dimension growth decays")
    for name, action, top in (("torus", torus_action(), 9), ("sign-flip", z2_action(), n_max)):
        values = dim_growth(action, top)
        for n, (previous, current) in enumerate(zip(values, values[1:]), start=2):
            report.check_leq(f"{name}: growth rate falls at n={n}", current, previous, 1e-12)
        report.check_leq(f"{name}: rate small by n={top}", values[-1],
                         math.log(top + 1.0) / top, 1e-12)
    return report


def equality_experiment_report() -> CheckReport:
    """Informational: with a two-element subgroup of the torus the normalized
    curve matches the unrestricted one up to an explicit (1-s) log2 / n offset
    that vanishes with n.  Reported, never asserted as a theorem."""
    report = CheckReport("finite-subgroup equality experiment")
    rho0 = pure_qubit(0.5)
    rho1 = diag_qubit(0.3)
    action = z2_action()
    ev0 = PsiEvaluator(rho0, rho1)
    s_grid = np.linspace(-0.5, 2.0, 26)
    psi0 = ev0.psi(s_grid)
    for n in range(1, 6):
        ev = PsiEvaluator.twirled(rho0, rho1, action, n)
        expected = n * psi0 + (1.0 - s_grid) * math.log(2.0)
        worst = float(np.max(np.abs(ev.psi(s_grid) - expected)))
        report.check_leq(f"n={n}: exact offset identity", worst, 0.0, 1e-9)
        gap_at_0 = ev.psi(0.0) / n - ev0.psi(0.0)
        report.note(f"n={n}: gap to unrestricted at s=0", value=gap_at_0)
    return report


def mean_quantity_report(scenarios) -> CheckReport:
    """Spot values of the mean quantities for the closed-form scenarios."""
    report = CheckReport("mean quantities of the built-in scenarios")
    sc62 = scenarios["pure-vs-mixed"]
    alpha = sc62.params["alpha"]
    expected = -(math.log(alpha) + math.log(1.0 - alpha)) / 2.0
    report.check_close("pure-vs-mixed: mean relative entropy",
                       closed_form_relative_entropy(sc62.kind, sc62.params), expected, 1e-6)
    sc65 = scenarios["two-pure"]
    lam, mu = (sc65.params[k] for k in ("lam", "mu"))
    expected65 = lam * math.log(lam / mu) + (1.0 - lam) * math.log((1.0 - lam) / (1.0 - mu))
    report.check_close("two-pure: mean relative entropy",
                       closed_form_relative_entropy(sc65.kind, sc65.params), expected65, 1e-6)
    report.check_close("two-pure: unrestricted relative entropy infinite",
                       relative_entropy(sc65.rho0, sc65.rho1), math.inf, 0.0)
    sc61 = scenarios["two-commuting"]
    conj_c = []
    for u in sc61.action.unitaries:
        conj = DensityOperator(u.conj().T @ asmatrix(sc61.rho1) @ u)
        conj_c.append(chernoff_distance(psi_curve(sc61.rho0, conj)))
    report.check_close("two-commuting: C_M is the best conjugate Chernoff",
                       chernoff_distance(closed_form_curve(sc61.kind, sc61.params)),
                       min(conj_c), 1e-8)
    return report


def run_verify(n_max: int = 6) -> list[CheckReport]:
    scenarios = builtin_scenarios(n_max)

    @functools.cache  # the table lives as long as this run
    def pairs(key: str, n: int) -> tuple[DensityOperator, DensityOperator]:
        sc = scenarios[key]
        return twirled_pair(sc.rho0, sc.rho1, sc.action, n)

    reports: list[CheckReport] = []
    reports.extend(psi_sandwich_reports(scenarios, n_max))
    reports.append(additivity_report(scenarios))
    reports.append(renyi_entropy_subadditivity_report(pairs))
    reports.extend(pmin_bounds_reports(pairs))
    reports.extend(fidelity_reports(scenarios, pairs, n_max))
    reports.append(fidelity_floor_report(scenarios, pairs))
    reports.append(trace_norm_power_report(scenarios, pairs, n_max))
    reports.append(restricted_pmin_report(scenarios, pairs, n_max))
    reports.append(chernoff_band_report())
    reports.append(np_optimality_report(pairs))
    reports.extend(stein_reports(scenarios, n_max))
    reports.append(lf_identity_report())
    reports.append(weyl_report())
    reports.append(beta_eps_converse_report(scenarios, pairs))
    reports.append(data_processing_report())
    reports.append(conjugation_chain_report())
    reports.append(mean_quantity_report(scenarios))
    reports.append(closed_form_bracket_report(scenarios, n_max))
    reports.append(beta_eps_shape_report(pairs))
    reports.append(dim_growth_report(n_max))
    reports.append(equality_experiment_report())
    return reports


def verify_ok(reports) -> bool:
    return all(r.ok for r in reports)

"""The one 1-D refinement, divergences._bracket_min: its certificate on
known convex functions, its optima against golden section (the refinement
it replaced, kept in tests/helpers.py), the gap of every optimum verify
computes, its evaluation counts, and the float calls each refinement
makes."""

import math

import numpy as np
import pytest

import symtest.discrimination as discrimination
import symtest.divergences as divergences
from symtest.asymptotics import (
    closed_form_curve,
    diag_qubit,
    make_scenario,
    pure_qubit,
    torus_action,
)
from symtest.discrimination import TwirledPair, beta_eps, stein_a_grid, strong_converse_bound
from symtest.divergences import (
    CERTIFIED_GAP,
    PsiCurve,
    PsiEvaluator,
    TwirledSweep,
    _bracket_min,
    default_s_grid,
    hoeffding_distance,
    phi,
    psi_curve,
)
from symtest.groups import GroupAction, twirled_pair
from symtest.linalg import DensityOperator
from symtest.verify import run_verify

from helpers import golden_min, golden_refinement, seeded_pairs

CLOSED_FORMS = [("TorusPureVsMixed", {"alpha": 0.3}),
                ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
                ("TorusTwoPure", {"lam": 0.3, "mu": 0.6})]
SIGN_FLIP = GroupAction.finite([np.eye(2), np.diag([1.0, -1.0])])
PAIR_A = seeded_pairs(0)["A"]


def logged(fn, log):
    """fn, appending each (x, value, slope) it gives to log."""
    def f(x):
        value, slope = fn(x)
        log.append((x, value, slope))
        return value, slope
    return f


def curves():
    return ([closed_form_curve(kind, params) for kind, params in CLOSED_FORMS]
            + [psi_curve(*PAIR_A)])


def evaluators():
    """n = 4 evaluators of the closed-form families, and pair A under the
    sign flip at n = 6, as beta-eps reads it."""
    out = []
    for kind, params in CLOSED_FORMS:
        sc = make_scenario(kind, **params)
        out.append((4, TwirledSweep(sc.rho0, sc.rho1, sc.action).evaluator(4)))
    out.append((6, TwirledPair(TwirledSweep(*PAIR_A, SIGN_FLIP).pair(6)).evaluator))
    return out


@pytest.fixture
def golden(monkeypatch):
    """Calls a function with every refinement done by golden section."""
    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(divergences, "_bracket_min", golden_refinement)
            m.setattr(discrimination, "_bracket_min", golden_refinement)
            return fn(*args)
    return run


class TestKnownFunctions:
    def test_a_quadratic_takes_one_secant_step(self):
        log = []
        value, gap = _bracket_min(logged(lambda x: ((x - 0.3) ** 2, 2.0 * (x - 0.3)), log),
                                  0.0, 1.0)
        assert len(log) == 3
        assert value == pytest.approx(0.0, abs=1e-30)
        assert 0.0 <= gap <= CERTIFIED_GAP

    def test_a_kink_is_the_tangents_meeting_point(self):
        # straight pieces of slopes -1 and 2 meet at x = 0.2, value -0.2
        def kinked(x):
            return max(-x, 2.0 * (x - 0.3)), (2.0 if 2.0 * (x - 0.3) >= -x else -1.0)

        log = []
        value, gap = _bracket_min(logged(kinked, log), 0.0, 1.0)
        assert len(log) == 3
        assert value == pytest.approx(-0.2, abs=1e-15)
        assert gap <= CERTIFIED_GAP

    def test_an_end_slope_of_the_wrong_sign_is_the_minimum(self):
        log = []
        assert _bracket_min(logged(lambda x: ((x + 1.0) ** 2, 2.0 * (x + 1.0)), log),
                            0.0, 1.0) == (1.0, 0.0)
        assert len(log) == 1
        log.clear()
        assert _bracket_min(logged(lambda x: ((x - 2.0) ** 2, 2.0 * (x - 2.0)), log),
                            0.0, 1.0) == (1.0, 0.0)
        assert len(log) == 2

    @pytest.mark.parametrize("p,a,b", [(0.3, -2.0, 1.5), (0.9, -0.4, 3.0), (0.05, -5.0, 0.2)])
    def test_the_gap_bounds_the_distance_to_the_minimum(self, p, a, b):
        # a two-atom psi, log(p e^{a x} + (1 - p) e^{b x}), tilted to a
        # minimum inside [-1, 1]; golden section's value is above the true
        # minimum, which is at least best - gap
        def fn(x):
            ea, eb = p * math.exp(a * x), (1.0 - p) * math.exp(b * x)
            return math.log(ea + eb), (a * ea + b * eb) / (ea + eb)

        value, gap = _bracket_min(fn, -1.0, 1.0)
        reference = golden_min(lambda x: fn(x)[0], -1.0, 1.0)[1]
        assert value - gap <= reference + 1e-15
        assert value <= reference + gap + 1e-15
        assert gap <= CERTIFIED_GAP * max(1.0, abs(value))


class TestAgainstGoldenSection:
    @pytest.mark.parametrize("curve", curves(), ids=[k for k, _ in CLOSED_FORMS] + ["pair-a"])
    def test_phi(self, curve, golden):
        for a in np.linspace(-1.0, 1.0, 21).tolist():
            assert phi(curve, a) == pytest.approx(golden(phi, curve, a), rel=0, abs=1e-12)

    @pytest.mark.parametrize("curve", curves(), ids=[k for k, _ in CLOSED_FORMS] + ["pair-a"])
    def test_hoeffding_distance(self, curve, golden):
        for r in np.linspace(0.0, 0.5, 11).tolist():
            new, old = hoeffding_distance(curve, r), golden(hoeffding_distance, curve, r)
            assert new == old or new == pytest.approx(old, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n,ev", evaluators(), ids=[k for k, _ in CLOSED_FORMS] + ["pair-a"])
    def test_strong_converse_bound(self, n, ev, golden):
        rates = n * stein_a_grid(ev.slope(1.0) / n)
        np.testing.assert_allclose(strong_converse_bound(ev, 0.1, rates),
                                   golden(strong_converse_bound, ev, 0.1, rates),
                                   rtol=0, atol=1e-12)

    def test_beta_eps_is_never_below_the_golden_section_dual(self, golden):
        # both keep the best dual value seen, a lower bound on beta_eps; the
        # certified maximum is at least golden section's, up to rounding
        sweep = TwirledSweep(*PAIR_A, SIGN_FLIP)
        for n in (2, 4, 6):
            pair = TwirledPair(sweep.pair(n))
            assert pair.atoms is None
            for eps in (0.05, 0.1, 0.3):
                new, old = pair.beta_eps(eps), golden(pair.beta_eps, eps)
                assert old - 1e-14 <= new <= old + 1e-11


def test_every_verify_optimum_is_certified(monkeypatch):
    gaps, duals = [], []

    def recorded(fn, lo, hi):
        value, gap = _bracket_min(fn, lo, hi)
        gaps.append((value, gap))
        return value, gap

    def counted(pair, eps, _real=TwirledPair.beta_eps):
        before = len(gaps)
        value = _real(pair, eps)
        duals.append(len(gaps) - before)
        return value

    monkeypatch.setattr(divergences, "_bracket_min", recorded)
    monkeypatch.setattr(discrimination, "_bracket_min", recorded)
    monkeypatch.setattr(TwirledPair, "beta_eps", counted)
    assert all(report.ok for report in run_verify(n_max=3))
    assert len(gaps) > 300
    # every beta_eps, commuting pairs included, is one certified dual
    assert duals and all(count == 1 for count in duals)
    # a gap below 0 is rounding in the tangents' meeting value; a nan gap
    # fails both comparisons
    assert all(-1e-15 * max(1.0, abs(value)) <= gap <= 1e-12 for value, gap in gaps)


def test_strong_converse_refinement_takes_few_evaluations(monkeypatch):
    # the floor of beta-eps on pair A under the sign flip, n = 1..6; golden
    # section took about 46 evaluations for each
    logs = []

    def recorded(fn, lo, hi):
        logs.append([])
        return _bracket_min(logged(fn, logs[-1]), lo, hi)

    monkeypatch.setattr(divergences, "_bracket_min", recorded)
    sweep = TwirledSweep(*PAIR_A, SIGN_FLIP)
    for n in range(1, 7):
        ev = TwirledPair(sweep.pair(n)).evaluator
        strong_converse_bound(ev, 0.1, n * stein_a_grid(ev.slope(1.0) / n))
    # the refinements whose minimum lies strictly inside their bracket
    inside = [len(log) for log in logs if len(log) >= 2 and log[0][2] < 0.0 < log[1][2]]
    assert len(inside) >= 10
    assert sum(inside) / len(inside) <= 8.0


class TestFloatCalls:
    """Each refinement step is one scalar call: a curve's grid is sampled
    once by its constructor, and the dual runs one eigh of one matrix per
    part and step.  The strong-converse window is sampled once as an array
    (tests/test_discrimination.py)."""

    def test_phi_and_hoeffding(self, monkeypatch):
        ev = TwirledPair(TwirledSweep(*PAIR_A, SIGN_FLIP).pair(6)).evaluator
        calls = []
        for name in ("psi", "slope", "psi_slope"):
            real = getattr(ev, name)
            monkeypatch.setattr(ev, name, lambda s, _real=real, _name=name:
                                calls.append((_name, np.shape(s), type(s))) or _real(s))
        curve = PsiCurve(default_s_grid(), ev.psi, ev.psi_slope)
        assert [c[:2] for c in calls] == [("psi", (201,))]
        calls.clear()
        for a in (-0.5, 0.0, 0.5):
            phi(curve, 6 * a)
        steps = len(calls)
        hoeffding_distance(curve, 0.6)
        assert calls and all(c[2] is float for c in calls)
        # each refinement step is one pass for its value and its slope; psi
        # alone only gives the window ends off the grid and Hoeffding's psi(1)
        assert steps and all(c[0] == "psi_slope" for c in calls[:steps])
        assert [c[0] for c in calls[steps:]].count("psi") == 2
        assert "slope" not in [c[0] for c in calls]

    def test_dual(self, monkeypatch):
        pair = TwirledPair(TwirledSweep(*PAIR_A, SIGN_FLIP).pair(4))
        assert pair.atoms is None
        pair.evaluator  # built before counting
        shapes = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(np.shape(m)) or real(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("eigvalsh called"))
        pair.beta_eps(0.1)
        sizes = sorted({a.mat.shape for _, a, _ in pair.parts})
        assert shapes and sorted(set(shapes)) == sizes
        # every step decomposes each part once; t = 0 decomposes none
        assert len(shapes) % len(pair.parts) == 0


class TestDualAtZero:
    RHO0 = np.array([[0.2, 0.3], [0.3, 0.8]])
    RHO1 = np.diag([1.0, 0.0])

    def test_outside_mass_is_the_mass_outside_the_support(self):
        assert PsiEvaluator(self.RHO0, self.RHO1).outside_mass() == pytest.approx(0.8, abs=1e-15)
        # the twirled pure state's blocks have rank one, the other's are full
        rho0, rho1 = diag_qubit(0.3), pure_qubit(0.5)
        pair = twirled_pair(rho0, rho1, torus_action(), 4)
        v1 = pair[1].spectrum.support().eigenvectors
        m0 = pair[0].mat
        dense = float(np.trace(m0).real - np.trace(v1.conj().T @ m0 @ v1).real)
        assert dense > 0.1
        assert TwirledSweep(rho0, rho1, torus_action()).evaluator(4).outside_mass() == \
            pytest.approx(dense, abs=1e-12)

    def test_the_slope_at_zero_is_the_right_derivative(self, monkeypatch):
        # rho0 puts 0.8 outside supp rho1, so the dual's right slope at t = 0
        # is 0.9 - 0.8; a difference quotient at t = 1e-9 agrees
        duals = []

        def recorded(fn, lo, hi):
            duals.append(fn)
            return _bracket_min(fn, lo, hi)

        monkeypatch.setattr(discrimination, "_bracket_min", recorded)
        beta_eps(DensityOperator(self.RHO0), DensityOperator(self.RHO1), 0.1)
        (neg_dual,) = duals
        assert neg_dual(0.0) == (0.0, pytest.approx(-0.1, abs=1e-15))
        h = 1e-9
        assert neg_dual(h)[0] / h == pytest.approx(-0.1, abs=1e-6)

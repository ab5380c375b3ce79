import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symtest.asymptotics import (
    closed_form_curve,
    closed_form_psi,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    solve_flat_chernoff_alpha,
    torus_action,
    z2_action,
)
from symtest.divergences import (
    NEG_INF,
    PsiCurve,
    PsiEvaluator,
    chernoff_distance,
    default_s_grid,
    fidelity,
    hoeffding_distance,
    lieb_bound_check,
    phi,
    psi,
    psi_curve,
    relative_entropy,
    renyi,
    renyi_entropy,
)
from symtest.cli import parse_scenario
from symtest.discrimination import (
    average_error,
    beta_eps,
    error_pair,
    fidelity_pmin_check,
    np_test,
    p_min,
    pmin_bounds_check,
    strong_converse_bound,
    threshold_errors,
)
from symtest.errors import DimensionError
from symtest.groups import twirl, twirled_pair
from symtest.linalg import DensityOperator, abs_power_trace, eig, mpow
from symtest.oracle import random_density
from symtest.verify import lf_identity_report

LOG2 = math.log(2.0)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def faithful(rng, dim=2):
    return DensityOperator(random_density(dim, rng=rng))


def residual_says_outside(rho0, rho1) -> bool:
    """The nesting test relative_entropy made before it read the evaluator's
    outside mass: the part of supp rho0 outside supp rho1 has Frobenius norm
    above 1e-7."""
    v0, v1 = eig(rho0).support().eigenvectors, eig(rho1).support().eigenvectors
    return float(np.linalg.norm(v0 - v1 @ (v1.conj().T @ v0))) > 1e-7


class TestPsi:
    def test_identical_faithful_vanishes(self, rng):
        rho = faithful(rng)
        for s in (-0.5, 0.0, 0.5, 1.0, 2.0):
            assert psi(rho, rho, s) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed_formula(self):
        rho0, rho1 = pure_qubit(0.5), diag_qubit(0.3)
        for s in (-0.5, 0.2, 0.5, 1.0, 1.5):
            expected = math.log((0.3 ** (1 - s) + 0.7 ** (1 - s)) / 2)
            assert psi(rho0, rho1, s) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_pure_states(self):
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        for s in (0.25, 0.5, 0.75):
            assert psi(up, down, s) == NEG_INF

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND: (5e-324)**(1 - 2) overflows to inf, the overlap sum takes 0 * inf "
        "= nan, and psi reads the nan as -inf"))
    def test_identical_states_with_a_subnormal_eigenvalue_vanish(self):
        rho = np.diag([5e-324, 1.0])
        assert psi(rho, rho, 2.0) == 0.0

    def test_spectral_route_matches_matrix_route(self, rng):
        rho0, rho1 = faithful(rng, 3), faithful(rng, 3)
        for s in (-0.5, 0.3, 1.2):
            direct = math.log(
                np.trace(mpow(rho0, s) @ mpow(rho1, 1 - s)).real
            )
            assert psi(rho0, rho1, s) == pytest.approx(direct, abs=1e-12)


class TestPsiCurve:
    def test_constant_zero_for_identical(self, rng):
        rho = faithful(rng)
        curve = psi_curve(rho, rho)
        assert_allclose(curve.values, 0.0, atol=1e-12)

    def test_two_pure_single_copy_formula(self):
        lam, mu = 0.3, 0.6
        curve = psi_curve(*twirled_pair(pure_qubit(lam), pure_qubit(mu), torus_action(), 1))
        for s, v in zip(curve.s_grid, curve.values):
            expected = math.log(
                lam**s * mu ** (1 - s) + (1 - lam) ** s * (1 - mu) ** (1 - s)
            )
            assert v == pytest.approx(expected, abs=1e-12)

    def test_z2_envelope_at_three_copies(self):
        # dense twirl stays within log2 of the scaled max-pairing formula
        n, lam, mu = 3, 0.2, 0.7
        pair = twirled_pair(sigma_state(lam), sigma_state(mu), z2_action(), n)
        curve = psi_curve(*pair, grid=np.linspace(0.0, 1.0, 21))
        for s, v in zip(curve.s_grid, curve.values):
            limit = closed_form_psi("Z2Commuting", {"lam": lam, "mu": mu}, float(s))
            assert abs(v / n - limit) <= LOG2 / n + 1e-12

    def test_caller_grid_stays_writable(self):
        g = np.linspace(0, 1, 3)
        curve = psi_curve(diag_qubit(0.3), diag_qubit(0.6), g)
        assert g.flags.writeable
        assert not curve.s_grid.flags.writeable

    def test_convexity_validated(self):
        with pytest.raises(ValueError, match="convex"):
            PsiCurve(np.array([0.0, 0.5, 1.0]),
                     lambda s: 1.0 - abs(2.0 * s - 1.0), lambda s: 2.0 - 4.0 * (s > 0.5))

    def test_evaluator_required(self):
        grid = np.array([0.0, 0.5, 1.0])
        with pytest.raises(TypeError):
            PsiCurve(grid)
        with pytest.raises(TypeError):
            PsiCurve(grid, lambda s: 0.0)


class TestArrayEvaluation:
    """trace_power and psi take a float or an array; PsiCurve samples its
    evaluator once."""

    @staticmethod
    def assert_matches_scalar(ev, grid):
        values = ev.psi(grid)
        scalar = np.array([ev.psi(float(s)) for s in grid])
        assert values.shape == grid.shape
        assert np.array_equal(values == NEG_INF, scalar == NEG_INF)
        finite = scalar != NEG_INF
        # relative to max(1, |psi|): psi(0) and psi(1) are zero up to roundoff
        gap = np.abs(values[finite] - scalar[finite])
        assert np.all(gap <= 1e-15 * np.maximum(1.0, np.abs(scalar[finite])))

    @pytest.mark.parametrize("name", ["two-commuting", "pure-vs-mixed", "two-pure"])
    def test_array_matches_scalar_on_scenario_pairs(self, name):
        sc = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        grid = np.concatenate([default_s_grid(), np.linspace(-40.0, 40.0, 161)])
        for n in range(1, 10):
            self.assert_matches_scalar(
                PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n)), grid)

    def test_array_matches_scalar_on_random_qubit_pairs(self):
        rng = np.random.default_rng(17)
        grid = np.concatenate([default_s_grid(), np.linspace(-40.0, 40.0, 161)])
        for _ in range(20):
            self.assert_matches_scalar(PsiEvaluator(faithful(rng), faithful(rng)), grid)

    def test_underflow_and_orthogonal_supports_give_neg_inf_in_place(self):
        # Tr rho0^s rho1^(1-s) = (1e-10)^(1-s) underflows below s = -29
        grid = np.linspace(-40.0, 2.0, 43)
        ev = PsiEvaluator(np.diag([1.0, 0.0]), np.diag([1e-10, 1.0 - 1e-10]))
        self.assert_matches_scalar(ev, grid)
        assert np.any(ev.psi(grid) == NEG_INF) and np.any(ev.psi(grid) > NEG_INF)
        orthogonal = PsiEvaluator(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        self.assert_matches_scalar(orthogonal, grid)
        assert np.all(orthogonal.psi(grid) == NEG_INF)

    def test_float_gives_float_and_array_keeps_its_shape(self, rng):
        ev = PsiEvaluator(faithful(rng), faithful(rng))
        assert type(ev.psi(0.37)) is float and type(ev.trace_power(0.37)) is float
        grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        assert ev.psi(grid).shape == (2, 3)
        assert ev.trace_power(np.array(0.37)).shape == ()
        assert_allclose(ev.psi(grid).ravel(), ev.psi(grid.ravel()), rtol=0, atol=0)

    def test_grid_longer_than_a_chunk_stays_small(self):
        sc = parse_scenario((SCENARIOS / "two-commuting.json").read_text())
        ev = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, 9))
        grid = np.linspace(-0.5, 2.0, 100_001)
        tracemalloc.start()
        try:
            values = ev.psi(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        probe = np.arange(0, grid.size, 9973)
        assert_allclose(values[probe], [ev.psi(float(grid[k])) for k in probe],
                        rtol=1e-15, atol=1e-15)

    def test_curve_samples_its_evaluator_once(self):
        calls = []

        def fn(s):
            calls.append(np.shape(s))
            return np.asarray(s) ** 2

        curve = PsiCurve(default_s_grid(), fn, lambda s: 2.0 * s)
        assert calls == [(201,)]
        assert_allclose(curve.values, default_s_grid() ** 2, rtol=0, atol=0)

    def test_non_convex_curve_raises_where_it_did_per_point(self):
        # the first window that drops beyond 1e-7 * scale is named, past
        # a drop under the tolerance and past windows holding -inf
        def fn(s):
            s = np.asarray(s, dtype=float)
            value = (np.abs(s - 0.7) - 1e-9 * np.maximum(s - 0.1, 0.0)
                     - 1e-3 * np.maximum(s - 0.4, 0.0) - 2.0 * np.maximum(s - 1.2, 0.0))
            return np.where(s < 0.0, NEG_INF, value)

        for grid, message in (
                (np.linspace(-0.5, 2.0, 26), "near s=0.4 (slope drop -1.000e-03)"),
                (np.linspace(-0.5, 2.0, 201), "near s=0.4 (slope drop -1.000e-03)"),
                (np.linspace(0.5, 2.0, 7), "near s=1 (slope drop -4.000e-01)")):
            with pytest.raises(ValueError) as info:
                PsiCurve(grid, fn, lambda s: 0.0)
            assert str(info.value) == f"curve is not convex {message}"


class TestSlope:
    @pytest.mark.parametrize("kind,params", [
        ("TorusPureVsMixed", {"alpha": 0.3}),
        ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
    ])
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_slope_at_one_is_relative_entropy(self, kind, params, n):
        sc = make_scenario(kind, **params)
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
        # dense reference from one numpy eigh of each state; rho1 is faithful here
        m0, m1 = pair[0].mat, pair[1].mat
        w0 = np.linalg.eigh(m0)[0]
        w0 = w0[w0 > 1e-12]
        w1, v1 = np.linalg.eigh(m1)
        assert w1[0] > 1e-12
        log_rho1 = (v1 * np.log(w1)) @ v1.conj().T
        dense = float(np.sum(w0 * np.log(w0))) - float(np.trace(m0 @ log_rho1).real)
        assert PsiEvaluator(*pair).slope(1.0) == pytest.approx(dense, abs=1e-13)
        assert relative_entropy(*pair) == pytest.approx(dense, abs=1e-13)

    def test_slope_matches_central_difference(self, rng):
        ev = PsiEvaluator(faithful(rng, 3), faithful(rng, 3))
        h = 1e-5
        for s in (-0.5, 0.0, 0.4, 1.0, 1.8):
            central = (ev.psi(s + h) - ev.psi(s - h)) / (2.0 * h)
            assert ev.slope(s) == pytest.approx(central, abs=1e-8)

    def test_orthogonal_supports_have_no_slope(self):
        assert math.isnan(PsiEvaluator(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).slope(0.5))


class TestRenyi:
    def test_identical_states_zero(self, rng):
        rho = faithful(rng)
        for alpha in (0.0, 0.3, 0.7, 1.5):
            assert renyi(rho, rho, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_order_one_rejected(self, rng):
        rho = faithful(rng)
        with pytest.raises(ValueError, match="relative_entropy"):
            renyi(rho, rho, 1.0)

    def test_limit_toward_relative_entropy(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        s = relative_entropy(rho0, rho1)
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            assert renyi(rho0, rho1, alpha) == pytest.approx(s, abs=1e-3)

    def test_classical_diagonal(self, rng):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        q = np.array([0.4, 0.3, 0.2, 0.1])
        for alpha in (0.3, 0.7, 1.6):
            expected = math.log(float(np.sum(p**alpha * q ** (1 - alpha)))) / (alpha - 1)
            assert renyi(np.diag(p), np.diag(q), alpha) == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_supports_infinite(self):
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert renyi(up, down, 0.5) == math.inf
        assert renyi(up, down, 1.5) == math.inf


class TestRelativeEntropy:
    def test_self_distance_zero(self, rng):
        rho = faithful(rng, 3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_two_pure_linear_in_copies(self):
        lam, mu = 0.3, 0.6
        single = lam * math.log(lam / mu) + (1 - lam) * math.log((1 - lam) / (1 - mu))
        for n in (1, 2, 4):
            pair = twirled_pair(pure_qubit(lam), pure_qubit(mu), torus_action(), n)
            assert relative_entropy(*pair) == pytest.approx(n * single, abs=1e-9)

    def test_distinct_pure_states_infinite(self):
        assert relative_entropy(pure_qubit(0.3), pure_qubit(0.6)) == math.inf

    def test_support_violation_infinite(self):
        assert relative_entropy(np.eye(2) / 2, np.diag([1.0, 0.0])) == math.inf

    def test_infinite_where_the_residual_test_says_on_scenario_pairs(self):
        seen = set()
        for name in ("pure-vs-mixed", "two-commuting", "two-pure"):
            sc = parse_scenario((SCENARIOS / f"{name}.json").read_text())
            for n in range(1, 8):
                pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
                for rho0, rho1 in (pair, pair[::-1]):
                    outside = residual_says_outside(rho0, rho1)
                    assert (relative_entropy(rho0, rho1) == math.inf) == outside, (name, n)
                    seen.add(outside)
        assert seen == {True, False}

    def test_infinite_where_the_residual_test_says_on_rank_deficient_alternatives(self):
        rng = np.random.default_rng(18)
        seen = set()
        for k in range(40):
            dim = 2 + k % 4
            rho1 = DensityOperator(random_density(dim, 1 + k % (dim - 1), rng))
            sigma = random_density(dim, rng=rng)
            if k % 2:
                # squeezed into supp rho1, so the supports nest
                v = eig(rho1).support().eigenvectors
                sigma = v @ (v.conj().T @ sigma @ v) @ v.conj().T
                sigma /= np.trace(sigma).real
            rho0 = DensityOperator(sigma)
            outside = residual_says_outside(rho0, rho1)
            assert (relative_entropy(rho0, rho1) == math.inf) == outside, k
            seen.add(outside)
        assert seen == {True, False}

    @pytest.mark.parametrize("theta,infinite", [(0.0, False), (1e-9, False), (1e-5, True)])
    def test_nesting_under_a_rotated_alternative_support(self, theta, infinite):
        # supp rho1 = span{cos(t) e0 + sin(t) e2, e1}: e0 has mass sin(t)**2
        # outside it, 1e-18 or 1e-10 against the 1e-14 threshold
        u = np.array([math.cos(theta), 0.0, math.sin(theta)])
        rho1 = DensityOperator(0.6 * np.outer(u, u) + 0.4 * np.diag([0.0, 1.0, 0.0]))
        rho0 = DensityOperator(np.diag([0.7, 0.3, 0.0]))
        outside = PsiEvaluator(rho0, rho1).outside()
        # rows in ascending order of rho0's eigenvalues: e1 (0.3), then e0 (0.7)
        assert_allclose(outside, [0.0, math.sin(theta) ** 2], rtol=1e-6, atol=1e-30)
        assert residual_says_outside(rho0, rho1) == infinite
        assert (relative_entropy(rho0, rho1) == math.inf) == infinite


class TestOutsideMass:
    def test_full_rank_alternative_has_none_and_keeps_no_spectrum(self, rng):
        import gc
        import weakref

        rho0, rho1 = faithful(rng, 3), faithful(rng, 3)
        ev = PsiEvaluator(rho0, rho1)
        assert_allclose(ev.outside(), np.zeros(3), rtol=0, atol=0)
        # a psi-only evaluator holds its overlaps, not the states' spectra
        spectra = [weakref.ref(eig(rho)) for rho in (rho0, rho1)]
        del rho0, rho1
        gc.collect()
        assert all(ref() is None for ref in spectra)
        assert ev.psi(0.5) < 0.0

    def test_rank_deficient_alternative_keeps_no_spectrum(self):
        import gc
        import weakref

        rho0, rho1 = twirled_pair(pure_qubit(0.3), pure_qubit(0.6), torus_action(), 5)
        assert eig(rho1).support().eigenvalues.size < rho1.dim
        ev = PsiEvaluator(rho0, rho1)
        outside, atoms = ev.outside().copy(), [a.copy() for a in ev.atoms()]
        # the evaluator holds the arrays it read, not the states' spectra
        spectra = [weakref.ref(eig(rho)) for rho in (rho0, rho1)]
        del rho0, rho1
        gc.collect()
        assert all(ref() is None for ref in spectra)
        assert np.array_equal(ev.outside(), outside)
        for got, want in zip(ev.atoms(), atoms):
            assert np.array_equal(got, want)

    def test_mass_outside_equals_the_projection_residual(self, rng):
        for _ in range(10):
            rho0 = DensityOperator(random_density(4, 2, rng))
            rho1 = DensityOperator(random_density(4, 3, rng))
            v0, v1 = eig(rho0).support().eigenvectors, eig(rho1).support().eigenvectors
            resid = v0 - v1 @ (v1.conj().T @ v0)
            assert_allclose(PsiEvaluator(rho0, rho1).outside(),
                            np.sum(np.abs(resid) ** 2, axis=0), rtol=1e-12)


class TestFidelity:
    def test_extremes(self, rng):
        rho = faithful(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric(self, rng):
        rho, sigma = faithful(rng), faithful(rng)
        assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)

    def test_pure_state_overlap(self):
        lam, mu = 0.3, 0.6
        expected = math.sqrt(lam * mu) + math.sqrt((1 - lam) * (1 - mu))
        assert fidelity(pure_qubit(lam), pure_qubit(mu)) == pytest.approx(expected, abs=1e-10)


class TestKeptSpectra:
    def test_consumers_of_built_states_decompose_nothing(self, rng, monkeypatch):
        # every density operator keeps the spectrum it was validated from, so
        # these read it and call neither eigh nor eigvalsh
        rho, sigma = (DensityOperator(random_density(4, rng=rng)) for _ in range(2))
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        PsiEvaluator(rho, sigma).psi(0.4)
        relative_entropy(rho, sigma)
        fidelity(rho, sigma)
        renyi_entropy(rho, 0.5)
        assert counts == {"eigh": 0, "eigvalsh": 0}


def split_state() -> np.ndarray:
    """The 4x4 state blockdiag((1 - eps) [[.6, .2], [.2, .4]], eps [[.5, .25],
    [.25, .5]]) with eps = 1e-17, as a plain array: the eigenvalues 2.5e-18
    and 7.5e-18 of its small component lie far below 4 eps times the largest
    eigenvalue and far above 2 eps times their own component's largest."""
    eps = 1e-17
    rho = np.zeros((4, 4))
    rho[:2, :2] = (1.0 - eps) * np.array([[0.6, 0.2], [0.2, 0.4]])
    rho[2:, 2:] = eps * np.array([[0.5, 0.25], [0.25, 0.5]])
    return rho


class TestPlainArrayIsReadAsAState:
    # every reader of a state's spectrum takes a plain array through
    # DensityOperator, so it cuts the array component by component
    READERS = {
        "psi": lambda rho0, rho1: psi(rho0, rho1, 1.5),
        "relative_entropy": relative_entropy,
        "renyi": lambda rho0, rho1: renyi(rho0, rho1, 0.5),
        "psi_curve": lambda rho0, rho1: psi_curve(rho0, rho1).values,
        "renyi_entropy": lambda rho0, rho1: renyi_entropy(rho1, 0.5),
        "fidelity": fidelity,
    }

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_array_reads_as_its_density_operator(self, name):
        read = self.READERS[name]
        rho0 = np.eye(4) / 4.0
        np.testing.assert_array_equal(read(rho0, split_state()),
                                      read(rho0, DensityOperator(split_state())))

    def test_small_component_is_kept(self):
        rho0 = np.eye(4) / 4.0
        assert relative_entropy(rho0, split_state()) == pytest.approx(19.006532515830937, rel=1e-12)
        assert psi(rho0, split_state(), 1.5) == pytest.approx(18.641, abs=1e-3)

    def test_array_that_is_not_a_state_raises_the_trace_error(self):
        with pytest.raises(ValueError, match="trace must be 1"):
            relative_entropy(np.eye(4) / 4.0, 2.0 * split_state())


class TestChernoff:
    def test_identical_zero(self, rng):
        rho = faithful(rng)
        assert chernoff_distance(psi_curve(rho, rho)) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_mixed_unrestricted(self):
        curve = psi_curve(pure_qubit(0.5), diag_qubit(0.3))
        assert chernoff_distance(curve) == pytest.approx(LOG2, abs=1e-10)

    def test_balanced_mixing_half_log_two(self):
        alpha = solve_flat_chernoff_alpha()
        curve = closed_form_curve("TorusPureVsMixed", {"alpha": alpha})
        assert chernoff_distance(curve) == pytest.approx(LOG2 / 2, abs=1e-8)

    def test_orthogonal_infinite(self):
        curve = psi_curve(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert chernoff_distance(curve) == math.inf

    def test_requires_coverage(self):
        curve = PsiCurve(np.linspace(0.2, 0.8, 10), lambda s: 0.0, lambda s: 0.0)
        with pytest.raises(ValueError, match="cover"):
            chernoff_distance(curve)


class TestHoeffding:
    def test_zero_rate_is_relative_entropy(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        curve = psi_curve(rho0, rho1)
        assert hoeffding_distance(curve, 0.0) == pytest.approx(
            relative_entropy(rho0, rho1), abs=1e-6
        )

    def test_identical_states_zero(self, rng):
        rho = faithful(rng)
        assert hoeffding_distance(psi_curve(rho, rho), 0.1) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [6, 9])
    def test_zero_rate_is_relative_entropy_on_twirled_pairs(self, n):
        # at r = 0 the value is the exact slope at s = 1, with no finite
        # difference to amplify roundoff as n grows
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
        assert hoeffding_distance(psi_curve(*pair), 0.0) == pytest.approx(
            relative_entropy(*pair), abs=1e-12)

    def test_matches_dense_grid_oracle(self):
        curve = closed_form_curve("TorusPureVsMixed", {"alpha": 0.3})
        r = 0.1
        ts = np.linspace(0.0, 1.0 - 1e-6, 10_000)
        oracle = max((-t * r - curve.evaluate(t)) / (1.0 - t) for t in ts)
        assert hoeffding_distance(curve, r) == pytest.approx(oracle, abs=1e-6)

    def test_small_rate_blows_up_without_support(self):
        # psi(1) < 0 here, so rates below -psi(1) are unconstrained
        curve = psi_curve(diag_qubit(0.3), pure_qubit(0.5))
        assert curve.evaluate(1.0) < -1e-3
        assert hoeffding_distance(curve, 0.0) == math.inf

    def test_rejects_negative_rate(self, rng):
        rho = faithful(rng)
        with pytest.raises(ValueError, match="nonnegative"):
            hoeffding_distance(psi_curve(rho, rho), -0.1)


class TestLegendreFenchel:
    def test_phi_zero_is_chernoff(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        curve = psi_curve(rho0, rho1)
        assert phi(curve, 0.0) == pytest.approx(chernoff_distance(curve), abs=1e-10)

    def test_flat_curve_hinge(self):
        grid = default_s_grid()
        curve = PsiCurve(grid, lambda s: 0.0, lambda s: 0.0)
        for a in (-0.7, -0.1, 0.0, 0.2, 1.3):
            assert phi(curve, a) == pytest.approx(max(a, 0.0), abs=1e-12)

    def test_level_set_identity(self):
        # two independent maximizations meet: sup of phi over its own level
        # set equals the Hoeffding sup
        curve = closed_form_curve("TorusPureVsMixed", {"alpha": 0.3})
        for r in (0.05, 0.2):
            lo, hi = -10.0, 10.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if phi(curve, mid) - mid > r:
                    lo = mid
                else:
                    hi = mid
            assert phi(curve, lo) == pytest.approx(hoeffding_distance(curve, r), abs=1e-6)

    def test_level_set_report_stops_at_the_same_point(self):
        # the report halves only while the midpoint moves, and lands on the
        # point the 200 halvings above reach
        curve = closed_form_curve("TorusPureVsMixed", {"alpha": 0.3})
        report = lf_identity_report()
        for r, entry in zip((0.05, 0.2), report.entries):
            lo, hi = -10.0, 10.0
            for _ in range(200):
                mid = (lo + hi) / 2
                if phi(curve, mid) - mid > r:
                    lo = mid
                else:
                    hi = mid
            assert entry.lhs == phi(curve, lo)
            assert entry.ok

    def test_strong_converse_window_vanishes_at_slope(self, rng):
        # the window transform max over [1, 3/2] of a(s-1) - psi(s) inside
        # the floor e^{-a} (1 - eps - e^{-transform}) vanishes at a equal to
        # the slope at 1, so the floor is -eps e^{-a}, and is positive above
        rho0, rho1 = faithful(rng), faithful(rng)
        ev = PsiEvaluator(rho0, rho1)
        a = ev.slope(1.0)
        assert strong_converse_bound(ev, eps=0.1, a=a) == pytest.approx(
            -0.1 * math.exp(-a), abs=1e-6)
        assert strong_converse_bound(ev, eps=0.1, a=a + 0.5) > -0.1 * math.exp(-a - 0.5)


class TestPsiSandwich:
    def test_trivial_group_equalities(self, rng):
        from symtest.groups import GroupAction

        rho0, rho1 = faithful(rng), faithful(rng)
        report = lieb_bound_check(rho0, rho1, GroupAction.trivial(2), 2,
                                  s_grid=np.linspace(0.0, 2.0, 9))
        assert report.ok
        for entry in report.entries:
            if "psi" in entry.label:
                assert entry.lhs == pytest.approx(entry.rhs, abs=1e-9)

    def test_pure_vs_mixed_no_violations(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        for n in (1, 3, 6):
            report = lieb_bound_check(sc.rho0, sc.rho1, sc.action, n,
                                      s_grid=np.linspace(-0.5, 2.0, 26))
            assert report.ok, report.summary()

    def test_extremal_orthogonal_consistent(self):
        sc = make_scenario("Z2Commuting", lam=0.0, mu=1.0)
        report = lieb_bound_check(sc.rho0, sc.rho1, sc.action, 3,
                                  s_grid=np.linspace(0.0, 1.0, 11))
        assert report.ok, report.summary()
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, 3)
        assert psi(*pair, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert psi(sc.rho0, sc.rho1, 0.5) == NEG_INF


class TestDataProcessing:
    def test_twirl_raises_low_powers_lowers_high(self, rng):
        action = z2_action()
        for _ in range(5):
            rho0 = faithful(rng)
            rho1 = faithful(rng)
            t0, t1 = twirl(rho0, action), twirl(rho1, action)
            for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert psi(t0, t1, s) >= psi(rho0, rho1, s) - 1e-8
            for s in (1.25, 1.5, 2.0):
                assert psi(t0, t1, s) <= psi(rho0, rho1, s) + 1e-8

    def test_power_trace_dominates_squared_fidelity(self, rng):
        for _ in range(10):
            rho0, rho1 = faithful(rng, 3), faithful(rng, 3)
            f2 = fidelity(rho0, rho1) ** 2
            ev = PsiEvaluator(rho0, rho1)
            for s in (0.0, 0.25, 0.5, 0.75, 1.0):
                assert ev.trace_power(s) >= f2 - 1e-9


class TestAdditivity:
    def test_psi_subadditive_renyi_superadditive(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        cache = {n: twirled_pair(sc.rho0, sc.rho1, sc.action, n) for n in (1, 2, 3, 4)}
        for n, m in ((1, 1), (1, 2), (2, 2)):
            for s in (0.25, 0.5, 0.75):
                assert psi(*cache[n + m], s) <= psi(*cache[n], s) + psi(*cache[m], s) + 1e-8
            for alpha in (0.0, 0.3, 0.7):
                lhs = renyi(*cache[n], alpha) + renyi(*cache[m], alpha)
                assert lhs <= renyi(*cache[n + m], alpha) + 1e-8

    def test_renyi_entropy_subadditive_vs_maximally_mixed(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.5)
        cache = {n: twirled_pair(sc.rho0, sc.rho1, sc.action, n)[0] for n in (1, 2, 3, 4)}
        for n, m in ((1, 1), (1, 2), (2, 2)):
            for alpha in (0.3, 0.7):
                lhs = renyi_entropy(cache[n + m], alpha)
                rhs = renyi_entropy(cache[n], alpha) + renyi_entropy(cache[m], alpha)
                assert lhs <= rhs + 1e-8


    @pytest.mark.parametrize("action", [torus_action(), z2_action()], ids=["torus", "sign-flip"])
    def test_exact_components_keep_eigenvalues_below_the_cut(self, action):
        # both groups leave this diagonal pair as it is, so psi_n = n*psi_1
        # exactly; at n >= 10 the smallest eigenvalues 0.05^n fall below the
        # relative cut, but each is a 1x1 component, read off exactly
        rho0, rho1 = diag_qubit(0.05), diag_qubit(0.5)
        ev1 = PsiEvaluator(rho0, rho1)
        for n in (10, 11):
            ev = PsiEvaluator(*twirled_pair(rho0, rho1, action, n))
            for s in (-0.5, 0.1, 0.5, 0.9, 1.5):
                assert abs(ev.psi(s) - n * ev1.psi(s)) <= 1e-12, (n, s)


TWO_STATE_FUNCTIONS = {
    "psi": lambda a, b: psi(a, b, 0.5),
    "psi_curve": psi_curve,
    "PsiEvaluator": PsiEvaluator,
    "renyi": lambda a, b: renyi(a, b, 0.5),
    "relative_entropy": relative_entropy,
    "fidelity": fidelity,
    "abs_power_trace": lambda a, b: abs_power_trace(a, b, 0.5),
    "p_min": p_min,
    "average_error": average_error,
    "beta_eps": lambda a, b: beta_eps(a, b, 0.1),
    "np_test": lambda a, b: np_test(a, b, 0.0),
    "threshold_errors": lambda a, b: threshold_errors(a, b, [0.0]),
    "error_pair": lambda a, b: error_pair(np.eye(2), a, b),
    "strong_converse_bound": lambda a, b: strong_converse_bound(PsiEvaluator(a, b), eps=0.1, a=0.1),
    "pmin_bounds_check": lambda a, b: pmin_bounds_check(a, b, 0.0),
    "fidelity_pmin_check": fidelity_pmin_check,
}


@pytest.mark.parametrize("name", sorted(TWO_STATE_FUNCTIONS))
def test_two_states_of_different_dimension_raise(name):
    small = DensityOperator(np.eye(2) / 2)
    large = DensityOperator(np.eye(4) / 4)
    with pytest.raises(DimensionError):
        TWO_STATE_FUNCTIONS[name](small, large)


class TestFidelityPowers:
    def test_monotone_above_product_power(self, rng):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        f = fidelity(sc.rho0, sc.rho1)
        for n in (1, 2, 3, 4):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            assert fidelity(*pair) >= f**n - 1e-9

    def test_invariant_alternative_power_trace_bounds(self):
        from symtest.groups import block_structure
        from symtest.linalg import abs_power_trace

        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        for n in (1, 2, 3):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            prefactor = sum(d for _, d in block_structure(sc.action, n)) ** 2
            single = {s: abs_power_trace(sc.rho0, sc.rho1, s) for s in (0.25, 0.5, 0.75)}
            assert abs_power_trace(*pair, 0.75) <= prefactor * single[0.75] ** n + 1e-9
            assert abs_power_trace(*pair, 0.5) <= prefactor * single[0.5] ** n + 1e-9
            assert abs_power_trace(*pair, 0.25) >= single[0.25] ** n - 1e-9
            assert abs_power_trace(*pair, 0.5) >= single[0.5] ** n - 1e-9

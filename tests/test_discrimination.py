import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symtest import discrimination, linalg
from symtest.asymptotics import (
    closed_form_curve,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    torus_action,
    z2_action,
)
from symtest.discrimination import (
    ErrorPair,
    TestOperator,
    TwirledPair,
    _dual,
    average_error,
    beta_eps,
    error_pair,
    fidelity_pmin_check,
    np_test,
    p_min,
    pmin_bounds_check,
    stein_a_grid,
    strong_converse_bound,
    threshold_errors,
)
from symtest.cli import parse_scenario
from symtest.divergences import PsiEvaluator, fidelity, psi
from symtest.errors import DimensionError
from symtest.groups import twirled_pair
from symtest.linalg import DensityOperator, asmatrix, cut_level, eig, kron_power
from symtest.oracle import pmin_random_battery, random_density

from helpers import breakpoint_dual, one_eigh_projection, random_unitary, seeded_pairs

LOG2 = math.log(2.0)
RATES = np.linspace(-2.0, 2.0, 81)
S_M_03 = -(math.log(0.3) + math.log(0.7)) / 2.0


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def faithful(rng, dim=2):
    return DensityOperator(random_density(dim, rng=rng))


def full_spectrum_atoms(rho0n, rho1n):
    """The commuting atoms as they were read before PsiEvaluator.atoms: one
    per nonzero overlap of the two full kept spectra, eigenvalues clipped at
    zero, or None for a pair that does not commute."""
    m0, m1 = asmatrix(rho0n), asmatrix(rho1n)
    scale = max(1.0, float(np.max(np.abs(m0))), float(np.max(np.abs(m1))))
    if float(np.max(np.abs(m0 @ m1 - m1 @ m0))) > 1e-10 * scale:
        return None
    spec0, spec1 = eig(rho0n), eig(rho1n)
    overlap = np.abs(spec0.eigenvectors.conj().T @ spec1.eigenvectors) ** 2
    i, j = np.nonzero(overlap)
    return (np.maximum(spec0.eigenvalues, 0.0)[i], np.maximum(spec1.eigenvalues, 0.0)[j],
            overlap[i, j])


def commuting_atoms(rho0n, rho1n):
    """The commuting atoms beta_eps and threshold_errors read off a pair of
    states, None for a pair that does not commute."""
    return TwirledPair([(1, *linalg.state_pair(rho0n, rho1n))]).atoms


class TestTestOperator:
    def test_spectrum_validated(self):
        with pytest.raises(ValueError, match="spectrum"):
            TestOperator(np.diag([1.5, 0.0]))

    def test_small_violations_clipped(self):
        t = TestOperator(np.diag([1.0 + 5e-10, -5e-10]))
        w = np.linalg.eigvalsh(t.mat)
        assert w[0] >= 0.0 and w[-1] <= 1.0


def split_pairs():
    """Block-diagonal twirled pairs: seeded sign-flip pairs at n <= 7 and the
    torus pure-vs-mixed pair at n <= 6, as (n, pair)."""
    out = [(n, twirled_pair(*pair, z2_action(), n))
           for seed in (3, 17) for pair in seeded_pairs(seed).values() for n in (1, 2, 5, 7)]
    sc = make_scenario("TorusPureVsMixed", alpha=0.3)
    return out + [(n, twirled_pair(sc.rho0, sc.rho1, sc.action, n)) for n in range(1, 7)]


class TestSplitNpTest:
    A_VALUES = (-0.2, 0.0, 0.05, 0.3)

    def test_matches_one_eigh_of_the_whole_difference(self):
        # np_test splits the difference along its exact zeros and cuts it at
        # the whole difference's level, so it keeps the rank of the one-eigh
        # projection, lands on it and on the threshold sweep's rows.  Roundoff
        # in h moves the projection by about eps ||h|| / min|w| (Davis-Kahan),
        # so the oracle is that far off itself: 2.2e-12 off the exact zeros
        # between the blocks on one pair at n = 7, where min|w| = 4.6e-6
        for n, (rho0, rho1) in split_pairs():
            rows = threshold_errors(rho0, rho1, [n * a for a in self.A_VALUES])
            for a, row in zip(self.A_VALUES, rows):
                test = np_test(rho0, rho1, n * a)
                h = math.exp(-n * a) * rho0.mat - rho1.mat
                oracle = one_eigh_projection(h)
                assert round(np.trace(test.mat).real) == round(np.trace(oracle).real)
                w = np.abs(np.linalg.eigvalsh(h))
                tol = max(1e-12, np.finfo(float).eps * w.max() / w.min())
                assert_allclose(test.mat, oracle, rtol=0, atol=tol)
                errors = error_pair(test, rho0, rho1)
                assert_allclose([errors.beta0, errors.beta1], row, rtol=0, atol=1e-14)
                # the test is the projection as its idempotency certificate
                # accepted it; the public TestOperator rule (gate, eigh per
                # component, clip, rebuild) is the oracle, and the spectrum
                # it would check lies in [0, 1]
                assert not test.mat.flags.writeable
                assert_allclose(TestOperator(test.mat).mat, test.mat, rtol=0, atol=1e-14)
                w = np.linalg.eigvalsh(test.mat)
                assert w[0] >= -1e-9 and w[-1] <= 1.0 + 1e-9

    def test_sign_flip_pair_runs_no_eigh_above_its_blocks(self, monkeypatch):
        # pair B at n = 7 is two exact 64x64 blocks under the sign flip
        pair = twirled_pair(*seeded_pairs(0)["B"], z2_action(), 7)
        sizes = []

        def counted(a, *args, _real=np.linalg.eigh, **kwargs):
            sizes.append(a.shape[-1])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for a in self.A_VALUES:
            np_test(*pair, 7 * a)
        # one eigh per block of each difference, none on the projection
        assert sizes == [64] * (2 * len(self.A_VALUES))


class TestErrorPair:
    def test_full_and_empty_tests(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        assert error_pair(np.eye(2), rho0, rho1) == ErrorPair(0.0, 1.0)
        assert error_pair(np.zeros((2, 2)), rho0, rho1) == ErrorPair(1.0, 0.0)

    def test_half_identity(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        errors = error_pair(np.eye(2) / 2, rho0, rho1)
        assert errors.beta0 == pytest.approx(0.5, abs=1e-12)
        assert errors.beta1 == pytest.approx(0.5, abs=1e-12)

    def test_range_validated(self):
        with pytest.raises(ValueError):
            ErrorPair(1.2, 0.0)


class TestNpTest:
    def test_identical_states_empty_projection(self, rng):
        rho = faithful(rng)
        assert_allclose(np_test(rho, rho, 0.0).mat, np.zeros((2, 2)), atol=1e-12)

    def test_orthogonal_states_support(self):
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert_allclose(np_test(up, down, 0.0).mat, np.diag([1.0, 0.0]), atol=1e-12)

    def test_block_selection_three_copies(self):
        # scalar comparison oracle per weight block: the projection keeps the
        # rank-one direction of every block where the twirled null weight
        # beats the alternative's eigenvalue
        n, alpha = 3, 0.3
        pair = twirled_pair(pure_qubit(0.5), diag_qubit(alpha), torus_action(), n)
        t = np_test(*pair, 0.0).mat
        weights = np.array([bin(i).count("1") for i in range(2**n)])
        expected = np.zeros((2**n, 2**n), dtype=complex)
        for w in range(n + 1):
            idx = np.nonzero(weights == w)[0]
            p0_block = math.comb(n, w) / 2**n
            r1_block = alpha ** (n - w) * (1 - alpha) ** w
            if p0_block > r1_block:
                vec = np.zeros(2**n)
                vec[idx] = 1 / math.sqrt(idx.size)
                expected += np.outer(vec, vec)
        assert_allclose(t, expected, atol=1e-10)
        assert np.trace(t).real == pytest.approx(3.0, abs=1e-9)


class TestPmin:
    def test_identical_states(self, rng):
        rho = faithful(rng)
        assert p_min(rho, rho, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert average_error(rho, rho) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_states(self):
        assert p_min(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_matches_threshold_test_combination(self, rng):
        for a in (-0.2, 0.0, 0.3):
            for n in (1, 2):
                pair = twirled_pair(faithful(rng), faithful(rng), z2_action(), n)
                errors = error_pair(np_test(*pair, n * a), *pair)
                combo = math.exp(-n * a) * errors.beta0 + errors.beta1
                assert p_min(*pair, n * a) == pytest.approx(combo, abs=1e-9)

    def test_beats_random_batteries(self, rng):
        pair = twirled_pair(faithful(rng), faithful(rng), z2_action(), 2)
        best, reference = pmin_random_battery(*pair, 0.0, count=100)
        assert reference <= best + 1e-9
        assert p_min(*pair) == pytest.approx(reference, abs=1e-12)

    def test_maximally_mixed_alternative_closed_form(self):
        # twirled all-ones state vs the flat state: p_min = (n+1) 2^{-n},
        # so the per-copy log gap to -log2 is log(n+1)/n
        for n in (4, 6, 8, 10):
            pair = twirled_pair(pure_qubit(0.5), diag_qubit(0.5), torus_action(), n)
            value = p_min(*pair)
            assert value == pytest.approx((n + 1) * 2.0**-n, abs=1e-12)
            gap = math.log(value) / n + LOG2
            assert gap == pytest.approx(math.log(n + 1) / n, abs=1e-9)
        gaps = [math.log((n + 1) * 2.0**-n) / n + LOG2 for n in (4, 6, 8, 10)]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_maximally_mixed_alternative_untwirled_exact(self):
        # without the twirl the same pair hits the -log2 rate at every n
        for n in (2, 5, 10):
            rho0n = DensityOperator(kron_power(pure_qubit(0.5).mat, n))
            rho1n = DensityOperator(np.eye(2**n) / 2**n)
            assert math.log(p_min(rho0n, rho1n)) / n == pytest.approx(-LOG2, abs=1e-10)


class TestPminBounds:
    def test_identical_states_bounds(self, rng):
        rho = faithful(rng)
        report = pmin_bounds_check(rho, rho, a=0.0)
        assert report.ok
        upper = next(e for e in report.entries if "weighted" in e.label)
        assert upper.lhs == pytest.approx(1.0, abs=1e-12)
        assert upper.rhs == pytest.approx(1.0, abs=1e-10)

    def test_random_pairs_no_violations(self, rng):
        for _ in range(50):
            rho0, rho1 = faithful(rng), faithful(rng)
            for a in (-0.2, 0.0, 0.3):
                for n in (1, 2, 3):
                    r0 = DensityOperator(kron_power(rho0.mat, n))
                    r1 = DensityOperator(kron_power(rho1.mat, n))
                    report = pmin_bounds_check(r0, r1, n * a)
                    assert report.ok, report.summary()

    def test_rates_at_once_give_the_reports_of_each_rate(self, rng):
        rates = (-0.2, 0.0, 0.3)
        for rho0, rho1 in seeded_pairs(5).values():
            for n in (1, 2, 3):
                pair = twirled_pair(rho0, rho1, z2_action(), n)
                reports = pmin_bounds_check(*pair, [n * a for a in rates])
                assert len(reports) == len(rates)
                for a, report in zip(rates, reports):
                    assert report.entries == pmin_bounds_check(*pair, n * a).entries

    def test_extremal_commuting_pair(self):
        # fully twirled opposite extremes coincide, and the weighted trace
        # upper bound is attained in the interior
        pair = twirled_pair(sigma_state(0.0), sigma_state(1.0), z2_action(), 3)
        assert p_min(*pair) == pytest.approx(1.0, abs=1e-12)
        report = pmin_bounds_check(*pair, 0.0)
        assert report.ok
        upper = next(e for e in report.entries if "weighted" in e.label)
        assert upper.rhs == pytest.approx(1.0, abs=1e-9)


class TestBetaEps:
    def test_identical_states_linear_tradeoff(self, rng):
        rho = faithful(rng)
        assert beta_eps(rho, rho, 0.25) == pytest.approx(0.75, abs=1e-10)

    def test_orthogonal_states_zero(self):
        up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        for eps in (0.05, 0.3, 0.9):
            assert beta_eps(up, down, eps) == pytest.approx(0.0, abs=1e-12)

    def test_eps_range_validated(self, rng):
        rho = faithful(rng)
        with pytest.raises(ValueError):
            beta_eps(rho, rho, 0.0)

    def test_pure_vs_mixed_rate_vs_mean_entropy(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, 8)
        rate = -math.log(beta_eps(*pair, 0.1)) / 8
        assert abs(rate - S_M_03) <= 0.25

    def test_monotone_and_continuous_in_eps(self, rng):
        pair = twirled_pair(faithful(rng), faithful(rng), z2_action(), 2)
        eps_grid = np.linspace(0.05, 0.9, 12)
        values = [beta_eps(*pair, float(e)) for e in eps_grid]
        for previous, current in zip(values, values[1:]):
            assert current <= previous + 1e-10
        for e, v in zip(eps_grid, values):
            assert beta_eps(*pair, float(e) + 1e-9) == pytest.approx(v, abs=1e-6)

    def test_general_path_matches_classical_path(self):
        # the dual read off the atoms and off one eigh per part, and the
        # breakpoint reference, against hand-computed Neyman-Pearson optima:
        # accept atoms in decreasing p/q order, randomize on the last one
        p = np.array([0.55, 0.30, 0.15])
        q = np.array([0.2, 0.3, 0.5])
        m0, m1 = np.diag(p).astype(complex), np.diag(q).astype(complex)
        parts = [(1, DensityOperator(m0), DensityOperator(m1))]
        for eps, expected in ((0.1, 2.0 / 3.0), (0.35, 0.3), (0.7, 0.12 / 1.1)):
            assert breakpoint_dual(p, q, eps) == pytest.approx(expected, abs=1e-9)
            # both states have full rank: no mass of rho0 lies outside supp rho1
            for atoms in ((p, q, np.ones(3)), None):
                assert _dual(parts, atoms, 0.0, eps) == pytest.approx(expected, abs=1e-9)
            assert beta_eps(m0, m1, eps) == pytest.approx(expected, abs=1e-9)

    def test_small_commuting_beta_keeps_its_relative_accuracy(self):
        # the first bracket [0, 5] already has a gap of 8e-16, below the
        # absolute 1e-14 stop, and its best value is f(0) = 0; the peak is the
        # breakpoint t = 1e-15/0.9 inside it, where the dual is 0.8 t
        p, q = np.array([0.9, 0.1]), np.array([1e-15, 1.0 - 1e-15])
        expected = breakpoint_dual(p, q, 0.2)
        assert expected == pytest.approx(0.8e-15 / 0.9, rel=1e-15, abs=0)
        assert beta_eps(np.diag(p), np.diag(q), 0.2) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_null_mass_outside_alternative_support(self):
        # rho0 puts 0.8 outside supp rho1 = |0><0|, so any eps >= 0.2 is free;
        # below that the optimum sits at a finite threshold of a noncommuting pair
        rho0 = np.array([[0.2, 0.3], [0.3, 0.8]])
        rho1 = np.diag([1.0, 0.0])
        for eps in (0.2, 0.3, 0.9):
            value = beta_eps(rho0, rho1, eps)
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0  # never -0.0
        assert beta_eps(rho0, rho1, 0.05) == pytest.approx(3.0 / 7.0, abs=1e-9)

    def test_frontier_reproduces_pure_threshold_points(self, rng):
        # at eps equal to a pure threshold test's type-I error the constrained
        # optimum must return exactly that test's type-II error
        rho0, rho1 = faithful(rng, 3), faithful(rng, 3)
        for a in (-0.8, -0.3, 0.0, 0.4, 1.0):
            test = np_test(rho0, rho1, float(a))
            errors = error_pair(test, rho0, rho1)
            if 1e-6 < errors.beta0 < 1 - 1e-6:
                assert beta_eps(rho0, rho1, errors.beta0) == pytest.approx(
                    errors.beta1, abs=1e-9
                )

    def test_noncommuting_pair_feasible_and_consistent(self, rng):
        rho0, rho1 = faithful(rng, 3), faithful(rng, 3)
        eps = 0.2
        value = beta_eps(rho0, rho1, eps)
        # feasibility: some explicit randomized threshold test achieves it
        assert 0.0 <= value <= 1.0
        # optimality against the pure threshold family
        for a in np.linspace(-2.0, 2.0, 41):
            test = np_test(rho0, rho1, float(a))
            errors = error_pair(test, rho0, rho1)
            if errors.beta0 <= eps:
                assert value <= errors.beta1 + 1e-9


def projection_errors(rho0n, rho1n, a_values):
    """Reference for threshold_errors: one validated projection per rate."""
    rows = []
    for a in a_values:
        errors = error_pair(np_test(rho0n, rho1n, float(a)), rho0n, rho1n)
        rows.append((errors.beta0, errors.beta1))
    return np.array(rows)


def random_pairs():
    """32 seeded pairs, d = 2..5; every third null state is rank-deficient."""
    rng = np.random.default_rng(1234)
    pairs = []
    for k in range(32):
        dim = 2 + k % 4
        rank = dim - 1 if k % 3 == 0 else dim
        pairs.append((random_density(dim, rank=rank, rng=rng), random_density(dim, rng=rng)))
    return pairs


def shared_basis_pairs():
    """Commuting pairs on a random eigenbasis, the null state with one zero weight."""
    rng = np.random.default_rng(4321)
    pairs = []
    for k in range(16):
        dim = 2 + k % 4
        u = random_unitary(dim, rng)
        p, q = rng.random(dim), rng.random(dim)
        p[k % dim] = 0.0
        pairs.append(((u * (p / p.sum())) @ u.conj().T, (u * (q / q.sum())) @ u.conj().T))
    return pairs


class TestThresholdErrors:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("make_pairs,commuting", [
        (random_pairs, False),
        (shared_basis_pairs, True),
    ], ids=["random", "shared-basis"])
    def test_pairs_match_projections(self, make_pairs, commuting, n):
        for rho0, rho1 in make_pairs():
            # selects the evaluator: joint eigenvalue atoms or one eigh per rate
            assert (commuting_atoms(rho0, rho1) is not None) == commuting
            # the test at n copies and per-copy rate a is the one at the rate n*a
            assert_allclose(threshold_errors(rho0, rho1, n * RATES),
                            projection_errors(rho0, rho1, n * RATES), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,params", [
        ("TorusTwoPure", {"lam": 0.3, "mu": 0.6}),
        ("TorusPureVsMixed", {"alpha": 0.3}),
        ("TorusPureVsMixed", {"alpha": 0.5}),
        ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
        ("Z2Commuting", {"lam": 0.0, "mu": 1.0}),
    ])
    def test_twirled_families_match_projections(self, kind, params):
        sc = make_scenario(kind, **params)
        for n in range(1, 7):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            assert_allclose(threshold_errors(*pair, RATES), projection_errors(*pair, RATES),
                            rtol=0, atol=1e-12)

    def test_atoms_are_cut_on_their_eigenvalue(self):
        # an atom is kept when e^{-na} w0 - w1, its eigenvalue of the
        # difference, survives the cut, as in the projection; cutting that
        # eigenvalue times the overlap instead drops atoms the projection keeps
        # on this degenerate pair (by 7e-10 in beta0)
        sc = make_scenario("Z2Commuting", lam=0.2, mu=0.7)
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, 8)
        assert_allclose(threshold_errors(*pair, RATES), projection_errors(*pair, RATES),
                        rtol=0, atol=1e-12)

    def test_common_eigenbasis_reads_the_kept_spectrum(self, monkeypatch):
        # the atoms come from the spectra the states keep, so no eigh runs,
        # and the dual read off the atoms lands on the dual read off the
        # dense matrices within its accuracy; that one runs eigh, so it is
        # computed first
        pairs = []
        for kind, params in (("TorusTwoPure", {"lam": 0.3, "mu": 0.6}),
                             ("TorusPureVsMixed", {"alpha": 0.3}),
                             ("Z2Commuting", {"lam": 0.2, "mu": 0.7})):
            sc = make_scenario(kind, **params)
            pairs.extend(twirled_pair(sc.rho0, sc.rho1, sc.action, n) for n in (1, 3, 5))
        references = [[_dual([(1, *pair)], None, PsiEvaluator(*pair).outside_mass(), eps)
                       for eps in (0.1, 0.3)] for pair in pairs]
        calls = []

        def counted(*args, _real=np.linalg.eigh, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for pair, reference in zip(pairs, references):
            assert commuting_atoms(*pair) is not None
            for eps, dual in zip((0.1, 0.3), reference):
                assert beta_eps(*pair, eps) == pytest.approx(dual, abs=1e-9)
        assert not calls

    @pytest.mark.parametrize("name", ["pure-vs-mixed", "two-commuting", "two-pure"])
    def test_evaluator_atoms_match_the_full_spectrum_atoms(self, name, monkeypatch):
        # the atoms over the supports plus one outside-mass atom per row give
        # what every nonzero overlap of the two full spectra gave
        sc = parse_scenario((SCENARIOS / f"{name}.json").read_text())
        pairs = [twirled_pair(sc.rho0, sc.rho1, sc.action, n) for n in range(1, 8)]
        eps_values = np.linspace(0.05, 0.9, 18)

        def outputs():
            return [(np.array([beta_eps(*pair, eps) for eps in eps_values]),
                     threshold_errors(*pair, RATES)) for pair in pairs]

        assert all(commuting_atoms(*pair) is not None for pair in pairs)
        new = outputs()
        # the one part (1, rho0n, rho1n) of beta_eps and threshold_errors
        monkeypatch.setattr(TwirledPair, "atoms", property(
            lambda pair: full_spectrum_atoms(*pair.parts[0][1:])))
        for (beta, errors), (beta_old, errors_old) in zip(new, outputs()):
            assert_allclose(beta, beta_old, rtol=0, atol=1e-14)
            assert_allclose(errors, errors_old, rtol=0, atol=1e-14)

    def test_signed_difference_is_cut_as_one_matrix(self):
        # rho0 - rho1 is block diagonal: O(1) on the first block and, on the
        # second, a one-ulp difference with eigenvalues of both signs.  That
        # block's positive eigenvalue lies above its own cut and below the
        # whole difference's, so a test cut per component would accept it and
        # take in its null mass; the projection and the threshold sweep both
        # cut the difference as one matrix and drop it.
        rho0, rho1 = np.zeros((4, 4)), np.zeros((4, 4))
        rho0[:2, :2] = [[0.45, 0.15], [0.15, 0.05]]
        rho1[:2, :2] = [[0.1, 0.0], [0.0, 0.4]]
        rho0[2:, 2:] = rho1[2:, 2:] = [[0.25, 0.05], [0.05, 0.25]]
        rho1[2, 2] = np.nextafter(0.25, 1.0)
        rho1[3, 3] = np.nextafter(0.25, 0.0)
        rho1[2, 3] = rho1[3, 2] = np.nextafter(0.05, 1.0)
        rho0, rho1 = DensityOperator(rho0), DensityOperator(rho1)
        delta = rho0.mat - rho1.mat
        small = np.linalg.eigvalsh(delta[2:, 2:])
        assert small[0] < 0.0 < small[1]
        assert cut_level(small) < small[1] < cut_level(np.linalg.eigvalsh(delta))
        errors = error_pair(np_test(rho0, rho1, 0.0), rho0, rho1)
        assert_allclose(threshold_errors(rho0, rho1, [0.0])[0], [errors.beta0, errors.beta1],
                        rtol=0, atol=1e-12)

    def test_one_row_per_rate(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        assert threshold_errors(rho0, rho1, []).shape == (0, 2)
        assert threshold_errors(rho0, rho1, [0.0, 1.0]).shape == (2, 2)
        with pytest.raises(DimensionError):
            threshold_errors(np.eye(2) / 2, np.eye(3) / 3, [0.0])


class TestStatePairs:
    def test_commuting_atoms_of_two_states_run_no_hermitian_gate(self, monkeypatch):
        sc = make_scenario("Z2Commuting", lam=0.2, mu=0.7)
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, 3)
        calls = []

        def counted(a, _real=linalg.hermitian):
            calls.append(1)
            return _real(a)

        monkeypatch.setattr(linalg, "hermitian", counted)
        monkeypatch.setattr(discrimination, "hermitian", counted)
        assert commuting_atoms(*pair) is not None
        beta_eps(*pair, 0.1)
        threshold_errors(*pair, RATES)
        assert not calls

    CALLS = {
        "error_pair": lambda a, b: error_pair(np.eye(2) / 2, a, b),
        "beta_eps": lambda a, b: beta_eps(a, b, 0.1),
        "threshold_errors": lambda a, b: threshold_errors(a, b, [0.0]),
        "np_test": lambda a, b: np_test(a, b, 0.0),
        "p_min": p_min,
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("rho0", [
        2.0 * np.diag([0.6, 0.4]),
        2.0 * np.array([[0.5, 0.2], [0.2, 0.5]]),
    ], ids=["commuting", "noncommuting"])
    def test_a_pair_that_is_not_a_state_raises_on_either_path(self, name, rho0):
        with pytest.raises(ValueError, match="trace must be 1 within"):
            self.CALLS[name](rho0, np.diag([0.3, 0.7]))


class TestStrongConverse:
    def test_identical_states_vacuous(self, rng):
        rho = faithful(rng)
        bound = strong_converse_bound(PsiEvaluator(rho, rho), eps=0.1, a=0.0)
        assert bound < 0.0

    def test_bound_positive_and_below_beta_eps(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        n, eps = 6, 0.1
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
        value = beta_eps(*pair, eps)
        a = S_M_03 + 0.2
        bound = strong_converse_bound(PsiEvaluator(*pair), eps=eps, a=n * a)
        assert bound > 0.0
        assert bound <= value + 1e-9

    def test_array_of_rates_gives_each_rate_and_samples_the_window_once(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        n = 6
        ev = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n))
        grid = stein_a_grid(S_M_03)
        each = [strong_converse_bound(ev, eps=0.1, a=n * float(a)) for a in grid]
        window_calls = []
        scalar_psi = ev.psi

        def counted(s):
            if not isinstance(s, float):
                window_calls.append(np.shape(s))
            return scalar_psi(s)

        ev.psi = counted
        # each refinement step is one float call to psi_slope
        steps = []
        scalar_psi_slope = ev.psi_slope
        ev.psi_slope = lambda s: steps.append(type(s)) or scalar_psi_slope(s)
        bounds = strong_converse_bound(ev, eps=0.1, a=n * grid)
        assert window_calls == [(21,)]
        assert steps and set(steps) == {float}
        assert isinstance(bounds, np.ndarray) and bounds.tolist() == each
        assert strong_converse_bound(ev, eps=0.1, a=n * grid.reshape(3, 7)).shape == (3, 7)
        assert isinstance(strong_converse_bound(ev, eps=0.1, a=n * float(grid[0])), float)

    def test_never_exceeds_beta_eps_on_rate_grid(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        curve = closed_form_curve(sc.kind, sc.params)
        for n in (4, 6):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            ev = PsiEvaluator(*pair)
            for eps in (0.1, 0.3):
                value = beta_eps(*pair, eps)
                for a in stein_a_grid(curve.slope(1.0)):
                    bound = strong_converse_bound(ev, eps=eps, a=n * float(a))
                    assert bound <= value + 1e-9


class TestFidelitySandwich:
    def test_twirled_pairs(self, rng):
        for action in (z2_action(), torus_action()):
            pair = twirled_pair(faithful(rng), faithful(rng), action, 2)
            assert fidelity_pmin_check(*pair).ok

    def test_average_error_between_bounds(self, rng):
        rho0, rho1 = faithful(rng), faithful(rng)
        f = fidelity(rho0, rho1)
        avg = average_error(rho0, rho1)
        assert (1 - math.sqrt(1 - f * f)) / 2 - 1e-9 <= avg <= f / 2 + 1e-9


class TestRestrictedNeverBeatsUnrestricted:
    def test_pmin_monotone_under_twirl(self):
        for kind, params in (
            ("TorusPureVsMixed", {"alpha": 0.3}),
            ("TorusTwoPure", {"lam": 0.3, "mu": 0.6}),
            ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
        ):
            sc = make_scenario(kind, **params)
            for n in (1, 2, 3):
                pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
                raw0 = DensityOperator(kron_power(sc.rho0.mat, n))
                raw1 = DensityOperator(kron_power(sc.rho1.mat, n))
                assert math.log(p_min(*pair)) / n >= math.log(p_min(raw0, raw1)) / n - 1e-9

    def test_half_power_floor(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        for n in (1, 2, 3, 4):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            lhs = math.log(p_min(*pair)) / n
            rhs = 2.0 * psi(*pair, 0.5) / n - LOG2 / n
            assert lhs >= rhs - 1e-9

import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symtest import cli
from symtest.asymptotics import (
    ConvergenceTable,
    Scenario,
    _closed_form,
    closed_form_curve,
    closed_form_psi,
    closed_form_relative_entropy,
    convergence_table,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    solve_branch_crossover,
    solve_flat_chernoff_alpha,
    stein_gap_check,
    torus_action,
)
from symtest.divergences import (
    PsiEvaluator,
    chernoff_distance,
    fidelity,
    hoeffding_distance,
    psi_curve,
    relative_entropy,
)
from symtest.groups import twirled_pair
from symtest.linalg import DensityOperator
from symtest.oracle import random_density

from helpers import (
    binomial_power_sum,
    binomial_power_sum_limit,
    half_binomial_sum,
    half_binomial_sum_limit,
)

LOG2 = math.log(2.0)


class TestClosedForms:
    def test_pure_vs_maximally_mixed_line(self):
        for s in (0.0, 0.2, 0.5, 1.0, 1.7):
            assert closed_form_psi("TorusPureVsMixed", {"alpha": 0.5}, s) == pytest.approx(
                -(1 - s) * LOG2, abs=1e-12
            )

    def test_half_point_universal(self):
        for alpha in (0.11, 0.3, 0.5, 0.8):
            assert closed_form_psi("TorusPureVsMixed", {"alpha": alpha}, 0.5) == pytest.approx(
                -LOG2 / 2, abs=1e-12
            )

    def test_pure_vs_mixed_continuous_at_zero(self):
        params = {"alpha": 0.3}
        left = closed_form_psi("TorusPureVsMixed", params, 0.0)
        right = closed_form_psi("TorusPureVsMixed", params, 1e-9)
        assert right == pytest.approx(left, abs=1e-7)

    @pytest.mark.parametrize("s", [5e-321, 1e-310, 1e-300])
    def test_pure_vs_mixed_at_subnormal_s(self, s):
        value, slope = _closed_form("TorusPureVsMixed", {"alpha": 0.3}, s)
        assert value == pytest.approx(math.log(0.7), abs=1e-12)
        assert round(value, 4) == -0.3567
        # the s <= 0 branch's slope, which the curve meets at s = 0
        assert slope == pytest.approx(-math.log(0.7) - LOG2, abs=1e-12)

    def test_pure_vs_mixed_slope_has_no_cancellation_at_small_s(self):
        # at alpha = 1/2 the curve is -(1 - s) log 2, so the slope is log 2
        for s in (1e-3, 1.25e-3, 1e-6):
            assert _closed_form("TorusPureVsMixed", {"alpha": 0.5}, s)[1] == pytest.approx(
                LOG2, abs=1e-14)

    def test_pure_vs_mixed_psi_rows_at_subnormal_s(self, tmp_path):
        out = tmp_path / "psi.csv"
        scenario = Path(__file__).resolve().parents[1] / "scenarios" / "pure-vs-mixed.json"
        assert cli.main(["--command", "psi", "--scenario", str(scenario), "--n-max", "2",
                         "--s-grid=0:1e-310:3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        closed = [float(r[1]) for r in rows if r[3] == "TorusPureVsMixed"]
        assert len(closed) == 3
        assert closed == pytest.approx([math.log(0.7)] * 3, abs=1e-12)

    def test_commuting_opposite_sides_uses_flipped_pairing(self):
        # when the two mixtures straddle the balanced point, the relevant
        # unrestricted pairing is against the conjugated alternative
        lam, mu = 0.2, 0.7
        for s in (0.0, 0.3, 0.6, 1.0):
            expected = math.log(
                lam**s * (1 - mu) ** (1 - s) + (1 - lam) ** s * mu ** (1 - s)
            )
            assert closed_form_psi("Z2Commuting", {"lam": lam, "mu": mu}, s) == pytest.approx(
                expected, abs=1e-12
            )

    def test_commuting_same_side_keeps_pairing(self):
        lam, mu = 0.2, 0.4
        for s in (0.0, 0.5, 1.0):
            expected = math.log(lam**s * mu ** (1 - s) + (1 - lam) ** s * (1 - mu) ** (1 - s))
            assert closed_form_psi("Z2Commuting", {"lam": lam, "mu": mu}, s) == pytest.approx(
                expected, abs=1e-12
            )

    def test_commuting_relabel_symmetry(self):
        params = {"lam": 0.2, "mu": 0.7}
        flipped = {"lam": 0.8, "mu": 0.3}
        for s in (-0.5, 0.0, 0.5, 1.3):
            assert closed_form_psi("Z2Commuting", params, s) == pytest.approx(
                closed_form_psi("Z2Commuting", flipped, s), abs=1e-12
            )

    def test_two_pure_formula(self):
        lam, mu = 0.3, 0.6
        for s in (-0.5, 0.0, 0.5, 1.5, 2.0):
            expected = math.log(lam**s * mu ** (1 - s) + (1 - lam) ** s * (1 - mu) ** (1 - s))
            assert closed_form_psi("TorusTwoPure", {"lam": lam, "mu": mu}, s) == pytest.approx(
                expected, abs=1e-12
            )

    def test_interior_params_required(self):
        with pytest.raises(ValueError, match="inside"):
            closed_form_psi("TorusTwoPure", {"lam": 0.0, "mu": 0.5}, 0.5)
        with pytest.raises(ValueError, match="inside"):
            closed_form_psi("TorusPureVsMixed", {"alpha": 1.0}, 0.5)


class TestBranchCrossover:
    def test_balanced_alternative_crosses_at_zero(self):
        assert solve_branch_crossover(0.2, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_closed_form_agreement(self):
        got = solve_branch_crossover(0.2, 0.4)
        expected = math.log(2 / 3) / math.log(8 / 3)
        assert got == pytest.approx(expected, abs=1e-12)
        # the defining balance equation holds at the root
        assert ((0.8 * 0.4) / (0.2 * 0.6)) ** got == pytest.approx(0.4 / 0.6, abs=1e-12)

    def test_curve_differentiable_at_crossover(self):
        lam, mu = 0.2, 0.4
        s_star = solve_branch_crossover(lam, mu)
        fn = lambda s: closed_form_psi("Z2Commuting", {"lam": lam, "mu": mu}, s)
        # second-order one-sided differences, each from its own branch
        h = 1e-4
        left = (3.0 * fn(s_star) - 4.0 * fn(s_star - h) + fn(s_star - 2.0 * h)) / (2.0 * h)
        right = (-3.0 * fn(s_star) + 4.0 * fn(s_star + h) - fn(s_star + 2.0 * h)) / (2.0 * h)
        assert left == pytest.approx(right, abs=1e-6)

    def test_parameter_ordering_enforced(self):
        with pytest.raises(ValueError):
            solve_branch_crossover(0.4, 0.2)
        with pytest.raises(ValueError):
            solve_branch_crossover(0.3, 0.3)

    def test_nearly_equal_parameters_return(self):
        # the crossover sits near s = -1.8e5, where neighbouring floats are
        # further apart than any absolute bisection tolerance of 1e-12
        s_star = solve_branch_crossover(0.3, 0.300001)
        assert s_star == pytest.approx(math.log(0.300001 / 0.699999)
                                       / math.log(0.7 * 0.300001 / (0.3 * 0.699999)))
        assert s_star < -4500.0
        assert math.isfinite(closed_form_psi("Z2Commuting", {"lam": 0.3, "mu": 0.300001}, 0.5))


class TestFlatChernoffAlpha:
    def test_value_window(self):
        alpha = solve_flat_chernoff_alpha()
        assert 0.10 <= alpha <= 0.12
        assert alpha == pytest.approx(0.11, abs=0.01)

    def test_slope_vanishes_at_half(self):
        alpha = solve_flat_chernoff_alpha()
        curve = closed_form_curve("TorusPureVsMixed", {"alpha": alpha})
        assert abs(curve.slope(0.5)) <= 1e-8

    def test_chernoff_is_half_log_two(self):
        alpha = solve_flat_chernoff_alpha()
        curve = closed_form_curve("TorusPureVsMixed", {"alpha": alpha})
        assert chernoff_distance(curve) == pytest.approx(LOG2 / 2, abs=1e-8)


class TestConvergence:
    def test_two_pure_gap_zero(self):
        sc = make_scenario("TorusTwoPure", n_max=4, lam=0.3, mu=0.6)
        table = convergence_table(sc, s_grid=np.linspace(-0.5, 2.0, 11))
        for row in table.rows:
            assert abs(row.gap) < 1e-9

    def test_commuting_gap_within_log2_over_n(self):
        sc = make_scenario("Z2Commuting", n_max=5, lam=0.2, mu=0.7)
        table = convergence_table(sc, s_grid=np.linspace(0.0, 1.0, 5))
        for row in table.rows:
            assert -1e-12 <= row.gap <= LOG2 / row.n + 1e-12

    def test_pure_vs_mixed_multiplicity_envelope(self):
        sc = make_scenario("TorusPureVsMixed", n_max=8, alpha=0.3)
        table = convergence_table(sc, s_grid=np.array([0.5]))
        for row in table.rows:
            assert 0.0 <= row.gap <= math.log(row.n + 1) / row.n + 1e-12
        last = [r for r in table.rows if r.n == 8][0]
        assert last.gap <= math.log(9.0) / 8.0

    def test_gap_invariant_enforced(self):
        from symtest.asymptotics import ConvergenceRow

        with pytest.raises(ValueError, match="below"):
            ConvergenceTable((ConvergenceRow(1, 0.5, -1.0, 0.0, -1.0, True),))

    def test_csv_shape(self, tmp_path):
        sc = make_scenario("TorusTwoPure", n_max=2, lam=0.3, mu=0.6)
        path, out = tmp_path / "scenario.json", tmp_path / "table.csv"
        path.write_text(json.dumps({
            "name": sc.name, "rho0": "pure-qubit 0.3", "rho1": "pure-qubit 0.6",
            "group": {"type": "torus", "weights": [0, 1]}, "n_max": sc.n_max,
        }))
        assert cli.main(["--command", "convergence", "--scenario", str(path),
                         "--s-grid", "0:1:3", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,s,value,closed_form,gap,monotone"
        assert len(lines) == 1 + 2 * 3


class TestLimitFormulas:
    def test_power_sum_linear_case(self):
        # the power-one case collapses to the plain binomial theorem
        assert binomial_power_sum_limit(0.4, 0.6, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert binomial_power_sum(0.4, 0.6, 1.0, 50) == pytest.approx(1.0, abs=1e-10)

    def test_power_sum_nonpositive_power_max(self):
        assert binomial_power_sum_limit(0.3, 0.3, -1.0) == pytest.approx(0.3)
        assert binomial_power_sum_limit(0.2, 0.7, 0.0) == pytest.approx(0.7)

    def test_power_sum_convergence(self):
        a, b, s = 0.3, 0.7, 0.5
        limit = binomial_power_sum_limit(a, b, s)
        assert limit == pytest.approx(math.sqrt(a**2 + b**2), abs=1e-12)
        assert abs(binomial_power_sum(a, b, s, 200) - limit) < 0.02
        assert abs(binomial_power_sum(a, b, s, 400) - limit) < 0.02

    def test_half_sum_branches(self):
        assert half_binomial_sum_limit(0.3, 0.3) == pytest.approx(0.6)
        assert half_binomial_sum_limit(0.2, 0.8) == pytest.approx(1.0)
        assert half_binomial_sum_limit(0.8, 0.2) == pytest.approx(0.8)

    def test_half_sum_convergence(self):
        limit = half_binomial_sum_limit(0.8, 0.2)
        assert abs(half_binomial_sum(0.8, 0.2, 400) - limit) < 0.02


class TestStrongConverseWindow:
    def test_normalized_curve_below_limit_with_invariant_support(self):
        # on [1, 2] the per-copy curve climbs toward its limit from below
        # whenever the alternative's support is invariant
        for kind, params in (
            ("TorusPureVsMixed", {"alpha": 0.3}),
            ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
        ):
            sc = make_scenario(kind, **params)
            for n in (1, 2, 4):
                ev = PsiEvaluator(*twirled_pair(sc.rho0, sc.rho1, sc.action, n))
                for s in (1.0, 1.25, 1.5, 2.0):
                    limit = closed_form_psi(kind, params, s)
                    assert ev.psi(s) / n <= limit + 1e-8

    def test_scalar_oracle_climbs_to_limit(self):
        from symtest.oracle import block_scalar_oracle

        params = {"lam": 0.2, "mu": 0.7}
        limit = closed_form_psi("Z2Commuting", params, 1.7)
        values = [
            math.log(block_scalar_oracle("Z2Commuting", params, n, 1.7)) / n
            for n in (2, 8, 64, 512)
        ]
        for previous, current in zip(values, values[1:]):
            assert current >= previous - 1e-12
        assert values[-1] == pytest.approx(limit, abs=1e-6)


class TestClosedFormSlope:
    @pytest.mark.parametrize("kind,params", [
        ("TorusTwoPure", {"lam": 0.3, "mu": 0.6}),
        ("TorusPureVsMixed", {"alpha": 0.3}),
        ("Z2Commuting", {"lam": 0.2, "mu": 0.4}),
        ("Z2Commuting", {"lam": 0.7, "mu": 0.1}),
        ("Z2Commuting", {"lam": 0.0, "mu": 0.3}),
    ])
    def test_slope_matches_central_difference(self, kind, params):
        # every branch: s = -0.7 sits below the Z2 crossover and on the s <= 0
        # branch of pure-vs-mixed; no point is within h of a branch change
        curve = closed_form_curve(kind, params)
        h = 1e-5
        for s in (-0.7, -0.2, 0.3, 0.5, 1.0, 1.7):
            central = (curve.evaluate(s + h) - curve.evaluate(s - h)) / (2.0 * h)
            assert curve.slope(s) == pytest.approx(central, abs=1e-8)


class TestMeanQuantities:
    def test_pure_vs_mixed_entropy_rate(self):
        assert closed_form_relative_entropy("TorusPureVsMixed", {"alpha": 0.3}) == pytest.approx(
            -(math.log(0.3) + math.log(0.7)) / 2, abs=1e-6
        )

    def test_two_pure_entropy_rate_with_infinite_unrestricted(self):
        sc = make_scenario("TorusTwoPure", lam=0.3, mu=0.6)
        expected = 0.3 * math.log(0.3 / 0.6) + 0.7 * math.log(0.7 / 0.4)
        assert closed_form_relative_entropy(sc.kind, sc.params) == pytest.approx(expected, abs=1e-6)
        assert relative_entropy(sc.rho0, sc.rho1) == math.inf

    def test_commuting_chernoff_is_min_over_pairings(self):
        sc = make_scenario("Z2Commuting", lam=0.2, mu=0.7)
        mean = chernoff_distance(closed_form_curve(sc.kind, sc.params))
        c_same = chernoff_distance(psi_curve(sigma_state(0.2), sigma_state(0.7)))
        c_flip = chernoff_distance(psi_curve(sigma_state(0.2), sigma_state(0.3)))
        assert mean == pytest.approx(min(c_same, c_flip), abs=1e-8)
        assert mean < c_same - 1e-6

    # the mean rows of the CLI: the closed form's value for a scenario with a
    # kind, the command's own n_max row, byte for byte, for one without

    def cli_tables(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        out = {}
        for command, extra in (("chernoff", []), ("stein", []),
                               ("hoeffding", ["--r-grid", "0:0.3:4"])):
            target = tmp_path / f"{command}.csv"
            assert cli.main(["--command", command, "--scenario", str(path),
                             "--out", str(target), *extra]) == 0
            out[command] = [line.split(",") for line in target.read_text().splitlines()[1:]]
        return out

    def test_generic_scenario_flagged_as_estimate(self, rng, tmp_path):
        dense = [[[[z.real, z.imag] for z in row] for row in random_density(2, rng=rng)]
                 for _ in range(2)]
        sign_flip = [[[[1, 0], [0, 0]], [[0, 0], [s, 0]]] for s in (1, -1)]
        tables = self.cli_tables(tmp_path, {
            "name": "generic", "rho0": dense[0], "rho1": dense[1],
            "group": {"type": "finite", "unitaries": sign_flip}, "n_max": 3})
        for command in ("chernoff", "stein"):
            *_, last, mean = tables[command]
            assert last[:2] == ["3", "twirled-per-copy"]
            assert mean == ["0", "mean (best-n estimate)", last[2]]
        last = [row for row in tables["hoeffding"] if row[0] == "3"]
        means = [row for row in tables["hoeffding"] if row[0] == "0"]
        assert len(last) == len(means) == 4
        assert means == [["0", r, h, "mean (best-n estimate)"] for _, r, h, _ in last]

    def test_closed_form_scenario_prints_the_closed_form(self, tmp_path):
        shipped = Path(__file__).resolve().parent.parent / "scenarios" / "two-commuting.json"
        doc = json.loads(shipped.read_text())
        tables = self.cli_tables(tmp_path, {**doc, "n_max": 3})
        curve = closed_form_curve(doc["kind"], doc["params"])
        chernoff, stein = tables["chernoff"][-1], tables["stein"][-1]
        assert chernoff[:2] == stein[:2] == ["0", "mean"]
        assert float(chernoff[2]) == chernoff_distance(curve)
        assert float(stein[2]) == closed_form_relative_entropy(doc["kind"], doc["params"])
        means = [row for row in tables["hoeffding"] if row[0] == "0"]
        assert [row[3] for row in means] == ["mean"] * 4
        assert [float(row[2]) for row in means] == [
            hoeffding_distance(curve, float(r)) for r in np.linspace(0.0, 0.3, 4)]


class TestSteinGap:
    def test_pure_vs_mixed_accounting(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        for n in (1, 2, 4):
            report = stein_gap_check(sc, n)
            assert report.ok, report.summary()

    def test_infinite_single_copy_skipped(self):
        sc = make_scenario("TorusTwoPure", lam=0.3, mu=0.6)
        report = stein_gap_check(sc, 2)
        assert report.ok
        assert len(report.entries) == 1  # informational only


class TestFidelityFloor:
    def test_invariant_alternative_floor_and_doubling(self):
        sc = make_scenario("TorusPureVsMixed", alpha=0.3)
        floor = math.log(fidelity(sc.rho0, sc.rho1))
        values = {}
        for n in (1, 2, 4):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            values[n] = math.log(fidelity(*pair)) / n
            assert values[n] >= floor - 1e-9
        assert values[2] <= values[1] + 1e-9
        assert values[4] <= values[2] + 1e-9


class TestScenarioValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            Scenario(
                name="bad",
                rho0=diag_qubit(0.3),
                rho1=diag_qubit(0.4),
                action=torus_action(),
                n_max=2,
                params={},
                kind=None,
            ).__class__(
                name="bad",
                rho0=DensityOperator(np.eye(3) / 3),
                rho1=diag_qubit(0.4),
                action=torus_action(),
                n_max=2,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            make_scenario("Nope", lam=0.1)

    def test_constructor_matrices(self):
        assert_allclose(sigma_state(0.2).mat,
                        np.array([[0.5, -0.3], [-0.3, 0.5]]), atol=1e-15)
        assert_allclose(pure_qubit(0.3).mat[0, 1], math.sqrt(0.21), atol=1e-15)
        assert np.trace(sigma_state(0.2).mat @ sigma_state(0.2).mat).real < 1.0
        assert_allclose(np.linalg.eigvalsh(sigma_state(0.2).mat), [0.2, 0.8], atol=1e-12)

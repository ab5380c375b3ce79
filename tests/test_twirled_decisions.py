"""The decision quantities of a twirled pair read part by part
(discrimination.TwirledPair): the Schur-Weyl blocks of a qubit pair against
the dense twirled pair, which stays the oracle, and the route `beta-eps`
takes."""

import itertools
import json
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import symtest.groups as groups
from symtest.cli import main
from symtest.discrimination import (
    TwirledPair,
    beta_eps,
    stein_a_grid,
    strong_converse_bound,
    threshold_errors,
)
from symtest.divergences import PsiEvaluator, TwirledSweep
from symtest.groups import GroupAction, twirled_pair
from symtest.oracle import random_density

from helpers import breakpoint_dual
from test_schur_weyl import HADAMARD, PAIRS, SIGN_FLIP, TRIVIAL, scenario

RATES = np.linspace(-2.0, 2.0, 81)
EPS = (0.05, 0.1, 0.3)

STATES = {
    "two-pure": scenario("two-pure")[:2],
    "pure-vs-mixed": scenario("pure-vs-mixed")[:2],
    "two-commuting": scenario("two-commuting")[:2],
    "A": PAIRS["A"],
}
ACTIONS = {
    "torus [0, 1]": GroupAction.torus([0, 1]),
    "torus [2, 2]": GroupAction.torus([2, 2]),
    "sign flip": SIGN_FLIP,
    "trivial": TRIVIAL,
    "{I, H}": HADAMARD,
}
# Every case meets the dense pair within 2e-14 up to n = 8, but a
# noncommuting dense pair at n = 8 costs seconds per case; the benchmark's
# case runs to n = 8, the others to n = 6.
N_MAX = {("A", "sign flip"): 8}


@pytest.mark.parametrize("action", sorted(ACTIONS))
@pytest.mark.parametrize("state", sorted(STATES))
def test_block_decisions_match_the_dense_pair(state, action):
    rho0, rho1 = STATES[state]
    act = ACTIONS[action]
    sweep = TwirledSweep(rho0, rho1, act)
    for n in range(1, N_MAX.get((state, action), 6) + 1):
        block = TwirledPair(sweep.pair(n))
        pair = twirled_pair(rho0, rho1, act, n)
        assert (block.atoms is None) == (TwirledPair([(1, *pair)]).atoms is None), n
        for eps in EPS:
            assert block.beta_eps(eps) == pytest.approx(beta_eps(*pair, eps), rel=0, abs=1e-12)
        grid = n * stein_a_grid(0.3)
        assert_allclose(strong_converse_bound(block.evaluator, 0.1, grid),
                        strong_converse_bound(PsiEvaluator(*pair), 0.1, grid), rtol=0, atol=1e-12)
        assert_allclose(block.threshold_errors(RATES), threshold_errors(*pair, RATES),
                        rtol=0, atol=1e-12)


def test_bracketed_dual_meets_the_breakpoint_dual_on_commuting_pairs():
    # a commuting pair's dual is piecewise linear and peaks at a breakpoint
    # of its atoms; the bracket stops within 1e-14 of beta_eps relative, or
    # the dual is read at the breakpoints of the last bracket, so it meets
    # the exact breakpoint maximum within rounding (worst seen 8.7e-15)
    commuting = 0
    for state, action in itertools.product(STATES, ACTIONS):
        sweep = TwirledSweep(*STATES[state], ACTIONS[action])
        for n in range(1, N_MAX.get((state, action), 6) + 1):
            pair = TwirledPair(sweep.pair(n))
            if pair.atoms is None:
                continue
            commuting += 1
            w0, w1, o = pair.atoms
            for eps in np.linspace(0.02, 0.98, 25):
                assert pair.beta_eps(eps) == pytest.approx(
                    breakpoint_dual(w0 * o, w1 * o, eps), rel=1e-13, abs=0), (state, action, n, eps)
    assert commuting == 49


@pytest.mark.parametrize("a, n", [(0.999, 4), (0.95, 10), (0.95, 12)])
def test_small_n_copy_beta_keeps_its_relative_accuracy(a, n):
    # over the eps grid beta_eps of these twirled n-copy pairs falls to
    # 2e-14, 3e-15 and 9e-18, where the bracket's absolute 1e-14 gap alone
    # certifies little or nothing; read at the bracketed breakpoints, the
    # dual keeps its relative accuracy (worst seen 1.4e-14)
    rho0, rho1 = np.diag([a, 1.0 - a]), np.diag([1.0 - a, a])
    pair = TwirledPair(TwirledSweep(rho0, rho1, GroupAction.torus([0, 1])).pair(n))
    w0, w1, o = pair.atoms
    small = 0
    for eps in np.linspace(0.02, 0.98, 25):
        expected = breakpoint_dual(w0 * o, w1 * o, eps)
        small += 1e-14 < expected < 1e-12
        assert pair.beta_eps(eps) == pytest.approx(expected, rel=1e-13, abs=0), eps
    assert small


@pytest.mark.parametrize("state", sorted(STATES))
def test_twirled_beta_eps_is_never_below_the_unrestricted_one(state):
    # a twirled test is a test, so restricting the tests never lowers beta_eps;
    # the bracketed dual is certified within 1e-14 of its maximum
    rho0, rho1 = STATES[state]
    sweeps = {action: TwirledSweep(rho0, rho1, act) for action, act in ACTIONS.items()}
    for n in range(1, 7):
        free = TwirledPair(sweeps["trivial"].pair(n))
        for action in sorted(set(ACTIONS) - {"trivial"}):
            pair = TwirledPair(sweeps[action].pair(n))
            for eps in EPS:
                assert pair.beta_eps(eps) >= free.beta_eps(eps) - 1e-9, (action, n, eps)


def test_each_n_takes_its_atoms_and_its_evaluator_once(monkeypatch):
    pair = TwirledPair(TwirledSweep(*STATES["two-pure"], ACTIONS["torus [0, 1]"]).pair(5))
    calls = []
    build, atoms = PsiEvaluator.of_parts.__func__, PsiEvaluator.atoms
    monkeypatch.setattr(PsiEvaluator, "of_parts",
                        classmethod(lambda cls, parts: calls.append("build") or build(cls, parts)))
    monkeypatch.setattr(PsiEvaluator, "atoms", lambda ev: calls.append("atoms") or atoms(ev))
    for eps in EPS:
        pair.beta_eps(eps)
    pair.threshold_errors(RATES)
    strong_converse_bound(pair.evaluator, 0.1, 5 * stein_a_grid(0.3))
    assert calls == ["build", "atoms"]


def test_a_qutrit_pair_is_the_one_part_of_the_dense_pair():
    rng = np.random.default_rng(7)
    rho0, rho1 = (random_density(3, rng=rng) for _ in range(2))
    action = GroupAction.torus([0, 1, 2])
    sweep = TwirledSweep(rho0, rho1, action)
    for n in (1, 2):
        block = TwirledPair(sweep.pair(n))
        pair = twirled_pair(rho0, rho1, action, n)
        assert [mult for mult, _, _ in block.parts] == [1]
        assert block.beta_eps(0.1) == beta_eps(*pair, 0.1)
        assert np.array_equal(block.threshold_errors(RATES), threshold_errors(*pair, RATES))


@pytest.fixture
def twirled_pair_calls(monkeypatch):
    """Calls of groups.twirled_pair, counted in every module that binds it."""
    calls = []
    real = groups.twirled_pair

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("symtest") and getattr(module, "twirled_pair", None) is real:
            monkeypatch.setattr(module, "twirled_pair", counted)
    return calls


def run_beta_eps(tmp_path, doc) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return main(["--scenario", str(path), "--command", "beta-eps", "--out",
                 str(tmp_path / "out.csv")])


def test_beta_eps_reads_qubit_pairs_off_their_blocks(tmp_path, twirled_pair_calls):
    qubit = {"name": "qubit", "rho0": "pure-qubit 0.3", "rho1": "diag 0.4",
             "group": {"type": "finite", "unitaries": [
                 [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                 [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
             ]}, "n_max": 4}
    assert run_beta_eps(tmp_path, qubit) == 0
    assert twirled_pair_calls == []
    qutrit = {"name": "qutrit", "rho0": [[[1 / 3, 0]] * 3] * 3,
              "rho1": [[[0.5, 0], [0, 0], [0, 0]], [[0, 0], [0.3, 0], [0, 0]],
                       [[0, 0], [0, 0], [0.2, 0]]],
              "group": {"type": "torus", "weights": [0, 1, 2]}, "n_max": 2}
    assert run_beta_eps(tmp_path, qutrit) == 0
    assert twirled_pair_calls == [1, 2]

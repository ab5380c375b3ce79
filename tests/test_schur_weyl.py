"""The Schur-Weyl block route of qubit pairs (divergences.TwirledSweep)
against the dense twirled pair, the closed block data of the oracle and
exact identities."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symtest.divergences as divergences
import symtest.linalg as linalg
import symtest.schur_weyl as schur_weyl
import symtest.verify as verify
from symtest.asymptotics import (
    Scenario,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    stein_gap_check,
)
from symtest.cli import main, parse_scenario
from symtest.discrimination import TwirledPair, beta_eps, threshold_errors
from symtest.divergences import (
    NEG_INF,
    PsiEvaluator,
    TwirledSweep,
    default_s_grid,
    lieb_bound_check,
)
from symtest.errors import DimensionError
from symtest.groups import GroupAction, twirled_pair
from symtest.linalg import DensityOperator
from symtest.oracle import block_scalar_oracle, random_density
from helpers import seeded_pairs

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GRID = default_s_grid()

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
SIGN_FLIP = GroupAction.finite([np.eye(2), Z])
PAULI = GroupAction.finite([phase * p for phase in (1, -1, 1j, -1j) for p in (np.eye(2), X, Y, Z)])
HADAMARD = GroupAction.finite([np.eye(2), H])
TRIVIAL = GroupAction.trivial(2)


PAIRS = seeded_pairs(0)


def scenario(name):
    sc = parse_scenario((SCENARIOS / f"{name}.json").read_text())
    return sc.rho0, sc.rho1, sc.action


def per_copy_gap(ev_a, n_a, ev_b, n_b):
    """Largest |a - b| / max(1, |a|) of a = psi_{n_a} / n_a and b = psi_{n_b} / n_b
    over the default grid, after checking that both are -inf at the same points."""
    a, b = ev_a.psi(GRID) / n_a, ev_b.psi(GRID) / n_b
    assert np.array_equal(a == NEG_INF, b == NEG_INF)
    finite = a != NEG_INF
    return float(np.max(np.abs(a[finite] - b[finite]) / np.maximum(1.0, np.abs(a[finite])),
                        initial=0.0))


def twirled(rho0, rho1, action, n):
    """The PsiEvaluator of the twirled n-copy pair, off a sweep of its own."""
    return TwirledSweep(rho0, rho1, action).evaluator(n)


def per_state(parts):
    """The blocks (m_t, block t) of each state of the parts (m_t, x0, x1)."""
    return [(mult, x0) for mult, x0, _ in parts], [(mult, x1) for mult, _, x1 in parts]


def smallest_kept(rho0, rho1, action, n):
    """The smallest eigenvalue either twirled n-copy state keeps."""
    return min(x.spectrum.support().eigenvalues.min(initial=np.inf)
               for _, x0, x1 in TwirledSweep(rho0, rho1, action).pair(n) for x in (x0, x1))


# The trivial group and equal torus weights leave rho^(x)n as it is: the
# dense route decomposes it as one undivided 2^n block, and its eigh error
# passes 1e-12 from n = 6 on (pair A, n = 7: 1.4e-10 from n psi_1 and from a
# 40-digit reference).  Those cases meet the dense route up to n = 5, and
# test_trivial_twirl_is_n_copies checks them against the exact n psi_1.
DENSE_CASES = {
    "pure-vs-mixed": (*scenario("pure-vs-mixed"), 8),
    "two-commuting": (*scenario("two-commuting"), 8),
    "two-pure": (*scenario("two-pure"), 8),
    "A sign flip": (*PAIRS["A"], SIGN_FLIP, 8),
    "B sign flip": (*PAIRS["B"], SIGN_FLIP, 8),
    "A Pauli group": (*PAIRS["A"], PAULI, 8),
    "A torus [3, 4]": (*PAIRS["A"], GroupAction.torus([3, 4]), 8),
    "B {I, H}": (*PAIRS["B"], HADAMARD, 8),
    "A torus [2, 2]": (*PAIRS["A"], GroupAction.torus([2, 2]), 5),
    "B torus [2, 2]": (*PAIRS["B"], GroupAction.torus([2, 2]), 5),
    "A trivial": (*PAIRS["A"], TRIVIAL, 5),
    "B trivial": (*PAIRS["B"], TRIVIAL, 5),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_block_route_matches_the_dense_route(case):
    rho0, rho1, action, n_max = DENSE_CASES[case]
    for n in range(1, n_max + 1):
        if smallest_kept(rho0, rho1, action, n) <= 1e-9:
            continue
        dense = PsiEvaluator(*twirled_pair(rho0, rho1, action, n))
        block = twirled(rho0, rho1, action, n)
        assert per_copy_gap(dense, n, block, n) <= 1e-12, n
        for s in (0.3, 1.0):
            assert block.slope(s) == pytest.approx(dense.slope(s), rel=1e-10, abs=1e-12)
        assert block.relative_entropy() == pytest.approx(dense.relative_entropy(), rel=1e-10)


@pytest.mark.xfail(strict=True, reason="FOUND: the dense route loses accuracy on large "
                   "undivided blocks (pair A under {I, H}: 5.5e-11 at n = 7)")
def test_dense_route_resolves_pair_a_under_the_hadamard_group():
    rho0, rho1 = PAIRS["A"]
    dense = PsiEvaluator(*twirled_pair(rho0, rho1, HADAMARD, 7))
    assert per_copy_gap(dense, 7, twirled(rho0, rho1, HADAMARD, 7), 7) <= 1e-12


@pytest.mark.parametrize("action", [TRIVIAL, GroupAction.torus([2, 2])], ids=["trivial", "torus [2, 2]"])
def test_trivial_twirl_is_n_copies(action):
    # psi_n = n psi_1 wherever no n-copy eigenvalue falls to the cut
    pairs = [scenario(name)[:2] for name in ("pure-vs-mixed", "two-commuting", "two-pure")]
    pairs += [PAIRS["A"], PAIRS["B"], (sigma_state(0.3), sigma_state(0.6))]
    for rho0, rho1 in pairs:
        single = PsiEvaluator(rho0, rho1)
        for n in range(1, 13):
            if smallest_kept(rho0, rho1, action, n) <= 1e-9:
                break
            assert per_copy_gap(single, 1, twirled(rho0, rho1, action, n), n) <= 1e-13, n


@pytest.mark.parametrize("kind, params", [
    ("TorusPureVsMixed", {"alpha": 0.3}),
    ("TorusTwoPure", {"lam": 0.3, "mu": 0.6}),
    ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
])
def test_block_route_matches_the_scalar_oracle(kind, params):
    sc = make_scenario(kind, **params)
    for n in range(1, 13):
        got = twirled(sc.rho0, sc.rho1, sc.action, n).psi(GRID)
        want = np.array([math.log(block_scalar_oracle(kind, sc.params, n, s)) for s in GRID.tolist()])
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), n


def oracle_per_copy_gap(kind, params, n):
    """Largest |a - b| / max(1, |b|) of the block route's per-copy psi a and
    the scalar oracle's b over the default grid."""
    sc = make_scenario(kind, **params)
    got = twirled(sc.rho0, sc.rho1, sc.action, n).psi(GRID) / n
    want = np.array([math.log(block_scalar_oracle(kind, sc.params, n, s)) / n for s in GRID.tolist()])
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


# Each block is cut at its own size and largest eigenvalue: a cut at 2^n eps
# times the largest eigenvalue of the whole state, or an overlap floor that
# grows with 2^n, was 1e-2 off here at n = 30 and -inf at n = 60.  The sign
# flip at n = 100 is left out: it is 3.6e-12 off, from the binomial Sym^m.
@pytest.mark.parametrize("kind, params, n", [
    pytest.param(kind, params, n, id=f"{kind}-{n}")
    for kind, params, ns in [("TorusPureVsMixed", {"alpha": 0.3}, (30, 40, 60, 100)),
                             ("TorusTwoPure", {"lam": 0.3, "mu": 0.6}, (30, 40, 60, 100)),
                             ("Z2Commuting", {"lam": 0.2, "mu": 0.7}, (30, 40, 60))]
    for n in ns
])
def test_block_route_matches_the_scalar_oracle_at_large_n(monkeypatch, kind, params, n):
    monkeypatch.setenv("SYMTEST_DIM_CAP", str(2**n))
    assert oracle_per_copy_gap(kind, params, n) <= 1e-12


def test_small_sign_flip_eigenvalues_are_kept_at_the_default_cap():
    # 0.005 against 0.6 at n = 12: the blocks hold eigenvalues far below
    # 2^12 eps times the state's largest one, and above that of their block
    assert oracle_per_copy_gap("Z2Commuting", {"lam": 0.005, "mu": 0.6}, 12) <= 1e-12


def test_pinched_pure_state_with_a_tiny_weight_against_the_maximally_mixed_state():
    # the pinched pure state has the Dicke eigenvalues C(n, k) (1 - p)^(n-k) p^k
    # and the twirl of diag 0.5 is 2^-n I, so psi_n(s) is the log of
    # sum_k [C(n, k) (1 - p)^(n-k) p^k]^s 2^(-n(1-s)); at n = 4 the smallest
    # eigenvalue is 1e-28, which a cut at 1e-12 dropped
    p = 1e-7
    rho0, rho1, action = pure_qubit(p), diag_qubit(0.5), GroupAction.torus([0, 1])
    for n in range(1, 7):
        logs = np.array([math.log(math.comb(n, k)) + (n - k) * math.log1p(-p) + k * math.log(p)
                         for k in range(n + 1)])
        terms = np.multiply.outer(GRID, logs)
        top = terms.max(axis=1)
        want = (top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
                - n * (1.0 - GRID) * math.log(2.0)) / n
        got = twirled(rho0, rho1, action, n).psi(GRID) / n
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), n


def test_sign_flip_keeps_the_exact_atoms_of_a_diagonal_pair():
    # the sign flip leaves a diagonal pair as it is, so psi_n = n psi_1; the
    # n-copy eigenvalue 1e-13^n is an exact 1x1 component of its block, which
    # a cut against the block's largest eigenvalue would drop
    rho0, rho1 = diag_qubit(1e-13), diag_qubit(0.5)
    single = PsiEvaluator(rho0, rho1)
    for n in range(1, 7):
        assert per_copy_gap(single, 1, twirled(rho0, rho1, SIGN_FLIP, n), n) <= 1e-12, n


@pytest.mark.parametrize("n", [*range(1, 13), 20, 26])
def test_blocks_fill_the_n_copy_space(monkeypatch, n):
    monkeypatch.setenv("SYMTEST_DIM_CAP", str(2**26))
    for blocks in per_state(TwirledSweep(*PAIRS["A"], SIGN_FLIP).pair(n)):
        assert [x.spectrum.eigenvalues.size for _, x in blocks] == list(range(n + 1, 0, -2))
        assert sum(mult * x.spectrum.eigenvalues.size for mult, x in blocks) == 2**n
        assert sum(mult * float(x.spectrum.eigenvalues.sum()) for mult, x in blocks) == pytest.approx(1.0, abs=1e-14)


KEEP_CASES = {
    # rho1 keeps the exact n * 1e-300 of the pinched Dicke state with one 0
    "pure-qubit 1e-300": (pure_qubit(0.3), pure_qubit(1e-300), GroupAction.torus([0, 1]), 4),
    # every entry of a diagonal pair is an exact 1x1 component
    "diag 1e-80": (diag_qubit(0.3), diag_qubit(1e-80), GroupAction.torus([0, 1]), 3),
    "diag under the sign flip": (diag_qubit(0.05), diag_qubit(0.5), SIGN_FLIP, 11),
    # the sign flip twirls one copy to its diagonal
    "two-commuting": (*scenario("two-commuting"), 3),
    "pure-vs-mixed": (*scenario("pure-vs-mixed"), 6),
    "A torus [0, 1]": (*PAIRS["A"], GroupAction.torus([0, 1]), 6),
    "A Pauli group": (*PAIRS["A"], PAULI, 4),
}


def assert_exact_are_lone_components(spec):
    """Each eigenpair cut at 0 is a 1x1 component of its block: its
    eigenvector is a unit basis vector e_k, and no other eigenvector has an
    entry at k."""
    v = spec.eigenvectors
    for j in np.flatnonzero(spec.cut == 0):
        (k,) = np.flatnonzero(v[:, j])
        assert v[k, j] == 1.0
        assert np.count_nonzero(v[k]) == 1


@pytest.mark.parametrize("case", sorted(KEEP_CASES))
def test_keeps_and_marks_exact_what_the_dense_route_does(case):
    rho0, rho1, action, n_max = KEEP_CASES[case]
    for n in range(1, n_max + 1):
        dense = twirled_pair(rho0, rho1, action, n)
        for rho, blocks in zip(dense, per_state(TwirledSweep(rho0, rho1, action).pair(n))):
            want = rho.spectrum.support()
            kept = [x.spectrum.support() for _, x in blocks]
            got_w = np.concatenate([np.repeat(s.eigenvalues, mult) for (mult, _), s in zip(blocks, kept)])
            order = np.argsort(got_w, kind="stable")
            assert got_w.size == want.eigenvalues.size, n
            assert np.allclose(got_w[order], want.eigenvalues, rtol=1e-12, atol=0.0), n
            for _, x in blocks:
                assert_exact_are_lone_components(x.spectrum)
                if action.kind == "torus" and action.weights[0] != action.weights[1]:
                    assert (x.spectrum.cut == 0).all(), n


def test_block_route_keeps_the_exact_atom_the_dense_route_cuts():
    # the pinched Dicke state with one 0 has the eigenvalue n mu (1 - mu)^(n-1)
    # = n * 1e-300; a cut at 2^n * eps of the whole matrix would drop it, but
    # the dense route holds it in an n x n component cut at its own size and
    # the block route reads it off a 1x1 component of block 0, so both keep it
    rho0, rho1, action = pure_qubit(0.3), pure_qubit(1e-300), GroupAction.torus([0, 1])
    for n in (2, 3, 4):
        _, dense = twirled_pair(rho0, rho1, action, n)
        assert np.allclose(dense.spectrum.support().eigenvalues, [n * 1e-300, 1.0], rtol=1e-12, atol=0.0)
        _, blocks = per_state(TwirledSweep(rho0, rho1, action).pair(n))
        kept = blocks[0][1].spectrum.support()
        assert (kept.cut == 0).all()
        assert_exact_are_lone_components(kept)
        assert np.allclose(kept.eigenvalues, [n * 1e-300, 1.0], rtol=1e-12, atol=0.0)
        assert all(x.spectrum.support().eigenvalues.size == 0 for _, x in blocks[1:])


def test_qutrit_pairs_take_the_dense_route_unchanged():
    rng = np.random.default_rng(7)
    rho0, rho1 = (DensityOperator(random_density(3, rng=rng)) for _ in range(2))
    shift = np.roll(np.eye(3), 1, axis=0)
    for action in (GroupAction.finite([np.eye(3), shift, shift @ shift]), GroupAction.torus([0, 1, 2])):
        for n in (1, 2, 3):
            dense = PsiEvaluator(*twirled_pair(rho0, rho1, action, n))
            block = twirled(rho0, rho1, action, n)
            assert np.array_equal(dense.psi(GRID), block.psi(GRID))
            assert dense.slope(0.5) == block.slope(0.5)
            for a, b in zip(dense.atoms(), block.atoms()):
                assert np.array_equal(a, b)


def test_dimension_cap_raises_at_the_same_n_with_the_same_message(monkeypatch):
    monkeypatch.setenv("SYMTEST_DIM_CAP", "8")
    rho0, rho1, action = scenario("pure-vs-mixed")
    twirled(rho0, rho1, action, 3)
    messages = []
    for build in (lambda: twirled_pair(rho0, rho1, action, 4),
                  lambda: twirled(rho0, rho1, action, 4)):
        with pytest.raises(DimensionError) as info:
            build()
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "tensor power dimension 16 exceeds cap 8"


def test_block_route_forms_no_dense_object(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the block route built a dense n-copy operator")

    monkeypatch.setattr(divergences, "twirled_pair", refuse)
    monkeypatch.setattr(linalg, "kron", refuse)
    monkeypatch.setattr(linalg, "_kron", refuse)
    monkeypatch.setenv("SYMTEST_DIM_CAP", str(2**20))
    for action in (GroupAction.torus([0, 1]), SIGN_FLIP):
        tracemalloc.start()
        twirled(*PAIRS["A"], action, 20).psi(GRID)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        # one float64 vector of the 2^20-dimensional space would take 8 MiB
        assert peak < 2**21


class DenseRoute(Exception):
    pass


def test_psi_only_readers_take_the_block_route_for_qubits(monkeypatch):
    # every reader of psi alone takes a TwirledSweep: the Schur-Weyl blocks
    # for qubits, the dense twirled pair only for d > 2
    def refuse(*args, **kwargs):
        raise DenseRoute

    monkeypatch.setattr(divergences, "twirled_pair", refuse)
    monkeypatch.setattr(verify, "twirled_pair", refuse)
    scenarios = verify.builtin_scenarios()
    sc = scenarios["pure-vs-mixed"]
    assert lieb_bound_check(sc.rho0, sc.rho1, sc.action, 4).ok
    table = verify._twirled_table(scenarios)

    def evaluators(key, n):
        return table(key, n).evaluator

    assert verify.psi_sandwich_reports(scenarios, evaluators, 4)[-1].ok
    assert verify.additivity_report(evaluators).ok
    assert verify.closed_form_bracket_report(scenarios, evaluators, 4).ok
    assert all(rep.ok for rep in verify.stein_reports(scenarios, evaluators, 4))
    assert verify.equality_experiment_report().ok
    assert stein_gap_check(sc, 4).ok
    rng = np.random.default_rng(7)
    rho0, rho1 = (DensityOperator(random_density(3, rng=rng)) for _ in range(2))
    qutrit = Scenario("qutrit", rho0, rho1, GroupAction.torus([0, 1, 2]))
    with pytest.raises(DenseRoute):
        lieb_bound_check(rho0, rho1, qutrit.action, 2)
    with pytest.raises(DenseRoute):
        stein_gap_check(qutrit, 2)


def test_verify_builds_each_twirled_evaluator_once(monkeypatch):
    # each (sweep, n) hands out its parts once, and each parts list builds
    # one evaluator; the objects are held, so no id is reused
    handed, built = [], []
    pair, of_parts = TwirledSweep.pair, PsiEvaluator.of_parts.__func__

    def counted_pair(sweep, n):
        handed.append((sweep, n))
        return pair(sweep, n)

    def counted_build(cls, parts):
        built.append(parts)
        return of_parts(cls, parts)

    monkeypatch.setattr(TwirledSweep, "pair", counted_pair)
    monkeypatch.setattr(PsiEvaluator, "of_parts", classmethod(counted_build))
    verify.run_verify(n_max=3)
    assert handed and len(handed) == len({(id(sweep), n) for sweep, n in handed})
    assert built and len(built) == len({id(parts) for parts in built})


def test_verify_beta_eps_reports_take_the_block_route(monkeypatch):
    # both beta_eps reports read the TwirledPair of the sweep, no dense pair
    def refuse(*args, **kwargs):
        raise DenseRoute

    monkeypatch.setattr(divergences, "twirled_pair", refuse)
    monkeypatch.setattr(verify, "twirled_pair", refuse)
    scenarios = verify.builtin_scenarios()
    table = verify._twirled_table(scenarios)
    assert verify.beta_eps_converse_report(scenarios, table).ok
    assert verify.beta_eps_shape_report(table).ok


@pytest.fixture
def sym_power_calls(monkeypatch):
    """The m of each Sym^m table the Schur-Weyl route builds."""
    calls = []
    real = schur_weyl._sym_powers
    monkeypatch.setattr(schur_weyl, "_sym_powers", lambda a, m: calls.append(m) or real(a, m))
    return calls


def test_a_sweep_builds_each_block_once(sym_power_calls):
    # block t of n is det^t G_{n-2t}: n = 1..N builds G_0..G_N of each state
    # once, N + 1 blocks, however often each n is read
    sweep = TwirledSweep(*PAIRS["A"], SIGN_FLIP)
    for n in range(1, 10):
        TwirledPair(sweep.pair(n)).beta_eps(0.1)
        sweep.evaluator(n).psi(GRID)
        assert len(sym_power_calls) == 2 * len(set(sym_power_calls)), n
    sweep.evaluator(4)
    assert sorted(sym_power_calls) == sorted(2 * list(range(10)))


def test_a_pure_state_builds_no_block_past_t_0(sym_power_calls):
    sweep = TwirledSweep(*scenario("two-pure"))
    for n in range(1, 9):
        sweep.evaluator(n)
    assert sorted(sym_power_calls) == sorted(2 * list(range(1, 9)))


def same_blocks(a, b):
    """Whether two lists of blocks (m_t, block t) are equal bit for bit."""
    return len(a) == len(b) and all(
        ma == mb and all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in (
            (xa.spectrum.eigenvalues, xb.spectrum.eigenvalues),
            (xa.spectrum.eigenvectors, xb.spectrum.eigenvectors),
            (xa.spectrum.cut, xb.spectrum.cut), (xa.mat, xb.mat)))
        for (ma, xa), (mb, xb) in zip(a, b))


@pytest.mark.parametrize("case", ["A sign flip", "B {I, H}", "A torus [3, 4]", "pure-vs-mixed",
                                  "two-commuting"])
def test_blocks_do_not_depend_on_which_n_came_before(case):
    rho0, rho1, action, _ = DENSE_CASES[case]
    orders = ([9, 3, 8, 1, 9, 6, 2, 7, 5, 4], list(range(1, 10)), list(range(9, 0, -1)))
    sweeps = [TwirledSweep(rho0, rho1, action) for _ in orders]
    seen = [{n: sweep.pair(n) for n in order} for sweep, order in zip(sweeps, orders)]
    for n in range(1, 10):
        alone = per_state(TwirledSweep(rho0, rho1, action).pair(n))
        for pair in seen:
            assert all(same_blocks(a, b) for a, b in zip(per_state(pair[n]), alone)), n


def test_pure_state_blocks_past_t_0_are_zero():
    # a pure state's det is exactly 0: every reader sees its blocks t > 0 as
    # zero, with no eigenpair kept and a zero matrix
    rho0, rho1, action = scenario("pure-vs-mixed")
    sweep = TwirledSweep(rho0, rho1, action)
    for n in range(2, 10):
        pure, mixed = per_state(sweep.pair(n))
        for (_, x), (_, mixed_x) in zip(pure[1:], mixed[1:]):
            assert x.spectrum.support().eigenvalues.size == 0
            assert not x.spectrum.eigenvalues.any() and not x.mat.any()
            assert mixed_x.spectrum.support().eigenvalues.size == x.mat.shape[0]
        assert sweep.evaluator(n).atoms()[0].size == n + 1
        pair = TwirledPair(sweep.pair(n))
        assert [float(np.abs(a.mat).sum()) for _, a, _ in pair.parts[1:]] == [0.0] * (n // 2)


SWEEP_CASES = ["pure-vs-mixed", "two-commuting", "two-pure", "A sign flip", "B sign flip"]


@pytest.mark.parametrize("case", SWEEP_CASES)
def test_one_sweep_matches_the_dense_route(case):
    rho0, rho1, action, n_max = DENSE_CASES[case]
    sweep = TwirledSweep(rho0, rho1, action)
    rates = np.linspace(-2.0, 2.0, 81)
    for n in range(1, n_max + 1):
        dense = twirled_pair(rho0, rho1, action, n)
        block = TwirledPair(sweep.pair(n))
        if smallest_kept(rho0, rho1, action, n) > 1e-9:
            assert per_copy_gap(PsiEvaluator(*dense), n, sweep.evaluator(n), n) <= 1e-12, n
        for eps in (0.05, 0.3):
            assert block.beta_eps(eps) == pytest.approx(beta_eps(*dense, eps), rel=0, abs=1e-12)
        assert np.allclose(block.threshold_errors(rates), threshold_errors(*dense, rates),
                           rtol=0, atol=1e-12)


def test_a_sweep_raises_the_cap_error_at_the_same_n(monkeypatch, capsys):
    monkeypatch.setenv("SYMTEST_DIM_CAP", "8")
    sweep = TwirledSweep(*scenario("two-commuting"))
    for n in (1, 2, 3):
        sweep.evaluator(n)
    with pytest.raises(DimensionError, match="^tensor power dimension 16 exceeds cap 8$"):
        sweep.pair(4)
    monkeypatch.delenv("SYMTEST_DIM_CAP")
    assert main(["--scenario", str(SCENARIOS / "two-commuting.json"), "--command", "stein",
                 "--n-max", "13"]) == 3
    assert capsys.readouterr().err == "error: tensor power dimension 8192 exceeds cap 4096\n"


def test_states_must_be_qubits():
    with pytest.raises(DimensionError, match="^Schur-Weyl blocks need qubits, got states of "
                       "dimension 3 and an action of dimension 2$"):
        TwirledSweep(np.eye(3) / 3, np.eye(3) / 3, GroupAction.torus([0, 1]))


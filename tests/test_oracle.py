import numpy as np
import pytest
from numpy.testing import assert_allclose

from symtest.asymptotics import diag_qubit, pure_qubit, sigma_state, torus_action, z2_action
from symtest.divergences import PsiEvaluator
from symtest.groups import tensor_power, twirl, twirled_pair
from symtest.linalg import kron_power
from symtest.oracle import (
    block_scalar_oracle,
    pmin_random_battery,
    ptrace_oracle,
    random_density,
)

from helpers import dense_twirl_oracle


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestDenseTwirl:
    def test_matches_pipeline_finite(self, rng):
        action = tensor_power(z2_action(), 2)
        for _ in range(20):
            x = random_hermitian(rng, 4)
            assert_allclose(
                dense_twirl_oracle(x, unitaries=action.unitaries),
                twirl(x, action),
                atol=1e-9,
            )

    def test_matches_pipeline_torus(self, rng):
        action = tensor_power(torus_action(), 2)
        for _ in range(20):
            x = random_hermitian(rng, 4)
            assert_allclose(
                dense_twirl_oracle(x, weights=action.weights),
                twirl(x, action),
                atol=1e-9,
            )

    def test_invariant_input_unchanged(self):
        rho = diag_qubit(0.3).mat
        assert_allclose(dense_twirl_oracle(rho, weights=[0, 1]), rho, atol=1e-12)

    def test_two_term_form_exact(self):
        # order-two group: the average is literally the half sum
        n = 3
        action = tensor_power(z2_action(), n)
        mat = kron_power(sigma_state(0.35).mat, n)
        u = action.unitaries[1]
        expected = (mat + u @ mat @ u.conj().T) / 2
        assert_allclose(dense_twirl_oracle(mat, unitaries=action.unitaries), expected, atol=0)


class TestBlockScalar:
    @pytest.mark.parametrize("kind,params", [
        ("TorusPureVsMixed", {"alpha": 0.3}),
        ("TorusPureVsMixed", {"alpha": 0.5}),
        ("TorusTwoPure", {"lam": 0.3, "mu": 0.6}),
        ("Z2Commuting", {"lam": 0.2, "mu": 0.7}),
    ])
    def test_matches_dense_pipeline(self, kind, params):
        states = {
            "TorusPureVsMixed": (pure_qubit(0.5), diag_qubit(params.get("alpha", 0.0)), torus_action()),
            "TorusTwoPure": (pure_qubit(params.get("lam", 0.0)), pure_qubit(params.get("mu", 0.0)), torus_action()),
            "Z2Commuting": (sigma_state(params.get("lam", 0.0)), sigma_state(params.get("mu", 0.0)), z2_action()),
        }
        rho0, rho1, action = states[kind]
        for n in (1, 3, 5, 8):
            ev = PsiEvaluator(*twirled_pair(rho0, rho1, action, n))
            for s in (0.25, 0.5, 0.75, 1.25):
                dense = ev.trace_power(s)
                scalar = block_scalar_oracle(kind, params, n, s)
                assert dense == pytest.approx(scalar, abs=1e-8)

    def test_binomial_identity_pure_case(self):
        # the two-pure sum telescopes to a single binomial power
        value = block_scalar_oracle("TorusTwoPure", {"lam": 0.3, "mu": 0.6}, 7, 0.4)
        base = 0.3**0.4 * 0.6**0.6 + 0.7**0.4 * 0.4**0.6
        assert value == pytest.approx(base**7, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            block_scalar_oracle("Nope", {}, 2, 0.5)


class TestPtrace:
    def test_product_input(self, rng):
        b = random_hermitian(rng, 2)
        c = random_hermitian(rng, 3)
        out = ptrace_oracle(np.kron(b, c), 2, 3)
        assert_allclose(out, b * np.trace(c), atol=1e-12)


class TestBattery:
    def test_no_random_test_beats_optimum(self, rng):
        pair = twirled_pair(pure_qubit(0.5), diag_qubit(0.3), torus_action(), 2)
        best, reference = pmin_random_battery(*pair, a=0.0, count=100)
        assert best >= reference - 1e-9

    def test_empty_battery(self, rng):
        pair = twirled_pair(pure_qubit(0.5), diag_qubit(0.3), torus_action(), 1)
        best, _ = pmin_random_battery(*pair, a=0.0, count=0)
        assert best is None

    def test_identical_states_floor(self, rng):
        rho = random_density(2, rng=rng)
        best, reference = pmin_random_battery(rho, rho, a=0.0, count=50)
        assert reference == pytest.approx(1.0, abs=1e-12)
        assert best >= 1.0 - 1e-12


class TestRecords:
    def test_reproducible(self):
        pair = twirled_pair(pure_qubit(0.5), diag_qubit(0.3), torus_action(), 2)
        first = pmin_random_battery(*pair, a=0.1, count=25)
        second = pmin_random_battery(*pair, a=0.1, count=25)
        assert first == second

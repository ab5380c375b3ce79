import itertools
import math

import symtest.groups as groups

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symtest.asymptotics import (
    TORUS_PURE_VS_MIXED,
    Z2_COMMUTING,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    torus_action,
    z2_action,
)
from symtest.divergences import PsiEvaluator, TwirledSweep, psi_curve, relative_entropy
from symtest.errors import DimensionError
from symtest.groups import (
    GroupAction,
    block_structure,
    dim_growth,
    is_support_invariant,
    pinching_map,
    tensor_power,
    twirl,
    twirled_pair,
    weyl_twirl,
)
from symtest.linalg import (
    DensityOperator,
    _block_eigh,
    _gated_eig,
    above_cut,
    eig,
    hermitian,
    kron_power,
    spectral_projections,
)
from symtest.oracle import block_scalar_oracle, ptrace_oracle, random_density

from helpers import dense_twirl_oracle, random_unitary


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


class TestGroupAction:
    def test_finite_requires_identity(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="identity"):
            GroupAction.finite([x])

    def test_finite_requires_unitaries(self):
        with pytest.raises(ValueError, match="unitary"):
            GroupAction.finite([np.eye(2), np.diag([1.0, 2.0])])

    def test_finite_requires_closure(self):
        # a quarter rotation without its square is not a group
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="closed"):
            GroupAction.finite([np.eye(2), rot])

    def test_finite_unitarity_gate_is_1e9(self):
        # diag(1, -(1 + d)) deviates from unitarity by 2d + d^2 and its square
        # misses the identity by as much; diag(1, 1 + d) would be a second
        # identity, which the repeat gate rejects
        GroupAction.finite([np.eye(2), np.diag([1.0, -(1.0 + 0.49e-9)])])
        with pytest.raises(ValueError, match="not unitary within 1e-09"):
            GroupAction.finite([np.eye(2), np.diag([1.0, -(1.0 + 0.51e-9)])])

    def test_finite_closure_gate_is_1e8(self):
        # the square of diag(1, -e^{i eta}) misses the identity by |e^{2 i eta} - 1|
        def flip(gap):
            eta = math.asin(gap / 2.0)
            return np.diag([1.0, -complex(math.cos(eta), math.sin(eta))])

        GroupAction.finite([np.eye(2), flip(0.99e-8)])
        with pytest.raises(ValueError, match="closed under multiplication within 1e-08"):
            GroupAction.finite([np.eye(2), flip(1.01e-8)])

    def test_finite_rejects_repeated_elements(self):
        z = np.diag([1.0, -1.0])
        GroupAction.finite([np.eye(2), z])
        with pytest.raises(ValueError, match="repeats an element"):
            GroupAction.finite([np.eye(2), z, z])
        # two elements within the identity gate's 1e-9 are one element
        with pytest.raises(ValueError, match="repeats an element within 1e-09"):
            GroupAction.finite([np.eye(2), np.diag([1.0, 1.0 + 0.49e-9])])

    def test_torus_requires_integers(self):
        with pytest.raises(ValueError, match="integer"):
            GroupAction.torus([0.0, 0.5])
        # text, booleans, and magnitudes past 2**53 (which int64 overflowed)
        for weights in (["a", "b"], [True, False], [1, True], [0, 1e300], [0, 2**63],
                        [0, 2**53 + 2], [0, math.inf], [0, math.nan]):
            with pytest.raises(ValueError, match="integer"):
                GroupAction.torus(weights)
        assert list(GroupAction.torus([-(2**53), 2**53]).weights) == [-(2**53), 2**53]

    def test_torus_power_sums_may_pass_2_53(self):
        # the input bound is on the weights, not on their sums in the power
        powered = tensor_power(GroupAction.torus([0, 2**53]), 2)
        assert powered.weights.tolist() == [0, 2**53, 2**53, 2**54]
        assert block_structure(GroupAction.torus([0, 2**53]), 3) == [(1, 1), (1, 1), (3, 1), (3, 1)]

    def test_dims(self):
        assert z2_action().dim == 2
        assert torus_action().dim == 2
        assert GroupAction.trivial(3).dim == 3


class TestTensorPower:
    def test_identity_power(self):
        action = z2_action()
        assert tensor_power(action, 1) is action

    def test_z2_square(self):
        powered = tensor_power(z2_action(), 2)
        assert len(powered.unitaries) == 2
        assert_allclose(powered.unitaries[0], np.eye(4))
        assert_allclose(powered.unitaries[1], np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_torus_weight_sums(self):
        powered = tensor_power(torus_action(), 3)
        assert list(powered.weights) == [0, 1, 1, 2, 1, 2, 2, 3]

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("SYMTEST_DIM_CAP", "4")
        with pytest.raises(DimensionError, match="cap"):
            tensor_power(torus_action(), 3)


class TestTwirl:
    def test_fixed_point(self):
        rho = diag_qubit(0.3)
        assert_allclose(twirl(rho, torus_action()), rho.mat, atol=1e-14)

    def test_two_term_average(self, rng):
        # the order-two group average is the half sum of the two conjugations
        n = 3
        action = tensor_power(z2_action(), n)
        mat = kron_power(sigma_state(0.2).mat, n)
        u = action.unitaries[1]
        expected = (mat + u @ mat @ u.conj().T) / 2
        assert_allclose(twirl(mat, action), expected, atol=1e-14)

    def test_torus_pinch_weight_pairs(self):
        # all-ones state on two qubits keeps its diagonal plus the one
        # off-diagonal pair inside the middle weight block
        n = 2
        action = tensor_power(torus_action(), n)
        mat = kron_power(pure_qubit(0.5).mat, n)
        out = twirl(mat, action)
        expected = np.zeros((4, 4), dtype=complex)
        w = [0, 1, 1, 2]
        for i in range(4):
            for j in range(4):
                if w[i] == w[j]:
                    expected[i, j] = 0.25
        assert_allclose(out, expected, atol=1e-14)

    def test_idempotent_unital_trace_preserving(self, rng):
        for action in (z2_action(), torus_action()):
            x = random_hermitian(rng, 2)
            once = twirl(x, action)
            assert_allclose(twirl(once, action), once, atol=1e-9)
            assert np.trace(once) == pytest.approx(np.trace(x).real, abs=1e-12)
            assert_allclose(twirl(np.eye(2), action), np.eye(2), atol=1e-14)

    def test_positivity_and_commutation(self, rng):
        action = tensor_power(z2_action(), 2)
        rho = DensityOperator(random_density(4, rng=rng))
        out = twirl(rho, action)
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        for u in action.unitaries:
            assert np.linalg.norm(out @ u - u @ out) <= 1e-8

    def test_product_action_factorizes(self, rng):
        # conditional expectation onto the product algebra acts factorwise
        n, m = 1, 2
        an = tensor_power(z2_action(), n)
        am = tensor_power(z2_action(), m)
        pair_action = GroupAction.finite(
            [np.kron(u, v) for u in an.unitaries for v in am.unitaries]
        )
        a = random_hermitian(rng, 2**n)
        b = random_hermitian(rng, 2**m)
        lhs = twirl(np.kron(a, b), pair_action)
        rhs = np.kron(twirl(a, an), twirl(b, am))
        assert_allclose(lhs, rhs, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            twirl(np.eye(3), z2_action())

    def test_maps_of_a_state_are_arrays(self):
        rho = pure_qubit(0.3)
        p = np.diag([1.0, 0.0])
        for out in (twirl(rho, torus_action()), twirl(rho, z2_action()),
                    weyl_twirl(rho, 1, 2), pinching_map(rho, z2_action(), [p, np.eye(2) - p])):
            assert type(out) is np.ndarray


class TestBlockStructure:
    def test_torus_binomial_multiplicities(self):
        for n in (1, 3, 5):
            bs = block_structure(torus_action(), n)
            expected = sorted((math.comb(n, i), 1) for i in range(n + 1))
            assert bs == expected
            assert sum(m * d for m, d in bs) == 2**n

    def test_z2_two_half_blocks(self):
        for n in (2, 3, 4):
            assert block_structure(z2_action(), n) == [(2 ** (n - 1), 1), (2 ** (n - 1), 1)]

    def test_trivial_group_single_block(self):
        assert block_structure(GroupAction.trivial(2), 3) == [(8, 1)]

    def test_single_qubit_pauli_blocks(self):
        # the full one-qubit Pauli group (with phases) has scalar commutant
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]]),
            np.diag([1.0, -1.0]).astype(complex),
        ]
        mats = [phase * p for phase in (1, 1j, -1, -1j) for p in paulis]
        action = GroupAction.finite(mats)
        assert block_structure(action, 1) == [(1, 2)]
        # two copies: the generators commute, so four one-dimensional blocks
        # (the Bell basis)
        assert block_structure(action, 2) == [(1, 1)] * 4
        # three copies: X^3 and Z^3 anticommute, which forces a single block
        # with a two-dimensional irrep of multiplicity four
        assert block_structure(action, 3) == [(4, 2)]

    def test_s3_permutation_blocks(self):
        # trivial, sign and two-dimensional standard irreps of S3 on (C^3)^{(x)n}
        action = GroupAction.finite(
            [np.eye(3)[list(p)] for p in itertools.permutations(range(3))])
        expected = {2: [(1, 1), (2, 1), (3, 2)],
                    3: [(4, 1), (5, 1), (9, 2)],
                    4: [(13, 1), (14, 1), (27, 2)]}
        for n, shape in expected.items():
            bs = block_structure(action, n)
            assert bs == shape
            assert sum(m * d for m, d in bs) == 3**n

    def test_block_count_sums(self):
        for action, n in ((z2_action(), 4), (torus_action(), 4)):
            assert sum(m * d for m, d in block_structure(action, n)) == 2**n


class TestDimGrowth:
    def test_torus_values(self):
        values = dim_growth(torus_action(), 9)
        for n, v in enumerate(values, start=1):
            assert v == pytest.approx(math.log(n + 1) / n, abs=1e-12)
        assert values[8] == pytest.approx(math.log(10) / 9, abs=1e-12)

    def test_trivial_group_zero(self):
        assert dim_growth(GroupAction.trivial(2), 3) == pytest.approx([0.0, 0.0, 0.0])

    def test_z2_decays(self):
        values = dim_growth(z2_action(), 5)
        for n, v in enumerate(values, start=1):
            assert v == pytest.approx(math.log(2) / n, abs=1e-12)


class TestWeylTwirl:
    def test_d_one_identity(self, rng):
        x = random_hermitian(rng, 3)
        assert_allclose(weyl_twirl(x, 3, 1), x, atol=1e-12)

    def test_product_input(self, rng):
        b = random_hermitian(rng, 2)
        c = random_density(3, rng=rng)
        out = weyl_twirl(np.kron(b, c), 2, 3)
        assert_allclose(out, np.kron(b, np.eye(3) / 3), atol=1e-9)

    def test_matches_partial_trace(self, rng):
        x = random_hermitian(rng, 6)
        out = weyl_twirl(x, 2, 3)
        expected = np.kron(ptrace_oracle(x, 2, 3) / 3, np.eye(3))
        assert_allclose(out, expected, atol=1e-9)

    def test_dimension_check(self):
        with pytest.raises(DimensionError, match="factorable"):
            weyl_twirl(np.eye(5), 2, 3)


class TestPinching:
    def test_identity_projection_is_plain_twirl(self, rng):
        action = tensor_power(torus_action(), 2)
        x = random_hermitian(rng, 4)
        assert_allclose(pinching_map(x, action, [np.eye(4)]), twirl(x, action), atol=1e-12)

    def test_invariant_input_unchanged(self):
        action = tensor_power(torus_action(), 2)
        rho1 = kron_power(diag_qubit(0.3).mat, 2)
        projs = [p for _, p in spectral_projections(rho1)]
        assert_allclose(pinching_map(rho1, action, projs), rho1, atol=1e-12)

    def test_pure_vs_mixed_two_copies(self):
        # the alternative's spectral blocks are the weight blocks, so the
        # pinch leaves the twirl untouched (middle off-diagonal pair included)
        action = tensor_power(torus_action(), 2)
        rho0 = kron_power(pure_qubit(0.5).mat, 2)
        rho1 = kron_power(diag_qubit(0.3).mat, 2)
        projs = [p for _, p in spectral_projections(rho1)]
        assert_allclose(pinching_map(rho0, action, projs), twirl(rho0, action), atol=1e-12)

    def test_rejects_nonorthogonal_projections(self):
        action = torus_action()
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="orthogonal"):
            pinching_map(np.eye(2), action, [p, np.eye(2)])


def test_support_invariance_flags():
    assert is_support_invariant(diag_qubit(0.3), torus_action())
    assert not is_support_invariant(pure_qubit(0.3), torus_action())
    # faithful alternatives are always invariant in support
    assert is_support_invariant(sigma_state(0.7), z2_action())
    assert not is_support_invariant(sigma_state(1.0), z2_action())


def test_twirled_pair_shapes():
    rho0n, rho1n = twirled_pair(pure_qubit(0.5), diag_qubit(0.3), torus_action(), 3)
    assert rho0n.dim == 8 and rho1n.dim == 8
    assert np.trace(rho0n.mat) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("action", [GroupAction.torus([0, 1, 2]), GroupAction.finite([np.eye(3)])],
                         ids=["torus", "finite"])
def test_twirled_pair_rejects_states_of_another_dimension(action):
    # each state is checked before its power is formed, under both kinds of
    # action; TwirledSweep.pair takes this route for d > 2
    message = "operator dimension 2 does not match action dimension 3"
    with pytest.raises(DimensionError, match=message):
        twirled_pair(pure_qubit(0.3), diag_qubit(0.4), action, 2)
    with pytest.raises(DimensionError, match=message):
        TwirledSweep(pure_qubit(0.3), diag_qubit(0.4), action).pair(2)


def pattern_blocks(m):
    """Index sets of the connected components of the exact nonzero pattern
    of m, by union-find over its nonzero entries."""
    parent = list(range(len(m)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(m)):
        parent[find(i)] = find(j)
    blocks = {}
    for i in range(len(m)):
        blocks.setdefault(find(i), []).append(i)
    return list(blocks.values())


def dense_twirl(rho, action, n):
    return dense_twirl_oracle(kron_power(rho, n), tensor_power(action, n).unitaries)


class TestTwirledPair:
    @pytest.mark.parametrize("group", ["s3-permutations", "conjugated-z2"])
    def test_finite_route_matches_dense_oracle(self, rng, group):
        if group == "s3-permutations":
            d, n_max = 3, 4
            action = GroupAction.finite(
                [np.eye(3)[list(p)] for p in itertools.permutations(range(3))])
        else:
            d, n_max = 2, 6
            v = random_unitary(2, rng)
            action = GroupAction.finite([np.eye(2), v @ np.diag([1.0, -1.0]) @ v.conj().T])
        # full rank, and rank one, whose twirl takes the clip path
        rho0, rho1 = random_density(d, rng=rng), random_density(d, rank=1, rng=rng)
        for n in range(1, n_max + 1):
            for rho, out in zip((rho0, rho1), twirled_pair(rho0, rho1, action, n)):
                assert_allclose(out.mat, dense_twirl(rho, action, n), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("weights", [[0, 1], [0, 1, 1], [0, 2, -1]])
    def test_torus_classes_are_the_pinched_kron_power(self, rng, monkeypatch, weights):
        # A real product is correctly rounded, so the two routes agree bit for
        # bit.  numpy rounds a complex product by the loop it picks for the
        # array layout (with or without a fused multiply-add), so np.kron and
        # the class blocks may differ there by that rounding, a few eps of
        # the entry of |rho|^{(x)n}.
        action, d = GroupAction.torus(weights), len(weights)
        built = []
        monkeypatch.setattr(groups, "DensityOperator", lambda m: built.append(m.copy()) or m)
        rho_complex = random_density(d, rng=rng)
        rho_real = random_density(d, rng=rng).real  # PSD with the same unit trace
        for rho in (rho_complex, rho_real):
            for n in range(1, 7):
                built.clear()
                twirled_pair(rho, rho, action, n)
                expected = twirl(kron_power(rho, n), tensor_power(action, n))
                assert built[0].dtype == expected.dtype
                if rho is rho_real:
                    assert np.array_equal(built[0], expected)
                else:
                    scale = twirl(kron_power(np.abs(rho), n), tensor_power(action, n))
                    bound = 4 * n * np.finfo(float).eps * scale
                    assert np.all(np.abs(built[0] - expected) <= bound)
        assert expected.dtype == np.float64

    def test_sign_flip_route_is_bitwise_the_dense_twirl(self, rng):
        rho0, rho1 = random_density(2, rng=rng), random_density(2, rng=rng)
        for n in range(1, 7):
            for rho, out in zip((rho0, rho1), twirled_pair(rho0, rho1, z2_action(), n)):
                expected = DensityOperator(dense_twirl(rho, z2_action(), n))
                assert np.array_equal(out.mat, expected.mat)

    @pytest.mark.parametrize("action", [z2_action(), torus_action()], ids=["finite", "torus"])
    def test_dimension_cap_at_the_same_n(self, monkeypatch, action):
        monkeypatch.setenv("SYMTEST_DIM_CAP", "16")
        twirled_pair(diag_qubit(0.3), diag_qubit(0.6), action, 4)
        with pytest.raises(DimensionError, match="tensor power dimension 32 exceeds cap 16"):
            twirled_pair(diag_qubit(0.3), diag_qubit(0.6), action, 5)

    def test_each_operator_is_decomposed_once(self, monkeypatch):
        # one eigh per block of more than one index of each twirled state,
        # none for 1x1 blocks, and none afterwards in the consumers
        scenarios = [make_scenario(TORUS_PURE_VS_MIXED, alpha=0.3),
                     make_scenario(Z2_COMMUTING, lam=0.2, mu=0.7)]
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for sc in scenarios:
            before = dict(counts)
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, 5)
            built = counts["eigh"] - before["eigh"]
            assert built == sum(len(b) > 1 for r in pair for b in pattern_blocks(r.mat)) == 4
            psi_curve(*pair)
            relative_entropy(*pair)
            assert counts["eigh"] - before["eigh"] == built
            assert counts["eigvalsh"] == before["eigvalsh"] == 0

    @pytest.mark.parametrize("scenario", [(TORUS_PURE_VS_MIXED, {"alpha": 0.3}),
                                          (Z2_COMMUTING, {"lam": 0.2, "mu": 0.7})],
                             ids=["torus", "sign-flip"])
    def test_blockwise_spectra_match_the_dense_eig(self, scenario):
        kind, params = scenario
        sc = make_scenario(kind, **params)
        for n in range(1, 9):
            pair = twirled_pair(sc.rho0, sc.rho1, sc.action, n)
            for r in pair:
                dense = eig(r.mat)
                assert_allclose(r.spectrum.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-13)
                assert_allclose(r.spectrum.reconstruct(), r.mat, rtol=0, atol=1e-13)
            if kind == TORUS_PURE_VS_MIXED:
                ev = PsiEvaluator(*pair)
                for s in (0.25, 0.5, 0.75):
                    scalar = math.log(block_scalar_oracle(kind, params, n, s))
                    assert abs(ev.psi(s) - scalar) <= 1e-12

    def test_rank_one_twirl_takes_the_clip_path_block_by_block(self):
        n = 6
        m = twirl(kron_power(pure_qubit(0.3).mat, n), tensor_power(torus_action(), n))
        assert m.dtype == np.float64
        # the block decomposition of the real canonical matrix, before the clip
        raw = _gated_eig(m, _block_eigh)[1]
        assert raw.eigenvalues[0] < 0.0
        rho = DensityOperator(m)
        spec = rho.spectrum
        assert np.array_equal(spec.eigenvectors, raw.eigenvectors)
        assert spec.eigenvalues[0] == 0.0
        assert int(np.count_nonzero(above_cut(spec.eigenvalues))) == n + 1
        assert_allclose(spec.eigenvalues, np.clip(raw.eigenvalues, 0.0, None), rtol=0, atol=1e-15)
        assert np.all(rho.mat[m == 0] == 0)
        assert_allclose(rho.mat, m, rtol=0, atol=1e-15)

    def test_s3_permutation_twirls_have_no_zeros_and_one_dense_eig(self, rng):
        action = GroupAction.finite(
            [np.eye(3)[list(p)] for p in itertools.permutations(range(3))])
        rho0, rho1 = random_density(3, rng=rng), random_density(3, rng=rng)
        for n in range(1, 5):
            for r in twirled_pair(rho0, rho1, action, n):
                assert np.all(r.mat != 0)
                dense = eig(r.mat)
                assert np.array_equal(r.spectrum.eigenvalues, dense.eigenvalues)
                assert np.array_equal(r.spectrum.eigenvectors, dense.eigenvectors)

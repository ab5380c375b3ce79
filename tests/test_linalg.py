import numpy as np
import pytest
from numpy.testing import assert_allclose

from symtest import linalg
from symtest.asymptotics import (
    TORUS_PURE_VS_MIXED,
    Z2_COMMUTING,
    diag_qubit,
    make_scenario,
    z2_action,
)
from symtest.discrimination import TestOperator
from symtest.divergences import psi_curve, relative_entropy
from symtest.errors import DimensionError
from symtest.groups import GroupAction, tensor_power, twirl, twirled_pair
from symtest.linalg import (
    HERM_TOL,
    TRACE_TOL,
    DensityOperator,
    Spectrum,
    _eigh,
    _split_eig,
    above_cut,
    abs_power_trace,
    asmatrix,
    cluster_slices,
    components,
    dim_cap,
    eig,
    hermitian,
    kron,
    kron_power,
    mpow,
    spectral_projections,
    support_projection,
    trace_norm,
)
from symtest.oracle import random_density

from helpers import random_unitary


# one constructor per frozen dataclass that holds an array
ARRAY_HOLDERS = {
    "DensityOperator": lambda: diag_qubit(0.3),
    "TestOperator": lambda: TestOperator(np.diag([1.0, 0.0])),
    "Spectrum": lambda: eig(np.diag([0.3, 0.7])),
    "GroupAction": lambda: GroupAction.torus([0, 1]),
    "PsiCurve": lambda: psi_curve(diag_qubit(0.3), diag_qubit(0.6)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    # a generated __eq__ compares the arrays and raises; identity never does
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert (a == a) is True
    assert (a == b) is False
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_scenarios_compare_without_raising():
    sc = make_scenario("TorusPureVsMixed", alpha=0.3)
    assert (sc == sc) is True
    assert (sc == make_scenario("TorusPureVsMixed", alpha=0.3)) is False

def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_operator_gate_is_herm_tol():
    # the deviation of [[0, x], [0, 0]] from its adjoint is exactly |x|
    hermitian(np.array([[0.0, 0.99 * HERM_TOL], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian within 1e-10"):
        hermitian(np.array([[0.0, 1.01 * HERM_TOL], [0.0, 0.0]]))


def test_hermitian_operator_canonicalizes():
    h = hermitian(np.array([[1.0, 1.0 + 1e-12j], [1.0 - 1e-12j, 2.0]]))
    assert_allclose(h, h.conj().T)


def test_density_operator_validates_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.diag([0.5, 0.4]))


def test_density_operator_trace_gate_is_trace_tol():
    DensityOperator(np.diag([0.5, 0.5 + 0.99 * TRACE_TOL]))
    with pytest.raises(ValueError, match="trace must be 1 within 1e-09"):
        DensityOperator(np.diag([0.5, 0.5 + 1.01 * TRACE_TOL]))


def test_density_operator_clip_gate_is_trace_tol():
    rho = DensityOperator(np.diag([1.0 + 0.99 * TRACE_TOL, -0.99 * TRACE_TOL]))
    assert np.array_equal(np.linalg.eigvalsh(rho.mat), [0.0, 1.0])
    with pytest.raises(ValueError, match="eigenvalue more than 1e-09 outside"):
        DensityOperator(np.diag([1.0 + 1.01 * TRACE_TOL, -1.01 * TRACE_TOL]))


def test_density_operator_clips_small_negatives():
    rho = DensityOperator(np.diag([1.0 + 5e-10, -5e-10]))
    w = np.linalg.eigvalsh(rho.mat)
    assert w[0] >= 0.0
    assert abs(np.trace(rho.mat).real - 1.0) < 1e-14


def test_density_operator_rejects_large_negatives():
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOperator(np.diag([1.1, -0.1]))


def test_eig_identity():
    spec = eig(np.eye(4))
    assert_allclose(spec.eigenvalues, np.ones(4))
    assert_allclose(spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(4), atol=1e-12)


def test_eig_diagonal_sorted_ascending():
    spec = eig(np.diag([3.0, -1.0]))
    assert_allclose(spec.eigenvalues, [-1.0, 3.0])


def test_eig_pauli_x():
    # characteristic polynomial by hand: l**2 - 1 = 0
    spec = eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)


def test_eig_reconstruction_bound(rng):
    for dim in (2, 5, 9):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2
        spec = eig(h)
        err = np.linalg.norm(spec.reconstruct() - h)
        assert err <= 1e-8 * dim * np.linalg.norm(h)


def test_mpow_projection_fixed_point():
    p = np.diag([1.0, 1.0, 0.0])
    for s in (-2.0, -0.5, 0.3, 1.0, 4.0):
        assert_allclose(mpow(p, s), p, atol=1e-12)


def test_mpow_sqrt_with_kernel():
    assert_allclose(mpow(np.diag([4.0, 0.0]), 0.5), np.diag([2.0, 0.0]), atol=1e-12)


def test_mpow_inverse_gives_support(rng):
    rho = random_density(4, rank=2, rng=rng)
    left = mpow(rho, -1.0) @ rho
    assert_allclose(left, support_projection(rho), atol=1e-9)


def test_mpow_rejects_negative_spectrum():
    with pytest.raises(ValueError, match="positive semidefinite"):
        mpow(np.diag([1.0, -0.5]), 0.5)


def test_mpow_group_law(rng):
    # powers compose on the support
    u = random_unitary(5, rng)
    w = np.array([0.0, 0.2, 0.5, 1.3, 2.0])
    h = (u * w) @ u.conj().T
    for s, t in [(-1.0, 0.3), (-0.5, 1.7), (0.3, 1.7), (-1.0, -0.5)]:
        lhs = mpow(h, s) @ mpow(h, t)
        rhs = mpow(h, s + t)
        assert_allclose(lhs, rhs, atol=1e-8)


def test_support_projection_trivial_cases():
    assert_allclose(support_projection(np.zeros((3, 3))), np.zeros((3, 3)))
    rho = random_density(3, rng=np.random.default_rng(1))
    assert_allclose(support_projection(rho), np.eye(3), atol=1e-10)


def test_support_projection_pure_state():
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert_allclose(support_projection(rho0), rho0, atol=1e-12)


def test_trace_norm_basics(rng):
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    rho = random_density(5, rng=rng)
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)


def test_trace_norm_qubit_difference_closed_form():
    # 2x2 eigensolve by hand: eigenvalues (a+d)/2 +- sqrt(((a-d)/2)^2 + |b|^2)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    rho1 = np.diag([0.5, 0.5])
    diff = rho0 - rho1
    mid = (diff[0, 0] + diff[1, 1]) / 2
    rad = np.sqrt(((diff[0, 0] - diff[1, 1]) / 2) ** 2 + abs(diff[0, 1]) ** 2)
    expected = abs(mid + rad) + abs(mid - rad)
    assert trace_norm(diff) == pytest.approx(expected, abs=1e-14)
    assert trace_norm(diff) == pytest.approx(1.0, abs=1e-14)


def test_trace_norm_unitary_invariance(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, v = random_unitary(4, rng), random_unitary(4, rng)
    assert trace_norm(u @ a @ v) == pytest.approx(trace_norm(a), abs=1e-9)


def test_kron_basics():
    assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    lhs = kron(np.diag([2.0, 3.0]), np.diag([5.0, 7.0]))
    assert_allclose(lhs, np.diag([10.0, 14.0, 15.0, 21.0]))


def test_kron_trace_product(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    direct = sum(a[i, i] * b[j, j] for i in range(3) for j in range(3))
    assert np.trace(kron(a, b)) == pytest.approx(direct, abs=1e-12)
    assert np.trace(kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b), abs=1e-12)


def test_kron_associative(rng):
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    lhs = kron(kron(mats[0], mats[1]), mats[2])
    rhs = kron(mats[0], kron(mats[1], mats[2]))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kron_dimension_cap(monkeypatch):
    monkeypatch.setenv("SYMTEST_DIM_CAP", "8")
    assert dim_cap() == 8
    with pytest.raises(DimensionError, match="cap"):
        kron_power(np.eye(2), 4)
    monkeypatch.delenv("SYMTEST_DIM_CAP")
    assert dim_cap() == 4096


def test_abs_power_trace_identical_state(rng):
    rho = random_density(4, rng=rng)
    for s in (-0.5, 0.0, 0.3, 0.5, 1.0, 1.5):
        assert abs_power_trace(rho, rho, s) == pytest.approx(1.0, abs=1e-10)


def test_abs_power_trace_diagonal(rng):
    a = np.sort(rng.random(4))
    b = np.sort(rng.random(4))
    a, b = a / a.sum(), b / b.sum()
    s = 0.7
    assert abs_power_trace(np.diag(a), np.diag(b), s) == pytest.approx(
        float(np.sum(a**s * b ** (1 - s))), abs=1e-12
    )


def test_abs_power_trace_half_is_fidelity(rng):
    rho = random_density(2, rng=rng)
    sigma = random_density(2, rng=rng)
    # independent route: Tr (rho^(1/2) sigma rho^(1/2))^(1/2)
    root = mpow(rho, 0.5)
    inner = root @ sigma @ root
    w = np.linalg.eigvalsh(inner)
    expected = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    assert abs_power_trace(rho, sigma, 0.5) == pytest.approx(expected, abs=1e-10)


def test_spectral_projections_resolve_identity(rng):
    rho = random_density(5, rng=rng)
    projs = spectral_projections(rho)
    total = sum(p for _, p in projs)
    assert_allclose(total, np.eye(5), atol=1e-9)


def test_asmatrix_rejects_nonsquare():
    with pytest.raises(DimensionError):
        asmatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        asmatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_rank_cut_sensitivity():
    # support decisions for the worked scenarios are stable under a decade
    # of rank-cut rescaling either way: no eigenvalue the cut decides lies
    # within a factor of 10 of it (exact 1x1 eigenpairs are kept when positive)
    from symtest.asymptotics import make_scenario

    sc = make_scenario("TorusPureVsMixed", alpha=0.3)
    for state in twirled_pair(sc.rho0, sc.rho1, sc.action, 4):
        spec = eig(state)
        cut = _old_rank_cut(spec.eigenvalues, spec.eigenvalues.size)
        decided = spec.eigenvalues[spec.cut != 0]
        assert np.array_equal(decided > cut, above_cut(spec.eigenvalues)[spec.cut != 0])
        assert not np.any((decided > cut / 10.0) & (decided <= cut * 10.0))


def _old_rank_cut(eigenvalues, dim):
    # reference cut on the largest eigenvalue: max(dim*eps*lmax, 1e-12)
    return max(dim * float(np.finfo(float).eps) * float(np.max(eigenvalues, initial=0.0)), 1e-12)


def test_above_cut_matches_old_cut_on_psd_spectra(rng):
    for dim in range(2, 17):
        for rank in (dim, max(1, dim // 2), 1):
            w = np.linalg.eigvalsh(random_density(dim, rank=rank, rng=rng))
            expected = w > _old_rank_cut(w, dim)
            assert np.array_equal(above_cut(w), expected)
            assert int(above_cut(w).sum()) == rank
            # and no eigenvalue lies within a decade of the cut
            for scale in (0.1, 10.0):
                assert int((w > _old_rank_cut(w, dim) * scale).sum()) == rank


def test_above_cut_matches_old_cut_on_signed_differences(rng):
    for dim in range(2, 17):
        rho0 = random_density(dim, rank=max(1, dim // 3), rng=rng)
        rho1 = random_density(dim, rng=rng)
        for weight in (0.3, 1.0, 4.0):
            w = np.linalg.eigvalsh(weight * rho0 - rho1)
            assert np.array_equal(above_cut(w), w > _old_rank_cut(np.abs(w), dim))


def test_spectrum_support_keeps_pairs_above_cut(rng):
    spec = eig(random_density(6, rank=3, rng=rng))
    kept = spec.support()
    assert kept.eigenvalues.size == 3 and kept.eigenvectors.shape == (6, 3)
    assert_allclose(kept.reconstruct(), spec.reconstruct(), atol=1e-12)


def test_support_has_no_absolute_floor():
    # a rotated diag(1 - 1e-13, 1e-13) is one 2x2 component, so its small
    # eigenvalue is decided by the cut, 2 eps: it is kept, and the relative
    # entropy of the maximally mixed state against it is finite
    c, s = np.cos(0.3), np.sin(0.3)
    u = np.array([[c, -s], [s, c]])
    rho1 = DensityOperator(u @ np.diag([1.0 - 1e-13, 1e-13]) @ u.T)
    kept = rho1.spectrum.support()
    assert not (kept.cut == 0).any()
    assert kept.eigenvalues.size == 2
    assert kept.eigenvalues[0] == pytest.approx(1e-13, rel=1e-2)
    want = -np.log(2.0) - 0.5 * (np.log1p(-1e-13) + np.log(1e-13))
    assert relative_entropy(np.eye(2) / 2.0, rho1) == pytest.approx(want, rel=1e-3)


def test_dense_state_is_cut_component_by_component():
    # a component of weight 1e-17 lies far below 4 eps times the state's
    # largest eigenvalue, and its own eigenvalues 2.5e-18 and 7.5e-18 lie far
    # above 2 eps times its own: each component is cut at its own size and
    # largest eigenvalue, so all four are kept and S(I/4 || rho1) is finite
    eps = 1e-17
    rho1 = np.zeros((4, 4))
    rho1[:2, :2] = (1.0 - eps) * np.array([[0.6, 0.2], [0.2, 0.4]])
    rho1[2:, 2:] = eps * np.array([[0.5, 0.25], [0.25, 0.5]])
    rho1 = DensityOperator(rho1)
    kept = rho1.spectrum.support()
    assert kept.eigenvalues.size == 4
    assert_allclose(kept.eigenvalues[:2], [2.5e-18, 7.5e-18], rtol=1e-6)
    assert relative_entropy(np.eye(4) / 4.0, rho1) == pytest.approx(19.0065, abs=1e-4)


def test_cluster_slices_edge_cases():
    assert cluster_slices(np.array([]), 1e-9) == []
    assert cluster_slices(np.array([0.3]), 1e-9) == [slice(0, 1)]
    assert cluster_slices(np.full(4, 0.25), 1e-9) == [slice(0, 4)]
    w = np.array([0.0, 0.5, 1.0, 3.0])
    # a gap equal to tol stays inside the run; only gaps above tol split
    assert cluster_slices(w, 0.5) == [slice(0, 3), slice(3, 4)]
    assert cluster_slices(w, np.nextafter(0.5, 0.0)) == [slice(0, 1), slice(1, 2),
                                                        slice(2, 3), slice(3, 4)]


def test_clipped_returns_self_inside_range(rng):
    m = random_density(4, rng=rng)
    spec = eig(m)
    assert spec.clipped(0.0, np.inf, 1e-9) is spec
    assert spec.clipped(0.0, 1.0, 1e-9) is spec
    # a state or a test already inside keeps the canonical matrix bit for bit
    assert np.array_equal(DensityOperator(m).mat, hermitian(m))
    assert np.array_equal(TestOperator(m).mat, hermitian(m))


def test_clipped_moves_small_violations_onto_the_edge(rng):
    def through_spectrum(m, lo, hi):
        return hermitian(eig(m).clipped(lo, hi, 1e-9).reconstruct())

    density = through_spectrum(np.diag([-1e-12, 0.4, 0.6 + 1e-12]), 0.0, np.inf)
    assert np.array_equal(np.linalg.eigvalsh(density), [0.0, 0.4, 0.6 + 1e-12])
    for test in (through_spectrum(np.diag([0.0, 0.5, 1.0 + 1e-12]), 0.0, 1.0),
                 TestOperator(np.diag([0.0, 0.5, 1.0 + 1e-12])).mat):
        assert np.array_equal(np.linalg.eigvalsh(test), [0.0, 0.5, 1.0])
    rho = DensityOperator(np.diag([-1e-12, 0.4, 0.6 + 1e-12]))
    assert rho.spectrum.eigenvalues[0] == 0.0
    assert_allclose(rho.spectrum.eigenvalues, [0.0, 0.4, 0.6], rtol=0, atol=2e-12)
    # in a rotated basis the rebuild leaves only roundoff past the edge
    u = random_unitary(3, rng)
    for w, lo, hi in (([-1e-12, 0.4, 0.6], 0.0, np.inf), ([0.0, 0.5, 1.0 + 1e-12], 0.0, 1.0)):
        m = (u * np.array(w)) @ u.conj().T
        built = DensityOperator(m) if hi == np.inf else TestOperator(m)
        for out in (through_spectrum(m, lo, hi), built.mat):
            assert_allclose(np.linalg.eigvalsh(out), np.clip(w, lo, hi), rtol=0, atol=1e-14)


def test_clipped_rejects_violations_beyond_tol():
    with pytest.raises(ValueError, match="eigenvalue") as info:
        eig(np.diag([-1e-8, 1.0])).clipped(0.0, np.inf, 1e-9)
    assert "spectrum" in str(info.value)
    with pytest.raises(ValueError, match="spectrum"):
        eig(np.diag([0.0, 1.0 + 1e-8])).clipped(0.0, 1.0, 1e-9)
    with pytest.raises(ValueError, match="eigenvalue more than 1e-09 outside"):
        DensityOperator(np.diag([-1e-8, 1.0 + 1e-8]))
    with pytest.raises(ValueError, match="eigenvalue more than 1e-09 outside"):
        TestOperator(np.diag([0.0, 1.0 + 1e-8]))


def test_validated_matrices_are_exact_hermitian_read_only_copies(rng):
    # a Hermitian deviation far inside HERM_TOL, so canonicalization matters
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 3e-12j
    u = random_unitary(3, rng)

    def rotated(w):
        return (u * np.array(w)) @ u.conj().T + skew

    inside = np.array([[0.5, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, 0.25, 0.0], [0.0, 0.0, 0.25]]) + skew
    clip_state = rotated([-0.5e-9, 0.4, 0.6])
    renormalize = rotated([0.2, 0.3, 0.5 + 0.5e-9])
    clip_test = rotated([0.0, 0.5, 1.0 + 1e-12])
    assert np.trace(inside).real == 1.0 and eig(inside).eigenvalues[0] > 0.0
    assert eig(clip_state).eigenvalues[0] < 0.0
    assert abs(np.trace(renormalize).real - 1.0) > 1e-15
    assert eig(clip_test).eigenvalues[-1] > 1.0
    cases = [
        (inside, lambda m: DensityOperator(m).mat),
        (clip_state, lambda m: DensityOperator(m).mat),
        (renormalize, lambda m: DensityOperator(m).mat),
        (inside, lambda m: TestOperator(m).mat),
        (clip_test, lambda m: TestOperator(m).mat),
        (random_density(3, rng=rng), lambda m: mpow(m, 0.5)),
        (random_density(3, rank=2, rng=rng), support_projection),
    ]
    for given, build in cases:
        m = given.copy()
        out = build(m)
        kept = out.copy()
        assert np.array_equal(out, out.conj().T)
        assert not out.flags.writeable
        m[...] = 7.0
        assert np.array_equal(out, kept)


def test_decomposed_density_operator_keeps_its_spectrum(rng):
    # every density operator keeps the spectrum it was validated from, and eig
    # hands back that object
    rho = DensityOperator(np.eye(3) / 3)
    assert eig(rho) is rho.spectrum
    assert np.array_equal(rho.spectrum.eigenvalues, np.full(3, 1 / 3))
    assert np.array_equal(rho.spectrum.eigenvectors, np.eye(3))
    sign_flip = GroupAction.finite([np.eye(2), np.diag([1.0, -1.0])])
    for r in twirled_pair(random_density(2, rng=rng), random_density(2, rng=rng), sign_flip, 3):
        assert eig(r) is r.spectrum
        assert_allclose(r.spectrum.reconstruct(), r.mat, rtol=0, atol=1e-15)
    u = random_unitary(3, rng)
    # inside the range; the clip path (and a trace 1 + 0.5e-9 after it); a trace
    # to renormalize
    for w in ([0.2, 0.3, 0.5], [-0.5e-9, 0.4, 0.6], [0.2, 0.3, 0.5 + 0.5e-9]):
        m = (u * np.array(w)) @ u.conj().T
        raw = eig(m)
        rho = DensityOperator(m)
        spec = rho.spectrum
        assert eig(rho) is spec
        assert np.array_equal(spec.eigenvectors, raw.eigenvectors)
        assert spec.eigenvalues[0] >= 0.0
        assert_allclose(spec.eigenvalues, np.clip(w, 0.0, None) / sum(np.clip(w, 0.0, None)),
                        rtol=0, atol=1e-15)
        assert_allclose(spec.reconstruct(), rho.mat, rtol=0, atol=1e-15)
    m = (u * np.array([0.2, 0.3, 0.5])) @ u.conj().T
    assert np.array_equal(DensityOperator(m).spectrum.eigenvalues,
                          eig(m).eigenvalues)
    with pytest.raises(ValueError, match="eigenvalue more than 1e-09 outside"):
        DensityOperator(np.diag([1.0 + 1.01 * TRACE_TOL, -1.01 * TRACE_TOL]))


def test_decomposed_splits_along_hidden_blocks(rng, monkeypatch):
    sizes = (1, 2, 5, 17)
    d = sum(sizes)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for k, weight in zip(sizes, rng.dirichlet(np.ones(len(sizes)))):
        m[start : start + k, start : start + k] = weight * random_density(k, rng=rng)
        start += k
    perm = rng.permutation(d)
    m = m[np.ix_(perm, perm)]
    starts = np.cumsum((0,) + sizes)
    blocks = [set(np.flatnonzero((perm >= a) & (perm < b)).tolist())
              for a, b in zip(starts, starts[1:])]
    calls = []

    def counted(*args, _real=np.linalg.eigh, **kwargs):
        calls.append(len(args[0]))
        return _real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rho = DensityOperator(m)
    assert sorted(calls) == [2, 5, 17]
    spec, dense = rho.spectrum, eig(rho.mat)
    w, v = spec.eigenvalues, spec.eigenvectors
    assert_allclose(w, dense.eigenvalues, rtol=0, atol=1e-13)
    assert_allclose(spec.reconstruct(), dense.reconstruct(), rtol=0, atol=1e-13)
    assert_allclose(spec.reconstruct(), rho.mat, rtol=0, atol=1e-13)
    assert np.all(np.diff(w) >= 0.0)
    assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-12
    for k in range(d):
        rows = set(np.flatnonzero(v[:, k]).tolist())
        assert any(rows <= block for block in blocks)


def test_pair_that_cancels_in_the_canonical_copy_stays_one_block(monkeypatch):
    # +1e-11j at (0, 2) and (2, 0) passes HERM_TOL and cancels in (A + A*)/2,
    # but the block is the component of the nonzero pattern of m itself
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 2] = m[2, 0] = 1e-11j
    _, _, lone, comps = _split_eig(m, lambda idx, block: _eigh(block))
    assert lone.tolist() == [1] and [idx.tolist() for idx, _ in comps] == [[0, 2]]
    calls = []

    def counted(*args, _real=np.linalg.eigh, **kwargs):
        calls.append(len(args[0]))
        return _real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rho = DensityOperator(m)
    assert calls == [2]
    canonical = hermitian(m)
    assert np.array_equal(rho.mat, canonical)
    spec, dense = rho.spectrum, eig(canonical)
    assert (spec.cut == 0).tolist() == [False, True, False]
    assert_allclose(spec.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-13)
    assert_allclose(spec.reconstruct(), dense.reconstruct(), rtol=0, atol=1e-13)


def test_a_twirled_state_passes_the_hermitian_gate_once(monkeypatch, rng):
    # the sign-flip twirl at n = 6 splits into two 32x32 blocks, and the gate
    # runs on the whole matrix, not once per block
    n = 6
    m = twirl(kron_power(random_density(2, rng=rng), n), tensor_power(z2_action(), n))
    _, raw, lone, comps = _split_eig(m, lambda idx, block: _eigh(block))
    assert lone.size == 0 and [idx.size for idx, _ in comps] == [32, 32]
    assert raw.eigenvalues[0] > 0.0  # no clip, so no block is rebuilt
    calls = []

    def counted(a, _real=linalg.hermitian):
        calls.append(1)
        return _real(a)

    monkeypatch.setattr(linalg, "hermitian", counted)
    DensityOperator(m)
    assert len(calls) == 1


def test_a_real_block_of_a_complex_state_is_decomposed_as_float64(monkeypatch):
    m = np.zeros((4, 4), dtype=complex)
    m[:2, :2] = [[0.3, 0.1], [0.1, 0.2]]
    m[2:, 2:] = [[0.25, 0.1j], [-0.1j, 0.25]]
    dtypes = []

    def counted(a, *args, _real=np.linalg.eigh, **kwargs):
        dtypes.append(a.dtype)
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert DensityOperator(m).mat.dtype == np.complex128
    assert dtypes == [np.float64, np.complex128]


def blockwise_eig(m):
    """The spectrum DensityOperator assembles from the blocks of m, unclipped."""
    return _split_eig(m, lambda idx, block: _eigh(block))[1]


def test_blockwise_eig_of_a_matrix_without_zeros_is_eig(rng):
    m = hermitian(random_density(6, rng=rng))
    assert np.all(m != 0)
    blockwise, dense = blockwise_eig(m), eig(m)
    assert np.array_equal(blockwise.eigenvalues, dense.eigenvalues)
    assert np.array_equal(blockwise.eigenvectors, dense.eigenvectors)


def union_find_components(linked):
    """(lone, comps) of linked by a plain union-find over its off-diagonal links."""
    d = linked.shape[0]
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in zip(*np.nonzero(linked)):
        if i != j:
            parent[find(int(i))] = find(int(j))
    groups = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    members = sorted(groups.values())
    return [g[0] for g in members if len(g) == 1], [g for g in members if len(g) > 1]


def test_exactly_real_states_hold_the_real_field(rng):
    real = np.array([[0.3, 0.2], [0.2, 0.7]])
    for given in (real, real.tolist(), real.astype(complex)):
        rho = DensityOperator(given)
        assert rho.mat.dtype == np.float64
        assert rho.spectrum.eigenvectors.dtype == np.float64
        assert asmatrix(given).dtype == np.float64
    rho = DensityOperator(random_density(3, rng=rng))
    assert rho.mat.dtype == np.complex128
    assert rho.spectrum.eigenvectors.dtype == np.complex128
    assert_allclose(rho.spectrum.reconstruct(), rho.mat, rtol=0, atol=1e-14)
    # a twirled pair keeps the field of its states and group elements
    for kind, params in ((TORUS_PURE_VS_MIXED, {"alpha": 0.3}),
                         (Z2_COMMUTING, {"lam": 0.2, "mu": 0.7})):
        sc = make_scenario(kind, **params)
        assert all(u.dtype == np.float64 for u in sc.action.unitaries or ())
        for r in twirled_pair(sc.rho0, sc.rho1, sc.action, 4):
            assert r.mat.dtype == r.spectrum.eigenvectors.dtype == np.float64
    z2 = GroupAction.finite([np.eye(2), np.diag([1.0, -1.0])])
    cplx = random_density(2, rng=rng)
    for r in twirled_pair(cplx, cplx, z2, 4):
        assert r.mat.dtype == r.spectrum.eigenvectors.dtype == np.complex128


def test_components_match_a_union_find(rng):
    cases = [np.zeros((7, 7), dtype=bool), np.ones((7, 7), dtype=bool)]
    for d in range(1, 41):
        for density in (0.0, 0.02, 0.08, 0.3):
            upper = np.triu(rng.random((d, d)) < density, 1)
            linked = upper | upper.T
            np.fill_diagonal(linked, rng.random(d) < 0.5)  # the diagonal is ignored
            cases.append(linked)
    for linked in cases:
        lone, comps = components(linked)
        want_lone, want_comps = union_find_components(linked)
        assert lone.tolist() == want_lone
        assert [c.tolist() for c in comps] == want_comps
    lone, comps = components(np.eye(5, dtype=bool))
    assert lone.tolist() == [0, 1, 2, 3, 4] and comps == []
    lone, comps = components(np.ones((5, 5), dtype=bool))
    assert lone.size == 0 and [c.tolist() for c in comps] == [[0, 1, 2, 3, 4]]


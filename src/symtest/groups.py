"""Group actions, tensor powers, and the conditional expectation (twirl)
onto the commutant of a tensor-power representation.

Two kinds of action are supported: an explicit finite list of distinct
unitaries closed under multiplication, and the diagonal torus acting with
integer weights.  The torus twirl is exact pinching by total weight, never a
numerical Haar integral.  twirl, weyl_twirl and pinching_map take an array
or a DensityOperator and return a new array; the states they stand for are
built, and validated once, by twirled_pair or by the caller.

twirled_pair builds the twirled n-copy states without any d^n x d^n
product: for a finite group it averages the n-th tensor powers of the
conjugated single-copy states, (1/|G|) sum_g (U_g rho U_g^*)^{(x)n}, which
equals the twirl of rho^{(x)n} because U^{(x)n} rho^{(x)n} U^{(x)n *} =
(U rho U^*)^{(x)n}; for the torus it fills each weight class of the powered
weights directly, entry (x, y) the left-to-right product of rho[x_i, y_i]
as in kron_power, and forms no rho^{(x)n}.  A real state and real group
elements give a real twirled state (linalg.asmatrix keeps the smallest
exact field).  Each twirled state, like every DensityOperator, is validated
from its eigendecomposition and keeps it, so every consumer reads that
spectrum instead of decomposing the state again.  The twirl lands in the
commutant, which is block diagonal up to a permutation, and writes the
zeros between its blocks exactly (the torus between weight classes, the
sign-flip average on odd-parity entries), so the validation runs one block
at a time.

block_structure describes the commutant, a direct sum of blocks
M_m (x) I_d, by the sorted multiset of its (m, d) pairs, which is all the
finite-n accounting reads: the Stein-gap allowance, the (sum_i d_i)^2
prefactor on absolute power traces and dim_growth.  block_structures gives
them for n = 1..n_max at once, and block_structure is its last.  The torus
reads the pairs off the weight counts.  A finite action adds one copy at a
time to one copy rho_l of each irrep, weighted by its multiplicity: a probe
twirled within each rho_l (x) U has one eigenvalue cluster per irreducible
copy, a second probe links the copies of one irrep (linalg.components), and
each copy must have character norm 1, as only an irreducible one has.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError
from .linalg import (
    DensityOperator,
    Frozen,
    as_state,
    asmatrix,
    cluster_slices,
    components,
    dim_cap,
    frob,
    kron_power,
    support_projection,
)

FINITE = "finite"
TORUS = "torus"


class GroupAction(Frozen):
    """A unitary representation given either as an explicit finite list of
    unitaries or as a torus weight vector (the diagonal exponents)."""

    __slots__ = ("kind", "unitaries", "weights")

    def __init__(self, kind: str, unitaries: tuple[np.ndarray, ...] | None = None,
                 weights: np.ndarray | None = None):
        if kind not in (FINITE, TORUS):
            raise ValueError(f"unknown action kind {kind!r}")
        if kind == FINITE:
            if not unitaries:
                raise ValueError("finite action needs at least one unitary")
        else:
            w = np.asarray(weights)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("torus action needs a nonempty weight vector")
            # numpy reads the list [1, True] as the integers [1, 1]
            if w.dtype.kind not in "iuf" or (
                    not isinstance(weights, np.ndarray)
                    and any(isinstance(x, bool) for x in weights)):
                raise ValueError("torus weights must be integers, not text or booleans")
            # beyond 2**53 a float no longer tells one integer from the next
            if not np.all((w >= -(2**53)) & (w <= 2**53) & (w == np.round(w))):
                raise ValueError("torus weights must be integers of magnitude at most 2**53")
            weights = w.astype(np.int64)
            weights.setflags(write=False)
        self._set(kind=kind, unitaries=unitaries, weights=weights)

    @property
    def dim(self) -> int:
        if self.kind == FINITE:
            return self.unitaries[0].shape[0]
        return int(self.weights.size)

    @staticmethod
    def finite(mats) -> "GroupAction":
        """Validated finite action: identity present, unitary elements (within
        1e-9), no element twice (two within 1e-9 max-abs are the same),
        closed under multiplication (within 1e-8).  A failed check is an
        error, never silently completed."""
        us = [asmatrix(u) for u in mats]
        d = us[0].shape[0]
        eye = np.eye(d)
        for u in us:
            if u.shape[0] != d:
                raise DimensionError("all group unitaries must share one dimension")
            if float(np.max(np.abs(u.conj().T @ u - eye))) > 1e-9:
                raise ValueError("group element is not unitary within 1e-09")
        if not any(float(np.max(np.abs(u - eye))) <= 1e-9 for u in us):
            raise ValueError("finite group list must contain the identity")
        for i, a in enumerate(us):
            for j in range(i):
                if float(np.max(np.abs(a - us[j]))) <= 1e-9:
                    raise ValueError(
                        f"finite group list repeats an element within 1e-09 (entries {j} and {i})")
        for a in us:
            for b in us:
                p = a @ b
                if min(float(np.max(np.abs(p - u))) for u in us) > 1e-8:
                    raise ValueError("finite group list is not closed under multiplication within 1e-08")
        frozen = []
        for u in us:
            u = u.copy()
            u.setflags(write=False)
            frozen.append(u)
        return GroupAction(FINITE, unitaries=tuple(frozen))

    @staticmethod
    def torus(weights) -> "GroupAction":
        return GroupAction(TORUS, weights=weights)

    @staticmethod
    def trivial(dim: int) -> "GroupAction":
        return GroupAction(FINITE, unitaries=(np.eye(dim),))


def _check_power_dim(action: GroupAction, n: int) -> None:
    if n < 1:
        raise ValueError("tensor power exponent must be >= 1")
    out_dim = action.dim**n
    cap = dim_cap()
    if out_dim > cap:
        raise DimensionError(f"tensor power dimension {out_dim} exceeds cap {cap}")


def tensor_power(action: GroupAction, n: int) -> GroupAction:
    """The n-fold tensor power of an action, on dimension dim**n."""
    _check_power_dim(action, n)
    if n == 1:
        return action
    if action.kind == TORUS:
        w = action.weights
        acc = w
        for _ in range(n - 1):
            acc = np.add.outer(acc, w).ravel()
        acc.setflags(write=False)
        # sums of n checked weights are exact in int64 but may pass the 2**53
        # bound on input weights, so they skip that check
        return GroupAction._of(kind=TORUS, unitaries=action.unitaries, weights=acc)
    powered = tuple(kron_power(u, n) for u in action.unitaries)
    return GroupAction(FINITE, unitaries=powered)


def _average_conjugations(m: np.ndarray, unitaries) -> np.ndarray:
    acc = np.zeros(m.shape, dtype=np.result_type(m, *unitaries))
    for u in unitaries:
        acc += u @ m @ u.conj().T
    return acc / len(unitaries)


def _check_operator_dim(m: np.ndarray, action: GroupAction) -> None:
    if m.shape[0] != action.dim:
        raise DimensionError(
            f"operator dimension {m.shape[0]} does not match action dimension {action.dim}"
        )


def twirl(x, action: GroupAction) -> np.ndarray:
    """Project onto the commutant of the action: group-average for a finite
    list, exact pinching by total weight for the torus.

    Takes an array or a DensityOperator and returns a new array.
    """
    m = asmatrix(x)
    _check_operator_dim(m, action)
    if action.kind == TORUS:
        w = action.weights
        return np.where(w[:, None] == w[None, :], m, 0.0)
    return _average_conjugations(m, action.unitaries)


def twirled_pair(rho0, rho1, action: GroupAction, n: int) -> tuple[DensityOperator, DensityOperator]:
    """The twirls of rho0^{(x)n} and rho1^{(x)n} under the n-fold powered
    action, each validated from the eigendecomposition that it keeps, taken
    block by block along the exact zeros of its matrix.

    A finite group averages (U rho U^*)^{(x)n} over its elements, which needs
    each element listed once (GroupAction.finite checks that), in the field
    of the conjugated states, decided before any power is formed; the torus
    fills the weight classes of the powered weights, and its entries are
    those of rho^{(x)n}.
    """
    _check_power_dim(action, n)
    if action.kind == TORUS:
        classes = _weight_classes(tensor_power(action, n).weights)
        digits = np.indices((action.dim,) * n).reshape(n, -1)
    out = []
    for rho in (rho0, rho1):
        m = asmatrix(rho)
        _check_operator_dim(m, action)
        if action.kind == TORUS:
            mat = np.zeros((action.dim**n,) * 2, dtype=m.dtype)
            for idx in classes:
                # entry (x, y) of the class block is the left-to-right product
                # of m[x_i, y_i], as in kron_power
                rows = digits[:, idx]
                block = m[rows[0][:, None], rows[0]]
                for r in rows[1:]:
                    block = block * m[r[:, None], r]
                mat[idx[:, None], idx] = block
        else:
            conjugated = [asmatrix(u @ m @ u.conj().T) for u in action.unitaries]
            mat = np.zeros((action.dim**n,) * 2, dtype=np.result_type(*conjugated))
            for c in conjugated:
                mat += kron_power(c, n)
            mat /= len(action.unitaries)
        out.append(DensityOperator(mat))
        del mat
    return out[0], out[1]


def _weight_classes(weights: np.ndarray) -> list[np.ndarray]:
    """The ascending index sets of equal weight."""
    order = np.argsort(weights, kind="stable")
    cuts = np.flatnonzero(np.diff(weights[order])) + 1
    return np.split(order, cuts)


def is_support_invariant(rho1, action: GroupAction) -> bool:
    """Whether the support projection of rho1 is fixed by the action, within 1e-8."""
    p = support_projection(as_state(rho1))
    return float(np.max(np.abs(twirl(p, action) - p))) <= 1e-8


def _random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _level_classes(reps: np.ndarray, offsets: np.ndarray, weights: list[int], rng):
    """(summed weight, basis of one copy) per irrep of a level whose reps are
    block diagonal at offsets, or None if an irrep's copies differ in rank."""
    total = reps.shape[1]
    h1, h2 = _random_hermitian(rng, total), _random_hermitian(rng, total)
    t2 = _average_conjugations(h2, reps)
    basis = np.zeros((total, total), dtype=complex)
    clusters = []  # (summand, columns)
    for s, (a, b) in enumerate(zip(offsets, offsets[1:])):
        t1 = _average_conjugations(h1[a:b, a:b], reps[:, a:b, a:b])
        w, basis[a:b, a:b] = np.linalg.eigh((t1 + t1.conj().T) / 2.0)
        scale = max(1.0, float(np.max(np.abs(w))))
        clusters += [(s, slice(a + r.start, a + r.stop)) for r in cluster_slices(w, 1e-8 * scale)]
    # coupling[i, j] is the squared Frobenius norm of t2 between the
    # eigenvector clusters i and j, so they are linked when that norm
    # exceeds conn_tol
    edges = [c.start for _, c in clusters]
    overlap = np.abs(basis.conj().T @ t2 @ basis) ** 2
    coupling = np.add.reduceat(np.add.reduceat(overlap, edges, axis=0), edges, axis=1)
    conn_tol = 1e-8 * max(1.0, frob(t2))
    lone, comps = components(coupling > conn_tol**2)
    classes = []
    for members in [[i] for i in lone] + comps:
        if len({clusters[i][1].stop - clusters[i][1].start for i in members}) != 1:
            return None  # an accidental eigenvalue collision merged copies
        classes.append((sum(weights[clusters[i][0]] for i in members),
                        basis[:, clusters[members[0]][1]]))
    return classes


def _finite_levels(action: GroupAction, n_max: int) -> list[list[tuple[int, int]]]:
    """The block structures of the k-fold powers, k = 1..n_max; a copy B of
    each irrep gives B* R(g) B for the next level, checked irreducible by its
    character norm."""
    us = np.stack(action.unitaries)
    order, d = us.shape[0], action.dim
    irreps = [(1, np.ones((order, 1, 1)))]
    rng = np.random.default_rng([0x5EED, d, order])
    out = []
    for k in range(1, n_max + 1):
        offsets = np.cumsum([0, *(r.shape[1] * d for _, r in irreps)])
        reps = np.zeros((order, offsets[-1], offsets[-1]), dtype=complex)
        for (_, r), a, b in zip(irreps, offsets, offsets[1:]):
            reps[:, a:b, a:b] = np.einsum("gab,gcd->gacbd", r, us).reshape(order, b - a, -1)
        weights = [m for m, _ in irreps]
        first = _level_classes(reps, offsets, weights, rng)
        second = _level_classes(reps, offsets, weights, rng)
        if first is None or second is None:
            raise ConvergenceError(f"block extraction failed at n = {k} copies: "
                                   "degenerate probe spectrum")
        shape, other = (sorted((m, v.shape[1]) for m, v in c) for c in (first, second))
        if shape != other or sum(m * e for m, e in shape) != d**k:
            raise ConvergenceError(f"block extraction at n = {k} copies: {shape}, {other} "
                                   f"differ or miss {d**k}")
        out.append(shape)
        irreps = [(m, v.conj().T @ reps @ v) for m, v in first]
        for _, r in irreps:
            # (1/|G|) sum_g |Tr r(g)|^2 is 1 exactly when the copy is irreducible
            norm = float(np.mean(np.abs(np.einsum("gii->g", r)) ** 2))
            if abs(norm - 1.0) > 1e-8:
                raise ConvergenceError(f"block extraction failed at n = {k} copies: reducible "
                                       f"copy of dimension {r.shape[1]} (character norm {norm:.6g})")
    return out


def block_structures(action: GroupAction, n_max: int) -> list[list[tuple[int, int]]]:
    """The commutants of the n-fold powered actions, n = 1..n_max, each as
    the sorted multiset of (multiplicity, irrep_dim) pairs (m_i, d_i) of its
    blocks M_m (x) I_d: the torus's from the weight counts of each power, a
    finite action's from its irreps, one copy at a time in one pass."""
    for n in range(1, n_max + 1):
        _check_power_dim(action, n)
    if action.kind == FINITE:
        return _finite_levels(action, n_max)
    return [sorted((int(c), 1) for c in np.unique(tensor_power(action, n).weights,
                                                  return_counts=True)[1])
            for n in range(1, n_max + 1)]


def block_structure(action: GroupAction, n: int) -> list[tuple[int, int]]:
    """The block structure of the n-fold powered action, the last of
    :func:`block_structures`."""
    _check_power_dim(action, n)  # past the cap, the error names this n, not the first k over it
    return block_structures(action, n)[-1]


def dim_growth(action: GroupAction, n_max: int) -> list[float]:
    """(1/n) log sum_i d_i for n = 1..n_max, read off one
    :func:`block_structures`; decays to zero for compact groups."""
    shapes = block_structures(action, n_max)
    return [float(np.log(sum(d for _, d in b))) / n for n, b in enumerate(shapes, start=1)]


def _weyl_unitaries(d: int) -> list[np.ndarray]:
    """The d**2 discrete Weyl (shift/clock) unitaries on dimension d."""
    if d == 1:
        return [np.eye(1, dtype=complex)]
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    omega = np.exp(2j * np.pi / d)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for k1 in range(d):
        vk = np.linalg.matrix_power(clock, k1)
        for k2 in range(d):
            phase = np.exp(-1j * np.pi * k1 * k2 / d)
            ops.append(phase * vk @ np.linalg.matrix_power(shift, k2))
    return ops


def weyl_twirl(a, m: int, d: int) -> np.ndarray:
    """Average of A under I_m tensor W_k over all d**2 Weyl unitaries W_k.

    Realizes the conditional expectation from M_m tensor M_d onto
    M_m tensor I_d, i.e. the partial trace over the d factor divided by d,
    re-embedded as ... tensor I_d.
    """
    mat = asmatrix(a)
    if mat.shape[0] != m * d:
        raise DimensionError(
            f"dimension {mat.shape[0]} is not factorable as m*d = {m}*{d}"
        )
    eye_m = np.eye(m, dtype=complex)
    return _average_conjugations(mat, [np.kron(eye_m, w) for w in _weyl_unitaries(d)])


def pinching_map(x, action: GroupAction, projections) -> np.ndarray:
    """Twirl, then pinch by the given family of mutually orthogonal projections."""
    projs = [asmatrix(p) for p in projections]
    for i, pi in enumerate(projs):
        for pj in projs[i + 1 :]:
            if float(np.max(np.abs(pi @ pj))) > 1e-8:
                raise ValueError("pinching projections are not orthogonal within 1e-8")
    t = twirl(x, action)
    out = np.zeros(t.shape, dtype=np.result_type(t, *projs))
    for p in projs:
        out += p @ t @ p
    return out

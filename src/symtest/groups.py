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
prefactor on absolute power traces and dim_growth.  The torus reads the
pairs off the weight counts; a finite action reads them off the eigenvalue
clusters of a twirled probe, linked by a second probe through the same
component finder (linalg.components).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError
from .linalg import (
    DensityOperator,
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


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A unitary representation given either as an explicit finite list of
    unitaries or as a torus weight vector (the diagonal exponents)."""

    kind: str
    unitaries: tuple[np.ndarray, ...] | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (FINITE, TORUS):
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind == FINITE:
            if not self.unitaries:
                raise ValueError("finite action needs at least one unitary")
        else:
            w = np.asarray(self.weights)
            if w.ndim != 1 or w.size == 0:
                raise ValueError("torus action needs a nonempty weight vector")
            # numpy reads the list [1, True] as the integers [1, 1]
            if w.dtype.kind not in "iuf" or (
                    not isinstance(self.weights, np.ndarray)
                    and any(isinstance(x, bool) for x in self.weights)):
                raise ValueError("torus weights must be integers, not text or booleans")
            # beyond 2**53 a float no longer tells one integer from the next
            if not np.all((w >= -(2**53)) & (w <= 2**53) & (w == np.round(w))):
                raise ValueError("torus weights must be integers of magnitude at most 2**53")
            w = w.astype(np.int64)
            w.setflags(write=False)
            object.__setattr__(self, "weights", w)

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
        powered = copy.copy(action)
        object.__setattr__(powered, "weights", acc)
        return powered
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


def _finite_blocks(unitaries, dim: int) -> list[tuple[int, int]]:
    """Numerical isotypic decomposition of the commutant of a finite action.

    A generic twirled Hermitian probe has eigenvalue clusters of size d_i,
    m_i of them per block; a second twirled probe connects clusters that sit
    in the same block.  Run twice and require the (m, d) multiset to agree.
    """

    def attempt(tag: int):
        rng = np.random.default_rng([0x5EED, dim, len(unitaries), tag])
        t1 = _average_conjugations(_random_hermitian(rng, dim), unitaries)
        t2 = _average_conjugations(_random_hermitian(rng, dim), unitaries)
        w, v = np.linalg.eigh((t1 + t1.conj().T) / 2.0)
        scale = max(1.0, float(np.max(np.abs(w))))
        runs = cluster_slices(w, 1e-8 * scale)
        sizes = [run.stop - run.start for run in runs]
        # coupling[i, j] is the squared Frobenius norm of t2 between the
        # eigenvector clusters i and j, so they are linked when that norm
        # exceeds conn_tol
        edges = [run.start for run in runs]
        overlap = np.abs(v.conj().T @ t2 @ v) ** 2
        coupling = np.add.reduceat(np.add.reduceat(overlap, edges, axis=0), edges, axis=1)
        conn_tol = 1e-8 * max(1.0, frob(t2))
        lone, comps = components(coupling > conn_tol**2)

        shape = [(1, sizes[i]) for i in lone]
        for members in comps:
            ranks = {sizes[i] for i in members}
            if len(ranks) != 1:
                return None  # an accidental eigenvalue collision merged blocks
            shape.append((len(members), ranks.pop()))
        return sorted(shape)

    first = attempt(1)
    second = attempt(2)
    if first is None or second is None:
        raise ConvergenceError(
            f"block extraction failed for dimension {dim}: degenerate probe spectrum"
        )
    if first != second:
        raise ConvergenceError(
            f"block extraction did not stabilize across probes: {first} vs {second}"
        )
    if sum(m * d for m, d in first) != dim:
        raise ConvergenceError(
            f"block extraction lost dimensions: {first} does not fill {dim}"
        )
    return first


def block_structure(action: GroupAction, n: int) -> list[tuple[int, int]]:
    """The commutant of the n-fold powered action as the sorted multiset of
    (multiplicity, irrep_dim) pairs (m_i, d_i) of its blocks M_m (x) I_d."""
    powered = tensor_power(action, n)
    if powered.kind == TORUS:
        _, counts = np.unique(powered.weights, return_counts=True)
        return sorted((int(c), 1) for c in counts)
    return _finite_blocks(powered.unitaries, powered.dim)


def dim_growth(action: GroupAction, n_max: int) -> list[float]:
    """(1/n) log sum_i d_i for n = 1..n_max; decays to zero for compact groups."""
    out = []
    for n in range(1, n_max + 1):
        total = sum(d for _, d in block_structure(action, n))
        out.append(float(np.log(total)) / n)
    return out


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

"""Schur-Weyl blocks of the twirled n-copy pair of qubit states.

For a qubit state, rho^{(x)n} is the direct sum over t = 0..n//2 of
det(rho)^t Sym^{n-2t}(rho) (x) I_{m_t}, with m_t = C(n, t) - C(n, t - 1)
(Bacon-Chuang-Harrow, quant-ph/0407082), and a group acting as U^{(x)n}
acts on block t as Sym^{n-2t}(U), whose phase cancels under conjugation.  So
the twirl of rho^{(x)n} under a finite group or the torus is n//2 + 1 blocks
of size at most n + 1, and schur_weyl_pair builds them without any 2^n-sized
array.  groups.twirled_pair builds the same pair densely; it stays the route
for d > 2 and the oracle the blocks are tested against.  The module is
imported by PsiEvaluator.twirled when a qubit pair first takes the route.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DimensionError
from .groups import TORUS, GroupAction, _check_power_dim
from .linalg import (
    TRACE_TOL,
    DensityOperator,
    Spectrum,
    _assembled_eig,
    _eigh,
    _gram_eigh,
    asmatrix,
    hermitian,
    matrix_pair,
)


def schur_weyl_pair(rho0, rho1, action: GroupAction, n: int) -> tuple[list, list]:
    """The twirls of rho0^{(x)n} and rho1^{(x)n} of a qubit pair as their
    Schur-Weyl blocks, without any 2^n x 2^n array: per state the list of
    (m_t, spectrum of block t) for t = 0..n//2, where block t has dimension
    n - 2t + 1 and multiplicity m_t = C(n, t) - C(n, t - 1), so that
    sum_t m_t (n - 2t + 1) = 2^n.

    rho^{(x)n} is the direct sum over t of det(rho)^t Sym^{n-2t}(rho) (x)
    I_{m_t}, and U^{(x)n} acts on block t as Sym^{n-2t}(U), whose phase
    cancels under conjugation.  With rho = V diag(lam) V^* from the kept
    single-copy spectrum (its dropped eigenvalues set to 0, so a pure state's
    det is exactly 0), block t of a finite group's twirl is
    det^t (1/|G|) sum_g S_g Lam S_g^*, with S_g = Sym^{n-2t}(U_g V) in the
    orthonormal Dicke basis and Lam = Sym^{n-2t}(diag(lam)); the torus keeps
    the diagonal of S Lam S^*, a sum of nonnegative terms, when its two
    weights differ (each Dicke state has its own weight), and the whole block
    when they are equal.

    Each block passes the checks DensityOperator runs per block: the
    Hermitian gate, a checked eigendecomposition, the clip at -TRACE_TOL,
    and the trace gate and renormalization over sum_t m_t Tr B_t.  Block t
    is f f^* for f = [S_g sqrt(det^t Lam)]_g / sqrt(|G|), so its eigenpairs
    come from the singular value decomposition of f (linalg._gram_eigh),
    which resolves an eigenvalue w to about eps * sqrt(w * max) where eigh
    of the block resolves eps * max; the diagonal pinched block goes through
    eigh, which reads a diagonal exactly.  An eigenvalue is exact where the
    dense twirled state would split into 1x1 components (_isolated_weights),
    and is then that component's entry; linalg.block_supports keeps it when
    it is positive and cuts every other eigenvalue at the level above_cut
    sets for the whole spectrum of dimension 2^n.
    """
    _check_power_dim(action, n)
    m0, _ = matrix_pair(rho0, rho1)
    if action.dim != 2 or m0.shape[0] != 2:
        raise DimensionError(
            f"Schur-Weyl blocks need qubits, got states of dimension {m0.shape[0]} "
            f"and an action of dimension {action.dim}")
    return _schur_weyl_blocks(rho0, action, n), _schur_weyl_blocks(rho1, action, n)


def _schur_weyl_blocks(rho, action: GroupAction, n: int) -> list[tuple[int, Spectrum]]:
    state = rho if isinstance(rho, DensityOperator) else DensityOperator(rho)
    m, spec = state.mat, state.spectrum
    lam = np.where(spec.support_mask(), spec.eigenvalues, 0.0)
    # a group is a set: taken in a fixed order, its elements give the same
    # factor f, so the same blocks, whatever order the list has
    unitaries = ([np.eye(2)] if action.kind == TORUS
                 else sorted(action.unitaries, key=np.ndarray.tobytes))
    # the single-copy matrices whose n-th tensor powers the dense route averages
    singles = [m] if action.kind == TORUS else [asmatrix(u @ m @ u.conj().T) for u in unitaries]
    pinched = action.kind == TORUS and bool(action.weights[0] != action.weights[1])
    isolated, diagonal = _isolated_weights(np.array(singles), n, pinched)
    factors = np.array([u @ spec.eigenvectors for u in unitaries])
    root = np.sqrt(lam)
    blocks, traces = [], []
    for t in range(n // 2 + 1):
        size = n - 2 * t + 1
        # block t is f f^* with f = [S_g sqrt(det^t Lam)]_g / sqrt(|G|)
        scale = (root[0] * root[1]) ** t * (root[0] ** np.arange(size - 1, -1, -1)
                                            * root[1] ** np.arange(size))
        f = np.concatenate(_sym_powers(factors, size - 1) * scale, axis=1)
        f /= math.sqrt(len(factors))
        block = hermitian(np.diag((np.abs(f) ** 2).sum(axis=1)) if pinched else f @ f.conj().T)
        # Dicke state j of block t has t + j ones
        exact = isolated[t : n - t + 1]
        lone, rest = np.flatnonzero(exact), np.flatnonzero(~exact)
        comps, specs = [], []
        if rest.size:
            sub = block[rest[:, None], rest]
            comps, specs = [rest], [_eigh(sub) if pinched else _gram_eigh(f[rest], sub)]
        mult = math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
        blocks.append((mult, _assembled_eig(diagonal[t + lone], lone, comps, specs)[0]))
        traces.append(float(diagonal[t + lone].sum() + block.diagonal()[rest].real.sum()))
    tr = sum(mult * x for (mult, _), x in zip(blocks, traces))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be 1 within {TRACE_TOL:g}, got {tr!r}")
    clipped = [(mult, spec.clipped(0.0, np.inf, TRACE_TOL)) for mult, spec in blocks]
    tr = sum(mult * (x if c is spec else float(c.eigenvalues.sum()))
             for (mult, spec), (_, c), x in zip(blocks, clipped, traces))
    if abs(tr - 1.0) > 1e-15:
        clipped = [(mult, Spectrum(c.eigenvalues / tr, c.eigenvectors, c.exact))
                   for mult, c in clipped]
    return clipped


def _power_tables(a: np.ndarray, m: int) -> np.ndarray:
    """c**0..c**m, as repeated products, of each entry c of each 2x2 matrix
    in a, shape (len(a), 4, m + 1), the entries in the order 00, 01, 10, 11."""
    table = np.empty((len(a), 4, m + 1), dtype=a.dtype)
    table[..., 0] = 1.0
    table[..., 1:] = a.reshape(-1, 4, 1)
    return np.cumprod(table, axis=-1)


@functools.lru_cache(maxsize=None)
def _link_pattern(n: int, pinched: bool) -> tuple[np.ndarray, ...]:
    """For _isolated_weights: the mask of the (k, n01, n10) that link a string
    with k ones to another, and the exponents of c00, c01, c10, c11."""
    k, a, b = np.ogrid[: n + 1, : n + 1, : n + 1]  # a = n01, b = n10
    links = (a <= n - k) & (b <= k) & (a + b > 0)
    if pinched:
        links = links & (a == b)
    return _frozen(links, np.clip(n - k - a, 0, n), a, b, np.clip(k - b, 0, n))


def _isolated_weights(singles: np.ndarray, n: int, pinched: bool) -> tuple[np.ndarray, np.ndarray]:
    """Whether each weight class k = 0..n (the basis strings with k ones) of
    the dense twirled state splits into 1x1 components, as DensityOperator
    splits it along the exact zeros of its matrix, and the diagonal entry of
    each class.

    Entry (x, y) of the average of the c^{(x)n} over the single-copy matrices
    c in singles is the average of c00^n00 c01^n01 c10^n10 c11^n11, where
    n_ab counts the positions with (x_i, y_i) = (a, b); a string x with k
    ones is alone in its row when that average is zero for every y != x.
    The torus with two distinct weights (pinched) keeps only the entries with
    n01 = n10.  Powers are repeated products, so an entry that underflows
    counts as zero, as it does in the dense matrix.
    """
    links, e00, e01, e10, e11 = _link_pattern(n, pinched)
    p = _power_tables(singles, n)
    total = (p[:, 0, e00] * p[:, 1, e01] * p[:, 2, e10] * p[:, 3, e11]).sum(axis=0)
    isolated = ~np.any(links & (total != 0), axis=(1, 2))
    return isolated, total[:, 0, 0].real / len(singles)


@functools.lru_cache(maxsize=None)
def _expansion(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of Sym^m of a 2x2 matrix a in the orthonormal Dicke basis,
    indexed by the number of ones.  Column l applies a to each factor of
    x^(m-l) y^l: (a00 x + a10 y)^(m-l) (a01 x + a11 y)^l, whose coefficient
    of x^(m-k) y^k, times sqrt(C(m, l) / C(m, k)), is entry (k, l), since the
    Dicke state with k ones is sqrt(C(m, k)) x^(m-k) y^k.  Term (k, l, i),
    with i ones from the first factor and j = k - i from the second, is
    coef * a00^(m-l-i) a01^(l-j) a10^i a11^j; returns coef, those exponents
    and the first term of each entry, the terms sorted by entry."""
    k, l, i = (x.ravel() for x in np.indices((m + 1,) * 3))
    j = k - i
    keep = (i <= m - l) & (j >= 0) & (j <= l)
    k, l, i, j = k[keep], l[keep], i[keep], j[keep]
    binom = np.zeros((m + 1, m + 1))
    binom[:, 0] = 1.0
    for p in range(1, m + 1):
        binom[p, 1:] = binom[p - 1, 1:] + binom[p - 1, :-1]
    coef = binom[m - l, i] * binom[l, j] * np.sqrt(binom[m, l] / binom[m, k])
    starts = np.flatnonzero(np.r_[True, np.diff(k * (m + 1) + l) != 0])
    return _frozen(coef, np.stack([m - l - i, l - j, i, j]), starts)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, read-only: a cached result is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _sym_powers(a: np.ndarray, m: int) -> np.ndarray:
    """Sym^m of each 2x2 matrix in a (see _expansion), shape (len(a), m + 1, m + 1)."""
    coef, (e00, e01, e10, e11), starts = _expansion(m)
    p = _power_tables(a, m)
    terms = coef * p[:, 0, e00] * p[:, 1, e01] * p[:, 2, e10] * p[:, 3, e11]
    return np.add.reduceat(terms, starts, axis=1).reshape(-1, m + 1, m + 1)

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
from .linalg import DensityOperator, Spectrum, _gram_eigh, _split_eig, _state_rule, state_pair


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

    The blocks are made a state by linalg's one state rule, the rule a
    DensityOperator runs, with the n//2 + 1 parts (m_t, Tr B_t, spectrum of
    B_t).  Each block passes the Hermitian gate once and splits along its
    exact zeros (linalg._split_eig); a 1x1 component is an exact
    eigenpair, its entry (so every eigenvalue of a pinched block, a sum of
    nonnegative terms, is exact); a larger component is f[idx] f[idx]^* for
    its rows idx of f = [S_g sqrt(det^t Lam)]_g / sqrt(|G|), so its
    eigenpairs come from the singular value decomposition of f[idx]
    (linalg._gram_eigh), which resolves an eigenvalue w to about
    eps * sqrt(w * max) where eigh resolves eps * max.  Then
    linalg._state_rule gates sum_t m_t Tr B_t, clips and renormalizes.
    Each eigenpair carries the cut of its component, as on the dense route:
    0 for a 1x1 component, else the component's size times eps times its
    largest eigenvalue, whatever the other components and blocks hold.
    """
    _check_power_dim(action, n)
    s0, s1 = state_pair(rho0, rho1)
    if action.dim != 2 or s0.dim != 2:
        raise DimensionError(
            f"Schur-Weyl blocks need qubits, got states of dimension {s0.dim} "
            f"and an action of dimension {action.dim}")
    return _schur_weyl_blocks(s0, action, n), _schur_weyl_blocks(s1, action, n)


def _schur_weyl_blocks(rho: DensityOperator, action: GroupAction, n: int) -> list[tuple[int, Spectrum]]:
    spec = rho.spectrum
    lam = np.where(spec.support_mask(), spec.eigenvalues, 0.0)
    # a group is a set: taken in a fixed order, its elements give the same
    # factor f, so the same blocks, whatever order the list has
    unitaries = ([np.eye(2)] if action.kind == TORUS
                 else sorted(action.unitaries, key=np.ndarray.tobytes))
    pinched = action.kind == TORUS and bool(action.weights[0] != action.weights[1])
    factors = np.array([u @ spec.eigenvectors for u in unitaries])
    root = np.sqrt(lam)
    parts = []
    for t in range(n // 2 + 1):
        size = n - 2 * t + 1
        # block t is f f^* with f = [S_g sqrt(det^t Lam)]_g / sqrt(|G|)
        scale = (root[0] * root[1]) ** t * (root[0] ** np.arange(size - 1, -1, -1)
                                            * root[1] ** np.arange(size))
        fs = _sym_powers(factors, size - 1) * (scale / math.sqrt(len(factors)))
        f = np.concatenate(fs, axis=1)
        # summed over g entry by entry, so that terms the group averages to
        # zero cancel exactly, as they do in the dense twirl
        block = (np.diag((np.abs(f) ** 2).sum(axis=1)) if pinched
                 else (fs @ fs.conj().transpose(0, 2, 1)).sum(axis=0))
        # a larger component of the block is decomposed through the
        # singular values of its rows of f
        mat, block_spec, _, _ = _split_eig(block, lambda idx, sub: _gram_eigh(f[idx], sub))
        mult = math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
        parts.append((mult, float(np.trace(mat).real), block_spec))
    spectra, _ = _state_rule(parts)
    return [(mult, s) for (mult, _, _), s in zip(parts, spectra)]


def _power_tables(a: np.ndarray, m: int) -> np.ndarray:
    """c**0..c**m, as repeated products, of each entry c of each 2x2 matrix
    in a, shape (len(a), 4, m + 1), the entries in the order 00, 01, 10, 11."""
    table = np.empty((len(a), 4, m + 1), dtype=a.dtype)
    table[..., 0] = 1.0
    table[..., 1:] = a.reshape(-1, 4, 1)
    return np.cumprod(table, axis=-1)


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

"""Schur-Weyl blocks of the twirled n-copy state of a qubit state.

For a qubit state, rho^{(x)n} is the direct sum over t = 0..n//2 of
det(rho)^t Sym^{n-2t}(rho) (x) I_{m_t}, with m_t = C(n, t) - C(n, t - 1)
(Bacon-Chuang-Harrow, quant-ph/0407082), and a group acting as U^{(x)n}
acts on block t as Sym^{n-2t}(U), whose phase cancels under conjugation.  So
the twirl of rho^{(x)n} under a finite group or the torus is n//2 + 1 blocks
of size at most n + 1, block t being det^t G_{n-2t}(rho) for a G_m that does
not depend on n.  SymBlocks builds and decomposes each G_m of one state once
and reads every n off them, without any 2^n-sized array; each block is a
Block, the matrix and the spectrum a DensityOperator holds.
groups.twirled_pair builds the same pair densely; it stays the route for
d > 2 and the oracle the blocks are tested against.  The one reader of the
module is divergences.TwirledSweep, which imports it when a qubit pair first
takes the route and hands out the pair at n as the parts (m_t, block t of
rho0, block t of rho1).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .groups import TORUS, GroupAction
from .linalg import DensityOperator, Frozen, Spectrum, _gated_eig, _gram_eigh, _state_rule


class Block(Frozen):
    """Block t of a twirled n-copy state: its canonical matrix, read-only,
    and its spectrum, the two fields a DensityOperator has."""

    __slots__ = ("mat", "spectrum")

    def __init__(self, mat: np.ndarray, spectrum: Spectrum):
        self._set(mat=mat, spectrum=spectrum)


class SymBlocks:
    """The Schur-Weyl blocks of the twirled n-copy state of one qubit state
    under an action, for every n, without any 2^n x 2^n array, each G_m built
    and decomposed once.

    :meth:`blocks` gives, for t = 0..n//2, the multiplicity
    m_t = C(n, t) - C(n, t - 1) and block t, of dimension n - 2t + 1, so that
    sum_t m_t (n - 2t + 1) = 2^n.

    Block t of the twirl is det^t G_{n-2t}, with
    G_m = (1/|G|) sum_g Sym^m(U_g) Sym^m(rho) Sym^m(U_g)^*, which does not
    depend on n: G_m is built and decomposed when an n first needs it, kept
    as (trace, spectrum, canonical matrix), and block t of every later n is
    read off it, its eigenvalues, cuts and canonical matrix times det^t.  A
    pure state's det is exactly 0 (its dropped eigenvalue is set to 0), so
    its blocks t > 0 are zero: a zero matrix and its spectrum of exact zeros,
    nothing kept.

    With rho = V diag(lam) V^* from the kept single-copy spectrum, G_m of a
    finite group is (1/|G|) sum_g S_g Lam S_g^*, with S_g = Sym^m(U_g V) in
    the orthonormal Dicke basis and Lam = Sym^m(diag(lam)); the torus keeps
    the diagonal of S Lam S^*, a sum of nonnegative terms, when its two
    weights differ (each Dicke state has its own weight), and the whole block
    when they are equal.  G_m passes the Hermitian gate once and splits along
    its exact zeros (linalg._gated_eig); a 1x1 component is an eigenpair,
    its entry (not exact for a generic state: ROADMAP item 1); a larger
    component is f[idx] f[idx]^* for its rows idx of
    f = [S_g sqrt(Lam)]_g / sqrt(|G|), so its eigenpairs come from the
    singular value decomposition of f[idx] (linalg._gram_eigh),
    which resolves an eigenvalue w to about eps * sqrt(w * max) where eigh
    resolves eps * max.  Each eigenpair carries the cut of its component, as
    on the dense route: 0 for a 1x1 component, else the component's size
    times eps times its largest eigenvalue, whatever the other components and
    blocks hold.

    For every n the blocks are made a state by linalg's one state rule, the
    rule a DensityOperator runs, with the n//2 + 1 parts (m_t, Tr B_t,
    spectrum of B_t): it gates sum_t m_t Tr B_t, clips and renormalizes.
    Block t itself is its canonical matrix, read-only, divided by the trace
    the state rule divided its spectrum by.  No clip can move a block's
    spectrum off its matrix, since every eigenvalue is a square (a singular
    value of f[idx]) or a sum of squares (a 1x1 component's entry).  The
    caller checks that the state is a qubit and the dimension cap against
    2^n, as on the dense route.
    """

    def __init__(self, rho: DensityOperator, action: GroupAction):
        spec = rho.spectrum
        lam = np.where(spec.support_mask(), spec.eigenvalues, 0.0)
        # a group is a set: taken in a fixed order, its elements give the same
        # factor f, so the same blocks, whatever order the list has
        unitaries = ([np.eye(2)] if action.kind == TORUS
                     else sorted(action.unitaries, key=np.ndarray.tobytes))
        self._pinched = action.kind == TORUS and bool(action.weights[0] != action.weights[1])
        self._factors = np.array([u @ spec.eigenvectors for u in unitaries])
        self._root = np.sqrt(lam)
        self._det = float(lam[0] * lam[1])
        self._built: dict[int, tuple[float, Spectrum, np.ndarray]] = {}

    def _block(self, m: int) -> tuple[float, Spectrum, np.ndarray]:
        if m not in self._built:
            root = self._root
            # G_m is f f^* with f = [S_g sqrt(Lam)]_g / sqrt(|G|)
            scale = root[0] ** np.arange(m, -1, -1) * root[1] ** np.arange(m + 1)
            fs = _sym_powers(self._factors, m) * (scale / math.sqrt(len(self._factors)))
            f = np.concatenate(fs, axis=1)
            # summed over g entry by entry, so that terms the group averages to
            # zero cancel exactly, as they do in the dense twirl
            block = (np.diag((np.abs(f) ** 2).sum(axis=1)) if self._pinched
                     else (fs @ fs.conj().transpose(0, 2, 1)).sum(axis=0))
            # a larger component of the block is decomposed through the
            # singular values of its rows of f
            mat, spec, _, _ = _gated_eig(block, lambda idx, sub: _gram_eigh(f[idx], sub))
            self._built[m] = (float(np.trace(mat).real), spec, mat)
        return self._built[m]

    def blocks(self, n: int) -> list[tuple[int, Block]]:
        """(m_t, block t) for t = 0..n//2 of the twirled rho^{(x)n}, block t
        being det^t G_{n-2t}, made a state together."""
        parts, mats = [], []
        for t in range(n // 2 + 1):
            mult = math.comb(n, t) - (math.comb(n, t - 1) if t else 0)
            scale = self._det ** t
            if scale == 0.0:
                trace, spec, mat = _zero_block(n - 2 * t + 1)
            elif t:
                trace, spec, mat = _times(*self._block(n - 2 * t), scale)
            else:
                trace, spec, mat = self._block(n)
            parts.append((mult, trace, spec))
            mats.append(mat)
        spectra, tr = _state_rule(parts)
        if tr != 1.0:
            # a canonical matrix over its real trace stays exactly Hermitian
            mats = [_frozen(mat / tr)[0] for mat in mats]
        return [(mult, Block(mat, s)) for (mult, _, _), s, mat in zip(parts, spectra, mats)]


def _times(trace: float, spec: Spectrum, mat: np.ndarray,
           c: float) -> tuple[float, Spectrum, np.ndarray]:
    """The block (trace, spectrum, canonical matrix) of c > 0 times the
    operator: the same eigenvectors, eigenvalues and cuts times c, and a real
    multiple of a canonical matrix stays exactly Hermitian."""
    w, cut, scaled = _frozen(spec.eigenvalues * c, spec.cut * c, mat * c)
    return c * trace, Spectrum(w, spec.eigenvectors, cut), scaled


def _zero_block(size: int) -> tuple[float, Spectrum, np.ndarray]:
    """The zero block of a size: trace 0, the spectrum _gated_eig gives a zero
    matrix (every entry a 1x1 component, exact zeros cut at 0, unit vectors)
    and the matrix."""
    w, v, cut, mat = _frozen(np.zeros(size), np.eye(size), np.zeros(size), np.zeros((size, size)))
    return 0.0, Spectrum(w, v, cut), mat


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
    """The arrays, made read-only: each is shared by every reader."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _sym_powers(a: np.ndarray, m: int) -> np.ndarray:
    """Sym^m of each 2x2 matrix in a (see _expansion), shape (len(a), m + 1, m + 1)."""
    coef, (e00, e01, e10, e11), starts = _expansion(m)
    p = _power_tables(a, m)
    terms = coef * p[:, 0, e00] * p[:, 1, e01] * p[:, 2, e10] * p[:, 3, e11]
    return np.add.reduceat(terms, starts, axis=1).reshape(-1, m + 1, m + 1)

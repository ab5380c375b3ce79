"""Dense Hermitian linear algebra and matrix functional calculus.

Operators are square complex numpy arrays, optionally wrapped in the light
validating types below.  Every matrix power of a positive semidefinite
operator uses the support convention 0**s = 0 for all real s.  The spectral
decisions live here and nowhere else: :func:`above_cut` decides which
computed eigenvalues count as zero (:meth:`Spectrum.support` keeps the rest,
and keeps every positive eigenvalue read off a 1x1 component exactly),
:func:`cluster_slices` splits a spectrum into degenerate runs,
:meth:`Spectrum.clipped` moves a spectrum into a range, and
:func:`components` splits an index set into the connected components of a
linkage.  An operator is decomposed once: every :class:`DensityOperator`
keeps the spectrum it was validated from, and :func:`eig` hands that
spectrum back.  That spectrum is taken block by block along the exact zeros
of the matrix, one checked :func:`eig` per connected component of its
nonzero pattern, and assembled into one ascending decomposition of the full
dimension.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import ConvergenceError, DimensionError

HERM_TOL = 1e-10
TRACE_TOL = 1e-9
DEFAULT_DIM_CAP = 4096


def dim_cap() -> int:
    """Largest allowed operator dimension; override with SYMTEST_DIM_CAP."""
    raw = os.environ.get("SYMTEST_DIM_CAP", "")
    if not raw.strip():
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError(cap)
    except ValueError:
        raise DimensionError(f"SYMTEST_DIM_CAP must be a positive integer, got {raw!r}") from None
    return cap


def asmatrix(a) -> np.ndarray:
    """Coerce to a finite square complex matrix, unwrapping the operator types.

    The matrix of a HermitianOperator or DensityOperator comes back as is: it
    was checked when the operator was built and it is read-only."""
    if isinstance(a, (HermitianOperator, DensityOperator)):
        return a.mat
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def matrix_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of two operators that must share a dimension."""
    ma, mb = asmatrix(a), asmatrix(b)
    if ma.shape != mb.shape:
        raise DimensionError("states must share a dimension")
    return ma, mb


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix, stored canonically as (A + A*)/2."""

    mat: np.ndarray

    def __post_init__(self):
        m = asmatrix(self.mat)
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if dev > HERM_TOL:
            raise ValueError(
                f"matrix is not Hermitian within {HERM_TOL:g} (deviation {dev:.3e})"
            )
        canon = (m + m.conj().T) / 2.0
        canon.setflags(write=False)
        object.__setattr__(self, "mat", canon)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class DensityOperator:
    """Positive semidefinite, unit-trace Hermitian operator.

    Validated from ``spectrum``, its eigendecomposition taken block by block
    (see :func:`_blockwise_eig`), which it keeps: eigenvalues in
    [-TRACE_TOL, 0) are clipped to zero, anything more negative is rejected,
    and the trace is renormalized, in the matrix and the spectrum alike.
    :func:`eig` returns that spectrum instead of decomposing again.
    """

    op: HermitianOperator
    spectrum: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.op, HermitianOperator):
            object.__setattr__(self, "op", HermitianOperator(self.op))
        tr = float(np.trace(self.op.mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace must be 1 within {TRACE_TOL:g}, got {tr!r}")
        op, spec = self.op, _blockwise_eig(self.op)
        clipped = spec.clipped(0.0, np.inf, TRACE_TOL)
        if clipped is not spec:
            op, spec = HermitianOperator(clipped.reconstruct()), clipped
        tr = float(np.trace(op.mat).real)
        if abs(tr - 1.0) > 1e-15:
            op = HermitianOperator(op.mat / tr)
            spec = Spectrum(spec.eigenvalues / tr, spec.eigenvectors, spec.exact)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "spectrum", spec)

    @classmethod
    def from_matrix(cls, m) -> "DensityOperator":
        return cls(HermitianOperator(m))

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition: ascending eigenvalues, unitary eigenvector columns,
    and a mask ``exact`` of the eigenpairs read off a 1x1 component exactly
    (see :func:`_blockwise_eig`)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    exact: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def support(self) -> "Spectrum":
        """The eigenpairs that count as nonzero: an exact eigenvalue when it is
        positive, any other when it survives :func:`above_cut`."""
        w = self.eigenvalues
        keep = np.where(self.exact, w > 0.0, above_cut(w))
        return Spectrum(w[keep], self.eigenvectors[:, keep], self.exact[keep])

    def clipped(self, lo: float, hi: float, tol: float) -> "Spectrum":
        """Eigenvalues at most tol outside [lo, hi] moved onto its edge, same
        eigenvectors; any further out raise.  A spectrum already inside
        returns self."""
        w = self.eigenvalues
        if w[0] >= lo and w[-1] <= hi:
            return self
        if w[0] < lo - tol or w[-1] > hi + tol:
            raise ValueError(
                f"spectrum [{w[0]:.3e}, {w[-1]:.3e}] has an eigenvalue more than "
                f"{tol:g} outside [{lo:g}, {hi:g}]"
            )
        return Spectrum(np.clip(w, lo, hi), self.eigenvectors, self.exact)


def eig(h) -> Spectrum:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues come back ascending; the eigenvector matrix is unitary within
    1e-9 and the reconstruction error is bounded by 1e-8 * dim * ||H||_F.
    A density operator returns the spectrum it keeps; any other operator
    gets a spectrum with no exact eigenpair.
    """
    if isinstance(h, DensityOperator):
        return h.spectrum
    m = asmatrix(h)
    m = (m + m.conj().T) / 2.0
    d = m.shape[0]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition did not converge for a {d}x{d} matrix"
        ) from exc
    gram_dev = float(np.max(np.abs(v.conj().T @ v - np.eye(d))))
    if gram_dev > 1e-9:
        raise ConvergenceError(
            f"eigenvector basis of a {d}x{d} matrix lost orthonormality ({gram_dev:.3e})"
        )
    resid = frob((v * w) @ v.conj().T - m)
    if resid > 1e-8 * d * frob(m) + 1e-12:
        raise ConvergenceError(
            f"eigendecomposition residual {resid:.3e} too large for a {d}x{d} matrix"
        )
    w.setflags(write=False)
    v.setflags(write=False)
    exact = np.zeros(d, dtype=bool)
    exact.setflags(write=False)
    return Spectrum(w, v, exact)


def components(linked: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Connected components of the graph whose symmetric boolean adjacency
    matrix is linked (its diagonal is ignored): the indices that form a
    component alone, and the index sets of the larger components, each
    ascending and ordered by their smallest index."""
    seen = np.count_nonzero(linked, axis=1) <= linked.diagonal()
    lone = np.flatnonzero(seen)
    comps = []
    for i in np.flatnonzero(~seen):
        if seen[i]:
            continue
        members = np.zeros(linked.shape[0], dtype=bool)
        members[i] = True
        frontier = members
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        comps.append(np.flatnonzero(members))
    return lone, comps


def _blockwise_eig(op: HermitianOperator) -> Spectrum:
    """:func:`eig` of op, assembled block by block along the exact zeros of
    op.mat.

    A twirled state is block diagonal up to a permutation, and its exact zeros
    show the blocks.  Each component of more than one index gets one checked
    :func:`eig` of its sub-block; a 1x1 component is its own eigenpair (the
    real diagonal entry and a unit vector), and is marked exact.  The
    eigenvalues come back ascending (ties with the 1x1 components first, then
    in component order), and each eigenvector is zero outside its component.
    A matrix with one component comes out exactly as its :func:`eig`.
    """
    m = op.mat
    lone, comps = components(m != 0)
    d = m.shape[0]
    specs = [eig(m[np.ix_(idx, idx)]) for idx in comps]
    w = np.concatenate([m.diagonal()[lone].real, *(spec.eigenvalues for spec in specs)])
    order = np.argsort(w, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)
    v = np.zeros((d, d), dtype=complex)
    v[lone, column[: lone.size]] = 1.0
    start = lone.size
    for idx, spec in zip(comps, specs):
        v[np.ix_(idx, column[start : start + idx.size])] = spec.eigenvectors
        start += idx.size
    w = w[order]
    exact = order < lone.size
    for a in (w, v, exact):
        a.setflags(write=False)
    return Spectrum(w, v, exact)


def above_cut(w: np.ndarray) -> np.ndarray:
    """Mask w > max(w.size * eps * max|w|, 1e-12) of the eigenvalues
    that count as nonzero; on a signed spectrum it keeps the positive part."""
    lam_max = float(np.max(np.abs(w), initial=0.0))
    return w > max(w.size * float(np.finfo(float).eps) * lam_max, 1e-12)


def cluster_slices(w: np.ndarray, tol: float) -> list[slice]:
    """Runs of an ascending spectrum whose neighbouring gaps are all <= tol."""
    if w.size == 0:
        return []
    edges = [0, *(np.nonzero(np.diff(w) > tol)[0] + 1).tolist(), w.size]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def mpow(h, s: float) -> HermitianOperator:
    """Matrix power H**s of a PSD operator with the convention 0**s = 0 (all real s)."""
    spec = eig(h)
    w = spec.eigenvalues
    if w.size and w[0] < -TRACE_TOL:
        raise ValueError(
            f"matrix power needs a positive semidefinite operator (min eigenvalue {w[0]:.3e})"
        )
    kept = spec.support()
    m = (kept.eigenvectors * kept.eigenvalues**s) @ kept.eigenvectors.conj().T
    return HermitianOperator((m + m.conj().T) / 2.0)


def support_projection(h) -> HermitianOperator:
    """Projection onto the eigenspaces above the rank cut: the support of a PSD
    operator, the positive part of a signed one."""
    v = eig(h).support().eigenvectors
    p = v @ v.conj().T
    p = (p + p.conj().T) / 2.0
    idem = float(np.max(np.abs(p @ p - p))) if p.size else 0.0
    if idem > 1e-9:
        raise ConvergenceError(f"support projection not idempotent ({idem:.3e})")
    return HermitianOperator(p)


def trace_norm(a) -> float:
    """Sum of singular values; for Hermitian input this is sum |eigenvalues|."""
    m = asmatrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def kron(a, b) -> np.ndarray:
    """Kronecker product with the configured dimension cap enforced."""
    ma, mb = asmatrix(a), asmatrix(b)
    out_dim = ma.shape[0] * mb.shape[0]
    cap = dim_cap()
    if out_dim > cap:
        raise DimensionError(f"kron product dimension {out_dim} exceeds cap {cap}")
    return np.kron(ma, mb)


def kron_power(a, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("tensor power exponent must be >= 1")
    m = asmatrix(a)
    return reduce(kron, [m] * n)


def abs_power_trace(a, b, s: float) -> float:
    """Tr |A**s B**(1-s)| for PSD operators A, B."""
    matrix_pair(a, b)
    prod = mpow(a, s).mat @ mpow(b, 1.0 - s).mat
    return trace_norm(prod)


def spectral_projections(h) -> list[tuple[float, np.ndarray]]:
    """(mean eigenvalue, projection) per cluster of nearly-degenerate eigenvalues."""
    spec = eig(h)
    w, v = spec.eigenvalues, spec.eigenvectors
    tol = 1e-9 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    out = []
    for run in cluster_slices(w, tol):
        p = v[:, run] @ v[:, run].conj().T
        out.append((float(np.mean(w[run])), (p + p.conj().T) / 2.0))
    return out

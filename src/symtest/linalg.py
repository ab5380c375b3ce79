"""Dense Hermitian linear algebra and matrix functional calculus.

Operators are square numpy arrays in the smallest exact field: float64 when
the imaginary part is exactly zero, else complex128 (:func:`asmatrix`), so
real operators run the real LAPACK and BLAS kernels.  Two types wrap one: a
state is a :class:`DensityOperator`, and a test 0 <= T <= I is a
``discrimination.TestOperator``.  Both take their matrix through
:func:`hermitian`, the one Hermitian gate, once per matrix; it keeps the
canonical (A + A*)/2 as a read-only array.  Every other function maps
arrays to arrays; :func:`mpow`, :func:`support_projection` and
:func:`spectral_projections` return (M + M*)/2 read-only, Hermitian by
construction and not checked again.

Every matrix power of a positive semidefinite operator uses the support
convention 0**s = 0 for all real s.  The spectral decisions live here and
nowhere else: a computed eigenvalue counts as zero up to the
:func:`cut_level` size * eps * max|w| of the matrix it was decomposed from,
with no absolute floor, and a :class:`Spectrum` carries that cut per
eigenpair; :func:`above_cut` applies the level to one spectrum as a whole,
:func:`cluster_slices` splits a spectrum into degenerate runs,
:meth:`Spectrum.clipped` moves a spectrum into a range, and
:func:`components` splits an index set into the connected components of a
linkage.  The rule that makes a matrix a state is written once, for the
dense route and the Schur-Weyl blocks alike: :func:`_split_eig` passes the
whole matrix through the Hermitian gate once, splits the canonical copy
along the exact zeros of the original, decomposes each component once (a
1x1 component is exact, cut at 0) and assembles one ascending spectrum,
and :func:`_state_rule` gates the trace, clips and renormalizes over parts
(multiplicity, trace, spectrum).  Every reader of a state takes it through
:func:`as_state`, and every function of two states takes them through
:func:`state_pair`, which also checks that they share a dimension; so a
plain array is read as its DensityOperator, validated once, and the reader
uses its canonical ``mat`` and the spectrum it keeps for :func:`eig` to
hand back, without gating it again.  :func:`eig` of any other
operator (a signed difference, a test) decomposes it as one matrix: the
projection ``discrimination.np_test`` builds must keep what the sweep of
``threshold_errors`` keeps from one eigh of the whole difference.  No step
forms a dense V diag(w) V*.
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
    """Coerce to a finite square matrix, unwrapping a DensityOperator.

    The matrix is float64 when its imaginary part is exactly zero, else
    complex128, so real operators run the real LAPACK and BLAS kernels.  The
    matrix of a DensityOperator comes back as is: it was checked when the
    state was built and it is read-only."""
    if isinstance(a, DensityOperator):
        return a.mat
    m = np.asarray(a)
    if np.iscomplexobj(m):
        m = _real_if_exact(m.astype(complex, copy=False))
    else:
        m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def hermitian(a) -> np.ndarray:
    """The canonical (A + A*)/2 of a matrix that is Hermitian within
    HERM_TOL, as a new read-only array (float64 when its imaginary part is
    exactly zero)."""
    m = asmatrix(a)
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > HERM_TOL:
        raise ValueError(
            f"matrix is not Hermitian within {HERM_TOL:g} (deviation {dev:.3e})"
        )
    return _canonical(m)


def _canonical(m: np.ndarray) -> np.ndarray:
    out = _real_if_exact((m + m.conj().T) / 2.0)
    out.setflags(write=False)
    return out


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """A complex m whose imaginary part is exactly zero as a float64 copy, else m."""
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real.copy()
    return m


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Positive semidefinite, unit-trace Hermitian operator.

    ``mat`` passes :func:`hermitian` once, which gives its canonical copy,
    and is decomposed block by block along its exact zeros
    (:func:`_split_eig`), one checked eigendecomposition per block,
    assembled into ``spectrum``, which it keeps.  The state rule (:func:`_state_rule`, one
    part) gates the trace, clips eigenvalues in [-TRACE_TOL, 0) to zero,
    rejecting anything more negative, and renormalizes; a block the clip
    moved is rebuilt from its clipped spectrum, and the matrix is divided by
    the trace the spectrum was.  :func:`eig` returns that spectrum instead of
    decomposing again.
    """

    mat: np.ndarray
    spectrum: Spectrum = field(init=False, repr=False)

    def __post_init__(self):
        # the only reference to a converted copy is _split_eig's, which frees it
        mat, raw, lone, comps = _split_eig(asmatrix(self.mat), lambda idx, block: _eigh(block))
        (spec,), tr = _state_rule([(1, float(np.trace(mat).real), raw)])
        if raw.eigenvalues[0] < 0.0:
            # the clip moved an eigenvalue: rebuild each component that had
            # one, in a copy, since the gate's canonical copy is read-only
            mat = mat.copy()
            mat[lone, lone] = np.maximum(mat[lone, lone], 0.0)
            for idx, block_spec in comps:
                clipped = block_spec.clipped(0.0, np.inf, TRACE_TOL)
                if clipped is not block_spec:
                    mat[idx[:, None], idx] = _canonical(clipped.reconstruct())
        if tr != 1.0:
            # a canonical matrix over its real trace stays exactly Hermitian
            mat = mat / tr
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "spectrum", spec)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition: ascending eigenvalues, unitary eigenvector columns,
    and per eigenpair the ``cut`` it must exceed to count as nonzero, that of
    the component it was decomposed from (see :func:`_assembled_eig`)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    cut: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def support_mask(self) -> np.ndarray:
        """Mask of the nonzero eigenpairs, those above their cut."""
        return self.eigenvalues > self.cut

    def support(self) -> "Spectrum":
        """The eigenpairs :meth:`support_mask` keeps; self when it keeps all."""
        keep = self.support_mask()
        if keep.all():
            return self
        return Spectrum(self.eigenvalues[keep], self.eigenvectors[:, keep], self.cut[keep])

    def scaled(self, tr: float) -> "Spectrum":
        """The spectrum of the operator divided by tr, eigenvalues and cuts alike."""
        return Spectrum(self.eigenvalues / tr, self.eigenvectors, self.cut / tr)

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
        return Spectrum(np.clip(w, lo, hi), self.eigenvectors, self.cut)


def eig(h) -> Spectrum:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues come back ascending; the eigenvector matrix is unitary within
    1e-9 and the reconstruction error is bounded by 1e-8 * dim * ||H||_F.
    A density operator returns the spectrum it keeps, cut component by
    component; any other operator, such as np_test's signed difference or a
    test, is one matrix, cut at its own level, as threshold_errors cuts it.
    """
    if isinstance(h, DensityOperator):
        return h.spectrum
    return _eigh(_canonical(asmatrix(h)))


def as_state(rho) -> DensityOperator:
    """rho as a state: a DensityOperator as it is, anything else validated as one."""
    return rho if isinstance(rho, DensityOperator) else DensityOperator(rho)


def state_pair(rho0, rho1) -> tuple[DensityOperator, DensityOperator]:
    """Two states that must share a dimension, each read through :func:`as_state`."""
    s0, s1 = as_state(rho0), as_state(rho1)
    if s0.dim != s1.dim:
        raise DimensionError("states must share a dimension")
    return s0, s1


def _eigh(m: np.ndarray) -> Spectrum:
    """:func:`eig` of a matrix that is already exactly Hermitian, such as the
    canonical (A + A*)/2 or a sub-block of it, which it does not copy."""
    d = m.shape[0]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"eigendecomposition did not converge for a {d}x{d} matrix"
        ) from exc
    return _checked(m, w, v)


def _gram_eigh(f: np.ndarray, m: np.ndarray) -> Spectrum:
    """:func:`_eigh` of m = f f*, read off the singular value decomposition
    of its factor f: the eigenvalue sigma**2 comes out to about
    eps * sigma_max * sigma, where eigh of m resolves only eps * sigma_max**2.
    The same checks against m."""
    d = m.shape[0]
    try:
        u, sigma, _ = np.linalg.svd(f, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"singular value decomposition did not converge for a {d}x{d} matrix"
        ) from exc
    return _checked(m, sigma[::-1] ** 2, u[:, ::-1])


def _checked(m: np.ndarray, w: np.ndarray, v: np.ndarray) -> Spectrum:
    """The spectrum (w, v) of m, cut at :func:`cut_level`, once its basis is
    orthonormal within 1e-9 and its reconstruction within 1e-8 * dim * ||m||_F + 1e-12."""
    d = m.shape[0]
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
    cut = np.full(d, cut_level(w))
    for a in (w, v, cut):
        a.setflags(write=False)
    return Spectrum(w, v, cut)


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


def _split_eig(m: np.ndarray, decompose) -> tuple[np.ndarray, Spectrum, np.ndarray, list]:
    """m passed through :func:`hermitian` once and decomposed component by
    component: split along its exact zeros, each larger component decomposed
    by decompose(idx, block) from its indices and canonical block, and the
    pieces assembled (:func:`_assembled_eig`).  Returns the read-only
    canonical matrix, its spectrum, the indices of the 1x1 components and
    (idx, spectrum) per larger component.

    A twirled state is block diagonal up to a permutation, and its exact zeros
    show the blocks.  m splits once, along the zeros of its own symmetrized
    nonzero pattern (an entry that cancels in the canonical copy still links
    its pair), so no entry outside the blocks deviates from Hermitian and
    gating the whole matrix gates every block.  A block whose imaginary part
    is exactly zero is decomposed as float64.  Indices come back ascending,
    the larger blocks ordered by their smallest index (:func:`components`).
    """
    linked = m != 0
    linked |= linked.T
    lone, comps = components(linked)
    mat = hermitian(m)
    del m  # a converted copy can be freed before the decompositions
    specs = [decompose(idx, _real_if_exact(mat[idx[:, None], idx])) for idx in comps]
    spec = _assembled_eig(mat.diagonal()[lone].real, lone, comps, specs)
    return mat, spec, lone, list(zip(comps, specs))


def _state_rule(parts: list[tuple[int, float, Spectrum]]) -> tuple[list[Spectrum], float]:
    """The state rule over the parts (m, trace, spectrum) of a direct sum of
    m copies of each: the gate on sum m * trace within TRACE_TOL, the clip of
    eigenvalues in [-TRACE_TOL, 0) to 0, and the renormalization by the
    clipped trace (a clipped part's read off its eigenvalues).  Returns the
    spectra and the trace they were divided by, 1.0 when none was."""
    tr = sum(m * x for m, x, _ in parts)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace must be 1 within {TRACE_TOL:g}, got {tr!r}")
    clipped = [spec.clipped(0.0, np.inf, TRACE_TOL) for _, _, spec in parts]
    tr = sum(m * (x if c is spec else float(c.eigenvalues.sum()))
             for (m, x, spec), c in zip(parts, clipped))
    if abs(tr - 1.0) <= 1e-15:
        return clipped, 1.0
    return [c.scaled(tr) for c in clipped], tr


def _assembled_eig(lone_w: np.ndarray, lone: np.ndarray, comps: list[np.ndarray],
                   specs: list[Spectrum]) -> Spectrum:
    """One ascending eigendecomposition of the full dimension from the 1x1
    blocks lone (eigenvalues lone_w) and the spectra of the blocks comps.

    A 1x1 block is its own eigenpair (its real entry and a unit vector), exact,
    so cut at 0; the others keep their block's cut.  Ties sort with the 1x1
    blocks first, then in block order, and each eigenvector is zero outside
    its block.  A matrix that is one block comes out exactly as its :func:`eig`.
    """
    d = lone.size + sum(idx.size for idx in comps)
    w = np.concatenate([lone_w, *(spec.eigenvalues for spec in specs)])
    order = np.argsort(w, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)
    v = np.zeros((d, d), dtype=np.result_type(float, *(spec.eigenvectors for spec in specs)))
    v[lone, column[: lone.size]] = 1.0
    start = lone.size
    for idx, spec in zip(comps, specs):
        v[idx[:, None], column[start : start + idx.size]] = spec.eigenvectors
        start += idx.size
    w = w[order]
    cut = np.concatenate([np.zeros(lone.size), *(spec.cut for spec in specs)])[order]
    for a in (w, v, cut):
        a.setflags(write=False)
    return Spectrum(w, v, cut)


def cut_level(w: np.ndarray) -> float:
    """w.size * eps * max|w|, the level an eigenvalue in w must exceed to count as nonzero."""
    return w.size * float(np.finfo(float).eps) * float(np.max(np.abs(w), initial=0.0))


def above_cut(w: np.ndarray) -> np.ndarray:
    """Mask w > :func:`cut_level` of the eigenvalues that count as nonzero;
    on a signed spectrum it keeps the positive part."""
    return w > cut_level(w)


def cluster_slices(w: np.ndarray, tol: float) -> list[slice]:
    """Runs of an ascending spectrum whose neighbouring gaps are all <= tol."""
    if w.size == 0:
        return []
    edges = [0, *(np.nonzero(np.diff(w) > tol)[0] + 1).tolist(), w.size]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def mpow(h, s: float) -> np.ndarray:
    """Matrix power H**s of a PSD operator with the convention 0**s = 0 (all
    real s), as a read-only array."""
    spec = eig(h)
    w = spec.eigenvalues
    if w.size and w[0] < -TRACE_TOL:
        raise ValueError(
            f"matrix power needs a positive semidefinite operator (min eigenvalue {w[0]:.3e})"
        )
    kept = spec.support()
    return _canonical((kept.eigenvectors * kept.eigenvalues**s) @ kept.eigenvectors.conj().T)


def support_projection(h) -> np.ndarray:
    """Projection onto the eigenspaces above the rank cut: the support of a PSD
    operator, the positive part of a signed one; a read-only array."""
    v = eig(h).support().eigenvectors
    p = _canonical(v @ v.conj().T)
    idem = float(np.max(np.abs(p @ p - p))) if p.size else 0.0
    if idem > 1e-9:
        raise ConvergenceError(f"support projection not idempotent ({idem:.3e})")
    return p


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
    pa, pb = mpow(a, s), mpow(b, 1.0 - s)
    if pa.shape != pb.shape:
        raise DimensionError("operators must share a dimension")
    return trace_norm(pa @ pb)


def spectral_projections(h) -> list[tuple[float, np.ndarray]]:
    """(mean eigenvalue, projection) per cluster of nearly-degenerate eigenvalues."""
    spec = eig(h)
    w, v = spec.eigenvalues, spec.eigenvectors
    tol = 1e-9 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    out = []
    for run in cluster_slices(w, tol):
        out.append((float(np.mean(w[run])), _canonical(v[:, run] @ v[:, run].conj().T)))
    return out

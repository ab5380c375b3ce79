"""Dense Hermitian linear algebra and matrix functional calculus.

Operators are square numpy arrays in the smallest exact field: float64 when
the imaginary part is exactly zero, else complex128 (:func:`asmatrix`), so
real operators run the real LAPACK and BLAS kernels.  Two types wrap one: a
state is a :class:`DensityOperator`, and a test 0 <= T <= I is a
``discrimination.TestOperator``.  Both take their matrix through
:func:`hermitian`, the one Hermitian gate, once per matrix (``np_test``'s
projection excepted, below); it keeps the canonical (A + A*)/2 as a
read-only array.  Every other function maps
arrays to arrays; :func:`mpow`, :func:`support_projection` and
:func:`spectral_projections` return (M + M*)/2 read-only, Hermitian by
construction and not checked again.

Every matrix power of a PSD operator uses the support convention
0**s = 0 for all real s.  The spectral decisions live here and
nowhere else (:func:`above_cut`, :func:`cluster_slices`,
:meth:`Spectrum.clipped`, :func:`components`): a computed eigenvalue counts
as zero up to the :func:`cut_level` size * eps * max|w| of the matrix it was
decomposed from, with no absolute floor, and a :class:`Spectrum` carries
that cut per eigenpair.  Every operator is split along its exact zeros
and decomposed once per component (:func:`_split_eig`; a 1x1 one is
exact).  A state is cut per component (a 1x1 one at 0), and its rule is
written once, for the dense route and the Schur-Weyl blocks alike
(:func:`_gated_eig`, :func:`_state_rule`).  Any other operator (a signed
difference, a test) is cut at the one level of its whole spectrum, so the
projection ``discrimination.np_test`` builds keeps what
``threshold_errors`` keeps from one eigh of the same difference, and is
its test as :func:`support_projection` certified it, not decomposed again.
Readers take a state through :func:`as_state` and a pair through
:func:`state_pair`, so a plain array is validated once, as its
DensityOperator.  A dense V diag(w) V* is formed
only to check a residual, to rebuild a clipped block and as :func:`mpow`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DimensionError

HERM_TOL = 1e-10
TRACE_TOL = 1e-9
DEFAULT_DIM_CAP = 4096
_EPS = float(np.finfo(float).eps)


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
    complex128.  The matrix of a DensityOperator comes back as is: it was
    checked when the state was built and it is read-only."""
    if isinstance(a, DensityOperator):
        return a.mat
    m = np.asarray(a)
    if np.iscomplexobj(m):
        m = _real_if_exact(m.astype(complex, copy=False))
    else:
        m = m.astype(float, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def frob(a) -> float:
    return math.sqrt(np.vdot(a, a).real)


def hermitian(a) -> np.ndarray:
    """The canonical (A + A*)/2 of a matrix that is Hermitian within
    HERM_TOL, as a new read-only array (float64 when its imaginary part is
    exactly zero)."""
    m = asmatrix(a)
    dev = float(np.abs(m - m.conj().T).max(initial=0.0))
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

    ``mat`` passes :func:`hermitian` once and is decomposed along its exact
    zeros (:func:`_gated_eig`) into ``spectrum``, which it keeps and
    :func:`eig` returns.  The state rule (:func:`_state_rule`, one part)
    gates the trace, clips eigenvalues in [-TRACE_TOL, 0) to zero, rejecting
    any more negative, and renormalizes; a block the clip moved is rebuilt
    (:func:`_rebuilt`), and the matrix is divided by the trace the spectrum
    was.
    """

    mat: np.ndarray
    spectrum: Spectrum = field(init=False, repr=False)

    def __post_init__(self):
        m = self.mat.mat if isinstance(self.mat, DensityOperator) else self.mat
        mat, raw, lone, comps = _gated_eig(m, _block_eigh)
        (spec,), tr = _state_rule([(1, float(np.trace(mat).real), raw)])
        if raw.eigenvalues[0] < 0.0:
            # the clip moved an eigenvalue: rebuild the components that had one
            mat = _rebuilt(mat, lone, comps, np.inf, TRACE_TOL)
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
    and per eigenpair the ``cut`` it must exceed to count as nonzero (see
    :func:`eig`)."""

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
        if not _outside(w[0], w[-1], lo, hi, tol):
            return self
        return Spectrum(np.clip(w, lo, hi), self.eigenvectors, self.cut)


def _outside(first: float, last: float, lo: float, hi: float, tol: float) -> bool:
    """Whether values from first to last leave [lo, hi]; any more than tol
    outside raise."""
    if first >= lo and last <= hi:
        return False
    if first < lo - tol or last > hi + tol:
        raise ValueError(
            f"spectrum [{first:.3e}, {last:.3e}] has an eigenvalue more than "
            f"{tol:g} outside [{lo:g}, {hi:g}]"
        )
    return True


def eig(h) -> Spectrum:
    """Eigendecomposition of a Hermitian operator.

    Eigenvalues come back ascending; the eigenvector matrix is unitary within
    1e-9 and the reconstruction error is bounded by 1e-8 * dim * ||H||_F.
    A density operator returns the spectrum it keeps, cut component by
    component; any other operator is split too, cut at one level, that of
    its whole spectrum.
    """
    if isinstance(h, DensityOperator):
        return h.spectrum
    mat, lone, comps, level = _operator_split(h)
    spec = _assembled_eig(mat, lone, comps)
    cut = np.full(mat.shape[0], level)
    cut.setflags(write=False)
    return Spectrum(spec.eigenvalues, spec.eigenvectors, cut)


def _operator_split(h) -> tuple[np.ndarray, np.ndarray, list, float]:
    """The canonical copy of a non-state, its split (:func:`_split_eig`) and
    the one :func:`cut_level` of its whole spectrum."""
    m = asmatrix(h)
    mat = _canonical(m)
    lone, comps = _split_eig(mat, m, _block_eigh)
    top = float(np.abs(mat.diagonal()[lone]).max(initial=0.0))
    for _, spec in comps:
        w = spec.eigenvalues
        top = max(top, -w[0], w[-1])
    return mat, lone, comps, mat.shape[0] * _EPS * top


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
    vh = v.conj().T
    gram = vh @ v
    gram.ravel()[:: d + 1] -= 1.0
    gram_dev = float(np.abs(gram).max(initial=0.0))
    del gram  # not held while the residual forms its products
    if gram_dev > 1e-9:
        raise ConvergenceError(
            f"eigenvector basis of a {d}x{d} matrix lost orthonormality ({gram_dev:.3e})"
        )
    resid = frob((v * w) @ vh - m)
    if resid > 1e-8 * d * frob(m) + 1e-12:
        raise ConvergenceError(
            f"eigendecomposition residual {resid:.3e} too large for a {d}x{d} matrix"
        )
    # cut_level(w), off the ends of the ascending w
    cut = np.full(d, d * _EPS * max(abs(w[0]), abs(w[-1])) if d else 0.0)
    for a in (w, v, cut):
        a.setflags(write=False)
    return Spectrum(w, v, cut)


def components(linked: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Connected components of the graph whose symmetric boolean adjacency
    matrix is linked (its diagonal is ignored): the indices that form a
    component alone, and the index sets of the larger components, each
    ascending and ordered by their smallest index."""
    degree = linked.sum(axis=1) - linked.diagonal()
    seen = degree == 0
    lone, rest = seen.nonzero()[0], (~seen).nonzero()[0]
    # a vertex linked to every other one not alone joins them all
    if rest.size and degree.max() == rest.size - 1:
        return lone, [rest]
    comps = []
    for i in rest:
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


def _gated_eig(m, decompose) -> tuple[np.ndarray, Spectrum, np.ndarray, list]:
    """A state's or a Schur-Weyl block's m through :func:`hermitian` once:
    the read-only canonical matrix, its spectrum and its split."""
    mat = hermitian(m)
    lone, comps = _split_eig(mat, m, decompose)
    return mat, _assembled_eig(mat, lone, comps), lone, comps


def _block_eigh(idx: np.ndarray, block: np.ndarray) -> Spectrum:
    return _eigh(block)


def _split_eig(mat: np.ndarray, m, decompose) -> tuple[np.ndarray, list]:
    """The canonical copy mat of m split along the exact zeros of m's
    symmetrized nonzero pattern: the indices of the 1x1 components and
    (idx, decompose(idx, block)) per larger one, a block float64 when its
    imaginary part is exactly zero.  A twirled operator is block diagonal up
    to a permutation, and its exact zeros show the blocks.  An entry that
    cancels in mat still links its pair, so no entry outside the blocks
    deviates from Hermitian and the caller's one gate covers every block.
    """
    linked = np.asarray(m) != 0
    linked |= linked.T
    lone, comps = components(linked)
    return lone, [(idx, decompose(idx, _real_if_exact(mat[idx[:, None], idx]))) for idx in comps]


def _rebuilt(mat: np.ndarray, lone: np.ndarray, comps: list, hi: float, tol: float) -> np.ndarray:
    """The split mat with its spectrum clipped onto [0, hi] (as
    :meth:`Spectrum.clipped`, with tol): mat itself when the clip moves
    nothing, else a copy with only the parts it moved rebuilt."""
    out = mat
    w = mat.diagonal()[lone].real
    if w.size and _outside(w.min(), w.max(), 0.0, hi, tol):
        out = mat.copy()
        out[lone, lone] = np.clip(w, 0.0, hi)
    for idx, spec in comps:
        clipped = spec.clipped(0.0, hi, tol)
        if clipped is not spec:
            if out is mat:
                out = mat.copy()
            out[idx[:, None], idx] = _canonical(clipped.reconstruct())
    return out


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


def _assembled_eig(mat: np.ndarray, lone: np.ndarray, comps: list) -> Spectrum:
    """One ascending eigendecomposition of the split mat (:func:`_split_eig`)
    from its 1x1 blocks lone and its larger blocks (idx, spectrum).

    A 1x1 block is its own eigenpair (its real entry and a unit vector), exact,
    so cut at 0; the others keep their block's cut.  Ties sort with the 1x1
    blocks first, then in block order, and each eigenvector is zero outside
    its block.  A matrix that is one block comes out exactly as its :func:`eig`.
    """
    if not lone.size and len(comps) == 1:
        return comps[0][1]
    d = mat.shape[0]
    specs = [spec for _, spec in comps]
    w = np.concatenate([mat.diagonal()[lone].real, *(spec.eigenvalues for spec in specs)])
    order = np.argsort(w, kind="stable")
    column = np.empty(d, dtype=np.intp)
    column[order] = np.arange(d)
    v = np.zeros((d, d), dtype=np.result_type(float, *(spec.eigenvectors for spec in specs)))
    v[lone, column[: lone.size]] = 1.0
    start = lone.size
    for idx, spec in comps:
        v[idx[:, None], column[start : start + idx.size]] = spec.eigenvectors
        start += idx.size
    w = w[order]
    cut = np.concatenate([np.zeros(lone.size), *(spec.cut for spec in specs)])[order]
    for a in (w, v, cut):
        a.setflags(write=False)
    return Spectrum(w, v, cut)


def cut_level(w: np.ndarray):
    """w.size * eps * max|w|, the level an eigenvalue in w must exceed to
    count as nonzero: a float for one spectrum, and for a stack of spectra
    along the last axis one level per spectrum, that axis kept as size 1."""
    level = w.shape[-1] * _EPS * np.max(np.abs(w), axis=-1, initial=0.0)
    return float(level) if w.ndim == 1 else level[..., None]


def above_cut(w: np.ndarray) -> np.ndarray:
    """Mask w > :func:`cut_level` of the eigenvalues that count as nonzero,
    each spectrum of a stack cut at its own level; on a signed spectrum it
    keeps the positive part."""
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
    operator, the positive part of a signed one; a read-only array, formed
    per component, each certified by ||P^2 - P||_F <= 1e-9: every eigenvalue
    lies within 1e-9 of 0 or 1, as a lone entry does exactly."""
    if isinstance(h, DensityOperator):
        p = np.zeros(h.mat.shape, h.spectrum.eigenvectors.dtype)
        kept = [(slice(None), h.spectrum.support().eigenvectors)]
    else:
        mat, lone, comps, level = _operator_split(h)
        p = np.zeros(mat.shape, np.result_type(float, *(s.eigenvectors for _, s in comps)))
        on = lone[mat.diagonal()[lone].real > level]
        p[on, on] = 1.0
        kept = [(np.ix_(idx, idx), s.eigenvectors[:, s.eigenvalues > level]) for idx, s in comps]
    for at, v in kept:
        if v.shape[1]:
            block = _canonical(v @ v.conj().T)
            idem = frob(block @ block - block)
            if idem > 1e-9:
                raise ConvergenceError(f"support projection not idempotent ({idem:.3e})")
            p[at] = block
    p = _real_if_exact(p)
    p.setflags(write=False)
    return p


def trace_norm(a) -> float:
    """Sum of singular values; for Hermitian input this is sum |eigenvalues|."""
    m = asmatrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).sum())


def kron(a, b) -> np.ndarray:
    """Kronecker product with the configured dimension cap enforced."""
    return _kron(asmatrix(a), asmatrix(b), dim_cap())


def kron_power(a, n: int) -> np.ndarray:
    if n < 1:
        raise ValueError("tensor power exponent must be >= 1")
    m = asmatrix(a)
    out, cap = m, dim_cap()
    for _ in range(n - 1):
        out = _kron(out, m, cap)
    return out


def _kron(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """np.kron(a, b) bit for bit, its dimension within cap."""
    p, q = len(a), len(b)
    if p * q > cap:
        raise DimensionError(f"kron product dimension {p * q} exceeds cap {cap}")
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * q, p * q)


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

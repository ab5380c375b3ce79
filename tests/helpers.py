"""References that only the tests read: the dense twirl by literal averaging
and the random unitaries its checks draw, the benchmark's seeded qubit
pairs, the positive-part projection from one eigh of a whole matrix,
the block structure of a finite action's n-fold power from probes on the
whole d^n x d^n space, golden section, the 1-D refinement the certified bracket method
replaced, the exact breakpoint maximum of a commuting pair's beta_eps dual,
the random-test battery drawn one test at a time, the threshold-error rows
gated one ErrorPair per rate, and the binomial power sums whose limits the
closed forms rest on, in log space."""

import math

import numpy as np

from symtest.discrimination import ErrorPair
from symtest.errors import ConvergenceError
from symtest.groups import _average_conjugations, _random_hermitian, tensor_power
from symtest.linalg import DensityOperator, cluster_slices, components, cut_level, frob
from symtest.oracle import DEFAULT_SEED, _log_binom, _logsumexp, _pmin_reference, _xlog

NEG_INF = float("-inf")
TORUS_SAMPLES = 4096
GOLDEN_XTOL = 1e-10


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_twirl_oracle(x, unitaries=None, weights=None) -> np.ndarray:
    """Group average by literal summation.

    Finite lists are averaged exactly; the torus is averaged over
    TORUS_SAMPLES equispaced phases, which is exact whenever every weight gap
    divides the sample count (phase sums cancel exactly in that case).
    """
    m = np.asarray(x, dtype=complex)
    if unitaries is not None:
        acc = np.zeros_like(m)
        for u in unitaries:
            u = np.asarray(u, dtype=complex)
            acc += u @ m @ u.conj().T
        return acc / len(unitaries)
    if weights is None:
        raise ValueError("need either a unitary list or torus weights")
    w = np.asarray(weights, dtype=np.int64)
    acc = np.zeros_like(m)
    for k in range(TORUS_SAMPLES):
        phase = np.exp(2j * np.pi * k * w / TORUS_SAMPLES)
        acc += (phase[:, None] * m) * phase.conj()[None, :]
    return acc / TORUS_SAMPLES


def seeded_pairs(seed):
    """The benchmark's seeded pairs A and B: Ginibre-induced full-rank qubit
    states, drawn as perfbench/workloads.py draws them."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(4):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        states.append(DensityOperator((rho + rho.conj().T) / 2.0))
    return {"A": tuple(states[:2]), "B": tuple(states[2:])}


def one_eigh_projection(h) -> np.ndarray:
    """Projection onto the positive part of a Hermitian h from one
    np.linalg.eigh of its whole canonical copy, cut at cut_level: what
    np_test built before it decomposed a difference along its exact zeros."""
    m = np.asarray(h)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    v = v[:, w > cut_level(w)]
    return v @ v.conj().T


def dense_block_structure(action, n: int) -> list[tuple[int, int]]:
    """The (m, d) pairs of a finite action's n-fold power from twirled
    probes on the whole d^n x d^n space: what groups.block_structure ran
    before it built the irreps one copy at a time."""
    powered = tensor_power(action, n)
    return _dense_blocks(powered.unitaries, powered.dim)


def _dense_blocks(unitaries, dim: int) -> list[tuple[int, int]]:
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


def golden_min(fn, a: float, b: float) -> tuple[float, float]:
    """Deterministic golden-section minimum of the values fn(x) on [a, b],
    down to GOLDEN_XTOL in x; ties resolve toward smaller x."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > GOLDEN_XTOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    candidates = [(a, fn(a)), ((a + b) / 2.0, fn((a + b) / 2.0)), (b, fn(b))]
    return min(candidates, key=lambda p: (p[1], p[0]))


def golden_refinement(fn, lo: float, hi: float) -> tuple[float, float]:
    """divergences._bracket_min's contract by golden section of the values
    fn(x)[0] alone, with no gap (reported as nan)."""
    return golden_min(lambda x: fn(x)[0], lo, hi)[1], math.nan


def breakpoint_dual(p: np.ndarray, q: np.ndarray, eps: float) -> float:
    """Exact maximum of the beta_eps dual for atom weights (p, q).

    Here f(t) = t(1 - eps) - sum_k (t p_k - q_k)_+ is piecewise linear, so it
    peaks at t = 0 or at a breakpoint t_k = q_k/p_k, where with the atoms
    sorted by t_k it equals t_k (1 - eps - P_k) + Q_k for the cumulative
    weights P_k, Q_k.  Breakpoints beyond 1/eps cannot win and are skipped,
    which keeps huge ratios from tiny p_k out of the arithmetic.
    """
    atoms = p > 0.0
    t = q[atoms] / p[atoms]
    order = np.argsort(t)
    t = t[order]
    values = t * (1.0 - eps - np.cumsum(p[atoms][order])) + np.cumsum(q[atoms][order])
    best = values[t <= 1.0 / eps].max(initial=0.0)
    return float(min(max(0.0, best), 1.0))


def looped_random_battery(rho0n, rho1n, a: float, count: int) -> tuple[float | None, float]:
    """oracle.pmin_random_battery one test at a time: a (d, d) real and a
    (d, d) imaginary draw, one eigh and a running minimum per test."""
    m0 = np.asarray(getattr(rho0n, "mat", rho0n), dtype=complex)
    m1 = np.asarray(getattr(rho1n, "mat", rho1n), dtype=complex)
    rng = np.random.default_rng(DEFAULT_SEED)
    weight = math.exp(-a)
    best = math.inf
    for _ in range(count):
        g = rng.standard_normal(m0.shape) + 1j * rng.standard_normal(m0.shape)
        h = (g + g.conj().T) / 2.0
        w, v = np.linalg.eigh(h)
        t = (v * np.clip(w, 0.0, 1.0)) @ v.conj().T
        combined = weight * (1.0 - np.trace(m0 @ t).real) + np.trace(m1 @ t).real
        best = min(best, float(combined))
    return (best if count else None), _pmin_reference(m0, m1, a)


def per_rate_error_rows(accept0, accept1) -> np.ndarray:
    """The rows (1 - accept0, accept1) of threshold errors, one ErrorPair
    per rate, each gated and clipped on its own."""
    rows = [ErrorPair(1.0 - float(a0), float(a1)) for a0, a1 in zip(accept0, accept1)]
    return np.array([(e.beta0, e.beta1) for e in rows], dtype=float).reshape(-1, 2)


def binomial_power_sum_limit(a: float, b: float, s: float) -> float:
    """lim of (sum_i C(n,i)^s a^i b^(n-i))^(1/n): (a^(1/s)+b^(1/s))^s for s>0,
    max(a, b) for s <= 0."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    if s <= 0.0:
        return max(a, b)
    if a == 0.0 and b == 0.0:
        return 0.0
    return math.exp(s * _logsumexp([_xlog(a) / s, _xlog(b) / s]))


def binomial_power_sum(a: float, b: float, s: float, n: int) -> float:
    """Finite-n companion (sum_i C(n,i)^s a^i b^(n-i))^(1/n), in log space."""
    logs = []
    for i in range(n + 1):
        la = i * _xlog(a)
        lb = (n - i) * _xlog(b)
        if la == NEG_INF or lb == NEG_INF:
            continue
        logs.append(s * _log_binom(n, i) + la + lb)
    total = _logsumexp(logs)
    return 0.0 if total == NEG_INF else math.exp(total / n)


def half_binomial_sum_limit(a: float, b: float) -> float:
    """lim of (sum_{i <= n/2} C(n,i) a^i b^(n-i))^(1/n): a+b if a <= b, else 2 sqrt(ab)."""
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    return a + b if a <= b else 2.0 * math.sqrt(a * b)


def half_binomial_sum(a: float, b: float, n: int) -> float:
    logs = []
    for i in range(n // 2 + 1):
        la = i * _xlog(a)
        lb = (n - i) * _xlog(b)
        if la == NEG_INF or lb == NEG_INF:
            continue
        logs.append(_log_binom(n, i) + la + lb)
    total = _logsumexp(logs)
    return 0.0 if total == NEG_INF else math.exp(total / n)

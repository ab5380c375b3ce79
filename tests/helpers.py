"""References that only the tests read: the dense twirl by literal averaging
and the random unitaries its checks draw, the benchmark's seeded qubit
pairs, the positive-part projection from one eigh of a whole matrix,
golden section, the 1-D refinement the certified bracket method
replaced, the exact breakpoint maximum of a commuting pair's beta_eps dual,
the random-test battery drawn one test at a time, and the binomial power
sums whose limits the closed forms rest on, in log space."""

import math

import numpy as np

from symtest.linalg import DensityOperator, cut_level
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

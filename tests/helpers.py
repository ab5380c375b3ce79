"""References that only the tests read: the dense twirl by literal averaging
and the random unitaries its checks draw, and the binomial power sums whose
limits the closed forms rest on, in log space."""

import math

import numpy as np

from symtest.oracle import _log_binom, _logsumexp, _xlog

NEG_INF = float("-inf")
TORUS_SAMPLES = 4096


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

"""Independent brute-force reference computations.

Everything in this module is deliberately written against plain numpy so the
main pipeline and its oracle share no code path: partial traces by index
contraction, power traces by scalar block sums in log space, and optimality
batteries over random tests.  Every function returns plain numbers or arrays; a battery
returns its best random test's error next to the closed-form optimum.  Slow
is fine here.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEED = 0x5EED


def random_density(dim: int, rank: int | None = None,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Ginibre-induced random density matrix of the given rank."""
    if rng is None:
        rng = np.random.default_rng(DEFAULT_SEED)
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def ptrace_oracle(mat, m: int, d: int) -> np.ndarray:
    """Partial trace over the second (d-dimensional) factor by index contraction."""
    a = np.asarray(mat, dtype=complex).reshape(m, d, m, d)
    return np.einsum("ijkj->ik", a)


def _logsumexp(terms) -> float:
    terms = [t for t in terms if t != float("-inf")]
    if not terms:
        return float("-inf")
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _log_binom(n: int, i: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)


def _xlog(c: float) -> float:
    return math.log(c) if c > 0.0 else float("-inf")


def block_scalar_oracle(kind: str, params: dict, n: int, s: float) -> float:
    """Tr rho0n^s rho1n^(1-s) from the closed block data; no matrices built.

    Terms whose rho0 or rho1 block weight vanishes are dropped, matching the
    0**s = 0 support convention of the matrix pipeline.
    """
    logs = []
    if kind == "TorusPureVsMixed":
        alpha = params["alpha"]
        for i in range(n + 1):
            l0 = _log_binom(n, i) - n * math.log(2.0)
            l1 = i * _xlog(alpha) + (n - i) * _xlog(1.0 - alpha)
            if l0 == float("-inf") or l1 == float("-inf"):
                continue
            logs.append(s * l0 + (1.0 - s) * l1)
    elif kind == "TorusTwoPure":
        lam, mu = params["lam"], params["mu"]
        t1 = s * _xlog(lam) + (1.0 - s) * _xlog(mu)
        t2 = s * _xlog(1.0 - lam) + (1.0 - s) * _xlog(1.0 - mu)
        return math.exp(n * _logsumexp([t1, t2]))
    elif kind == "Z2Commuting":
        lam, mu = params["lam"], params["mu"]

        def log_avg(p: float, i: int) -> float:
            t1 = i * _xlog(p) + (n - i) * _xlog(1.0 - p)
            t2 = (n - i) * _xlog(p) + i * _xlog(1.0 - p)
            return _logsumexp([t1, t2]) - math.log(2.0)

        for i in range(n + 1):
            l0, l1 = log_avg(lam, i), log_avg(mu, i)
            if l0 == float("-inf") or l1 == float("-inf"):
                continue
            logs.append(_log_binom(n, i) + s * l0 + (1.0 - s) * l1)
    else:
        raise ValueError(f"no scalar block data for scenario kind {kind!r}")
    total = _logsumexp(logs)
    return 0.0 if total == float("-inf") else math.exp(total)


def _pmin_reference(m0: np.ndarray, m1: np.ndarray, a: float) -> float:
    weight = math.exp(-a)
    w = np.linalg.eigvalsh(weight * m0 - m1)
    return (1.0 + weight) / 2.0 - float(np.sum(np.abs(w))) / 2.0


def pmin_random_battery(rho0n, rho1n, a: float, count: int) -> tuple[float | None, float]:
    """(battery minimum, reference p_min): the least e^{-a} beta0 + beta1 of
    `count` seeded random tests, None when count is 0, and the closed form.

    Random tests are Hermitian matrices with spectrum clipped into [0, 1].
    """
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

"""Host-speed calibration: fixed kernels timed next to every measurement.

On a shared host the same code can run 1.5-2x slower for tens of seconds at
a time (another tenant on the same physical core), and CPU time slows down
with wall time, so medians over a run cannot hide it.  The benchmark
therefore times fixed kernels right before and right after each measured
job (and each timed import) and divides the measured time by the slowdown

    measured kernel time / nominal kernel time

which reports it in seconds on a host of nominal speed.  The kernels use
only the standard library and numpy, never symtest, so a change to the
program under test cannot move them.  They do the kinds of work the
workloads do: interpreted Python, many tiny numpy calls, a mix of small
Hermitian algebra with float formatting and JSON, and one 384x384
eigendecomposition.  On the workloads' own jobs this sum tracked the
slowdown better than any single kernel did.

    python3 perfbench/calibrate.py [REPEATS]

prints the kernels' times on this host.  NOMINAL_S holds their fast-mode
times on a 2-vCPU Xeon Sapphire Rapids KVM guest with OpenBLAS pinned to
one thread; only the ratio to them matters.
"""

from __future__ import annotations

import json
import re
import time

NOMINAL_S = {"python": 0.0100, "numpy": 0.0140, "mixed": 0.0135, "eigh": 0.0165}

_INPUTS = None  # numpy inputs and solvers, built on first use


def _inputs():
    """Fixed matrices, and numpy's solvers bound before a tracer can wrap them."""
    global _INPUTS
    if _INPUTS is None:
        import numpy as np

        rng = np.random.default_rng(12345)
        small = [rng.standard_normal((8, 8)) for _ in range(10)]
        mid = rng.standard_normal((128, 128))
        big = rng.standard_normal((384, 384))
        herm = []
        for d in (2, 4, 8, 16, 32):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            herm.append(m + m.conj().T)
        _INPUTS = {"np": np, "small": [m + m.T for m in small], "mid": mid + mid.T,
                   "big": big + big.T, "herm": herm,
                   "eigh": np.linalg.eigh, "eigvalsh": np.linalg.eigvalsh}
    return _INPUTS


def python_kernel() -> float:
    """Interpreter-bound work (dict churn and string sorting); seconds taken."""
    started = time.perf_counter()
    acc, table = 0, {}
    for i in range(60000):
        table[i % 977] = acc
        acc += i * i
    sorted(str(i) for i in range(25000))
    return time.perf_counter() - started


def numpy_kernel() -> float:
    """Tiny numpy calls and three 128x128 eigendecompositions; seconds taken."""
    x = _inputs()
    np, small, eigvalsh, eigh = x["np"], x["small"], x["eigvalsh"], x["eigh"]
    started = time.perf_counter()
    for i in range(300):
        m = small[i % 10]
        eigvalsh(m)
        np.kron(m[:2, :2], m[:2, :2])
        m @ m
    for _ in range(3):
        eigh(x["mid"])
    return time.perf_counter() - started


def mixed_kernel() -> float:
    """Small Hermitian algebra, float formatting and JSON; seconds taken."""
    x = _inputs()
    np, eigh, eigvalsh = x["np"], x["eigh"], x["eigvalsh"]
    started = time.perf_counter()
    for i in range(15):
        for m in x["herm"]:
            w, v = eigh(m)
            eigvalsh(m)
            p = (v * np.maximum(w, 0)) @ v.conj().T
            float(np.trace(p).real)
            np.kron(m[:2, :2], m[:2, :2])
            np.einsum("ij,ji->", m, p)
            np.allclose(p, p.conj().T)
            float(np.abs(w).max())
        text = json.dumps({"w": [float(e) for e in w], "i": str(i)})
        json.loads(text)
        "%.6g,%r" % (float(w[0]), i)
        re.match(r"(\w+)\s*=\s*(\S+)", "alpha = 0.3")
    return time.perf_counter() - started


def eigh_kernel() -> float:
    """One 384x384 real symmetric eigendecomposition; seconds taken."""
    x = _inputs()
    started = time.perf_counter()
    x["eigh"](x["big"])
    return time.perf_counter() - started


JOB_KERNELS = {"python": python_kernel, "numpy": numpy_kernel, "mixed": mixed_kernel,
               "eigh": eigh_kernel}


def job_kernels() -> dict:
    """Every kernel once, as {kernel name: seconds}."""
    return {name: kernel() for name, kernel in JOB_KERNELS.items()}


def slowdown(before: dict, after: dict) -> float:
    """How many times slower than nominal the host ran over a measurement,
    from the kernel times taken before and after it (the kernels present in
    `before` are used)."""
    measured = sum(before[k] + after[k] for k in before) / 2.0
    return measured / sum(NOMINAL_S[k] for k in before)


def main(argv) -> int:
    import statistics

    repeats = int(argv[1]) if len(argv) > 1 else 200
    job_kernels()  # builds the inputs; first calls pay one-off costs
    for name, kernel in JOB_KERNELS.items():
        times = sorted(kernel() for _ in range(repeats))
        q1, med, q3 = statistics.quantiles(times, n=4)
        print(f"{name}: min {times[0]:.5f} q1 {q1:.5f} median {med:.5f} q3 {q3:.5f} "
              f"max {times[-1]:.5f} nominal {NOMINAL_S[name]:.5f}")
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(main(sys.argv))

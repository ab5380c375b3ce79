"""Workload definitions and the seeded input generator.

Every workload is a fixed list of CLI jobs.  The program only ever receives
scenario files and argv: the fixed scenarios below are written out verbatim,
and seeded random qubit pairs under the sign-flip group are written as dense
matrices of [re, im] pairs.  The same seed always gives the same files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
WORKLOADS = ("curves", "decide", "battery")

# Copies of the scenario files shipped with the package, frozen here so the
# benchmark's inputs stay the same when those files change.
FIXED_SCENARIOS = {
    "pure-vs-mixed": {
        "name": "pure state vs an invariant diagonal mixture",
        "kind": "TorusPureVsMixed",
        "rho0": "pure-qubit 0.5",
        "rho1": "diag 0.3",
        "group": {"type": "torus", "weights": [0, 1]},
        "n_max": 6,
        "params": {"alpha": 0.3},
    },
    "two-commuting": {
        "name": "two commuting mixtures under a sign flip",
        "kind": "Z2Commuting",
        "rho0": "bernoulli-conjugated 0.2",
        "rho1": "bernoulli-conjugated 0.7",
        "group": {"type": "finite", "unitaries": [
            [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        ]},
        "n_max": 6,
        "params": {"lam": 0.2, "mu": 0.7},
    },
    "two-pure": {
        "name": "two pure states under the torus",
        "kind": "TorusTwoPure",
        "rho0": "pure-qubit 0.3",
        "rho1": "pure-qubit 0.6",
        "group": {"type": "torus", "weights": [0, 1]},
        "n_max": 6,
        "params": {"lam": 0.3, "mu": 0.6},
    },
}

SIGN_FLIP = [
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
]

# Number of checks `verify --n-max n` runs; the battery must report all of
# them and no violation.
VERIFY_CHECKS = {7: 2278, 3: 1618}

TINY_N = 3


def _random_qubit(rng: np.random.Generator) -> list:
    """Ginibre-induced full-rank qubit state as [re, im] pairs."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = (rho + rho.conj().T) / 2.0
    return [[[float(z.real), float(z.imag)] for z in row] for row in rho]


def random_pairs(seed: int) -> dict[str, dict]:
    """Two seeded random qubit pairs under the sign-flip group."""
    rng = np.random.default_rng(seed)
    out = {}
    for name in ("random-a", "random-b"):
        out[name] = {
            "name": f"{name} (seed {seed})",
            "rho0": _random_qubit(rng),
            "rho1": _random_qubit(rng),
            "group": {"type": "finite", "unitaries": SIGN_FLIP},
            "n_max": 6,
        }
    return out


def _job(job_id, command, scenario, n_max, workdir, seeded, extra=()):
    argv = ["--command", command]
    if scenario is not None:
        argv += ["--scenario", str(workdir / f"{scenario}.json")]
    argv += ["--n-max", str(n_max), *extra]
    job = {"id": job_id, "command": command, "scenario": scenario,
           "n_max": n_max, "seeded": seeded, "argv": argv, "out": None}
    if command != "verify":
        # verify ignores --out and prints its report to stdout
        job["out"] = str(workdir / f"{job_id}.csv")
        job["argv"] += ["--out", job["out"]]
    return job


def jobs(workload: str, workdir: Path, tiny: bool = False) -> list[dict]:
    """The job list of a workload; `tiny` shrinks every n for smoke tests."""
    def n(value):
        return TINY_N if tiny else value

    if workload == "curves":
        return [
            _job("psi.pure-vs-mixed", "psi", "pure-vs-mixed", n(9), workdir, False),
            _job("convergence.pure-vs-mixed", "convergence", "pure-vs-mixed", n(9), workdir, False),
            _job("stein.two-commuting", "stein", "two-commuting", n(9), workdir, False),
            _job("chernoff.two-commuting", "chernoff", "two-commuting", n(9), workdir, False),
            _job("chernoff.random-a", "chernoff", "random-a", n(9), workdir, True),
        ]
    if workload == "decide":
        return [
            _job("beta-eps.two-pure", "beta-eps", "two-pure", n(7), workdir, False),
            _job("beta-eps.random-a", "beta-eps", "random-a", n(6), workdir, True),
            # a negative grid start must be glued to the flag, or argparse
            # reads it as an option
            _job("pmin.random-b", "pmin", "random-b", n(7), workdir, True,
                 extra=("--a-grid=-0.2:0.3:3",)),
        ]
    if workload == "battery":
        return [_job("verify", "verify", None, n(7), workdir, False)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[dict]:
    """Write the workload's scenario files into `workdir`; return its jobs."""
    job_list = jobs(workload, workdir, tiny)
    scenarios = {**FIXED_SCENARIOS, **random_pairs(seed)}
    for name in {job["scenario"] for job in job_list} - {None}:
        (workdir / f"{name}.json").write_text(json.dumps(scenarios[name], indent=1) + "\n")
    return job_list

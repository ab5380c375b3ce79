"""Seeded fuzzing of the command line: random scenario files and options run
through symtest.cli.main in-process.  Whatever the input, no exception may
escape main and the exit code is 0 (success), 2 (bad input) or 3 (a resource
limit).  The generator uses the standard library's random only, so a seed
fixes every case; a case that hits a known defect stays in the list and is
pinned as its own strict xfail."""

import json
import math
import random

import pytest

from symtest.cli import main

# an overflow or a nan in the numerics is a defect even when main exits 0
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEED = 20
CASE_COUNT = 400

COMMANDS = ("psi", "chernoff", "hoeffding", "stein", "convergence", "pmin", "beta-eps")
# constructor parameters inside [0, 1], edges included, and a few outside it
INSIDE = (0.0, 1.0, 0.5, 0.3, 0.7, 1e-300, 1e-17, 1.0 - 1e-16, 5e-324)
OUTSIDE = (-0.1, 1.1, float("nan"), float("inf"))
R2 = math.sqrt(0.5)


def _u(rows):
    return [[[float(z.real), float(z.imag)] for z in row] for row in rows]


GROUPS = {
    "sign flip": [_u([[1, 0], [0, 1]]), _u([[1, 0], [0, -1]])],
    "trivial": [_u([[1, 0], [0, 1]])],
    "hadamard": [_u([[1, 0], [0, 1]]), _u([[R2, R2], [R2, -R2]])],
    "bit flip": [_u([[1, 0], [0, 1]]), _u([[0, 1], [1, 0]])],
    "pauli": [_u([[p * a for a in row] for row in m])
              for p in (1, -1, 1j, -1j)
              for m in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])],
}
BAD_GROUPS = {
    "not closed": [_u([[1, 0], [0, 1]]), _u([[R2, R2], [R2, -R2]]), _u([[0, 1], [1, 0]])],
    "not unitary": [_u([[1, 0], [0, 1]]), _u([[2, 0], [0, 1]])],
}


def random_state(rng):
    roll = rng.random()
    if roll < 0.5:
        name = rng.choice(("diag", "pure-qubit", "bernoulli-conjugated"))
        value = random_parameter(rng)
        if rng.random() < 0.05:
            value = rng.choice(OUTSIDE)
        return f"{name} {value!r}"
    if roll < 0.55:
        return rng.choice(("diag", "diag 0.3 0.4", "qutrit 0.3", "diag x"))
    # a Ginibre-induced qubit state, at times of rank one or broken
    g = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
    if rng.random() < 0.2:
        g = [[g[0][0], 0], [g[1][0], 0]]
    rho = [[sum(g[i][k] * g[j][k].conjugate() for k in range(2)) for j in range(2)] for i in range(2)]
    tr = (rho[0][0] + rho[1][1]).real
    rho = [[z / tr for z in row] for row in rho]
    if rng.random() < 0.05:
        rho[0][1] += 1e-3  # no longer Hermitian
    if rng.random() < 0.03:
        rho = [row[:1] for row in rho]  # not square
    return _u(rho)


def random_group(rng):
    if rng.random() < 0.5:
        weights = [rng.choice((0, 1, -1, 2, 3, 4, 2**53, -(2**53))) for _ in range(2)]
        if rng.random() < 0.4:
            weights = [0, 1]  # the weights the torus closed forms are inferred for
        if rng.random() < 0.05:
            weights = rng.choice(([0, 1, 2], [True, 1], ["0", "1"], [], [0.5, 1]))
        return {"type": "torus", "weights": weights}
    pool = BAD_GROUPS if rng.random() < 0.05 else GROUPS
    return {"type": "finite", "unitaries": pool[rng.choice(sorted(pool))]}


def random_grid(rng):
    lo = rng.choice((-0.5, 0.0, 0.1, 1e-310, -5.0, 0.25))
    hi = lo + rng.choice((1.0, 2.5, 0.5, 1e-300, 10.0))
    steps = rng.choice((2, 3, 11, 26))
    if rng.random() < 0.1:
        hi, steps = rng.choice(((lo - 1.0, 3), (lo + 1.0, 1), (lo + 1.0, 0)))
    return f"{lo!r}:{hi!r}:{steps}"


def random_parameter(rng):
    return rng.choice(INSIDE) if rng.random() < 0.6 else rng.random()


def closed_form_family(rng):
    """States and group of a scenario whose closed-form kind is inferred."""
    family = rng.choice(("pure-vs-mixed", "two-pure", "two-commuting"))
    if family == "pure-vs-mixed":
        states = ("pure-qubit 0.5", f"diag {random_parameter(rng)!r}")
    elif family == "two-pure":
        states = (f"pure-qubit {random_parameter(rng)!r}", f"pure-qubit {random_parameter(rng)!r}")
    else:
        states = (f"bernoulli-conjugated {random_parameter(rng)!r}",
                  f"bernoulli-conjugated {random_parameter(rng)!r}")
        return states, {"type": "finite", "unitaries": GROUPS["sign flip"]}
    return states, {"type": "torus", "weights": [0, 1]}


def random_case(rng):
    if rng.random() < 0.25:
        (rho0, rho1), group = closed_form_family(rng)
    else:
        rho0, rho1, group = random_state(rng), random_state(rng), random_group(rng)
    doc = {"name": "fuzz", "rho0": rho0, "rho1": rho1, "group": group, "n_max": rng.choice((1, 2, 3))}
    if rng.random() < 0.05:
        doc["n_max"] = rng.choice((0, True, "2", 2.5))
    if rng.random() < 0.05:
        doc["kind"] = "NoSuchKind"
    if rng.random() < 0.05:
        doc["params"] = rng.choice(({"alpha": 0.3}, {"lam": "x"}, [], {"mu": 1e308}))
    argv = ["--command", rng.choice(COMMANDS), "--format", rng.choice(("csv", "json"))]
    if rng.random() < 0.3:
        argv += ["--n-max", str(rng.choice((1, 2, 3)))]
    if rng.random() < 0.3:
        argv += [f"--s-grid={random_grid(rng)}"]
    if rng.random() < 0.2:
        argv += [f"--r-grid={random_grid(rng)}"]
    if rng.random() < 0.2:
        argv += [f"--a-grid={random_grid(rng)}"]
    if rng.random() < 0.2:
        argv += ["--eps", repr(rng.choice((0.1, 0.5, 1e-9, 0.999999, 0.0, 1.0)))]
    return doc, argv


_rng = random.Random(SEED)
CASES = [random_case(_rng) for _ in range(CASE_COUNT)]

OVERFLOW = ("FOUND: PsiEvaluator.trace_power overflows on a spectrum spread past about "
            "1e308: (5e-324)**(1 - 2) is inf, and the curve check raises or psi reads "
            "the nan of 0 * inf as -inf")
UNDERFLOW = ("FOUND: an n-copy eigenvalue below the double range underflows to 0 "
             "(1e-300**2), so convergence fails its bracket at n = 2, s = 1")
# cases at this seed that hit a defect this change does not mend, by index
KNOWN_DEFECTS = {67: OVERFLOW, 127: OVERFLOW, 138: UNDERFLOW, 227: UNDERFLOW}


def run_case(tmp_path, index):
    doc, argv = CASES[index]
    path = tmp_path / f"case-{index}.json"
    path.write_text(json.dumps(doc))
    return main(["--scenario", str(path), *argv, "--out", str(tmp_path / f"case-{index}.out")])


def test_cli_survives_seeded_scenarios(tmp_path):
    for index in range(CASE_COUNT):
        if index in KNOWN_DEFECTS:
            continue
        assert run_case(tmp_path, index) in (0, 2, 3), (index, CASES[index])


@pytest.mark.parametrize("index", [
    pytest.param(index, marks=pytest.mark.xfail(strict=True, reason=reason))
    for index, reason in sorted(KNOWN_DEFECTS.items())])
def test_known_defect_cases(tmp_path, index):
    assert run_case(tmp_path, index) in (0, 2, 3), (index, CASES[index])

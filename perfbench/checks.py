"""Output checks.  A job fails on a nonzero exit code or on any failed check.

Tolerances are no looser than the ones `verify` and the test suite use for
the same quantities.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import FIXED_SCENARIOS, VERIFY_CHECKS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

ORACLE_TOL = 1e-8      # |psi_n - log oracle|, as in the oracle cross-validation test
BOUND_TOL = 1e-9       # bracket and data-processing checks, as in verify
REFERENCE_TOL = 1e-10  # relative to max(1, |reference|)

VERIFY_LINE = re.compile(r"^verify: (\d+) checks, (\d+) violations$")


def load_reference(seed: int) -> dict:
    """Reference outputs for `seed`: fixed-scenario jobs at every seed,
    seeded jobs only at the seed they were captured with."""
    doc = json.loads(REFERENCE_PATH.read_text())
    return {job_id: entry for job_id, entry in doc["jobs"].items()
            if not entry["seeded"] or doc["seed"] == seed}


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _close(value: float, expected: float, tol: float) -> bool:
    if math.isinf(value) or math.isinf(expected):
        return value == expected
    return abs(value - expected) <= tol * max(1.0, abs(expected))


def compare_reference(job: dict, text: str, reference: str) -> list[str]:
    if job["command"] == "verify":
        return [] if text == reference else ["report differs from the reference"]
    head, rows = parse_csv(text)
    ref_head, ref_rows = parse_csv(reference)
    if head != ref_head or len(rows) != len(ref_rows):
        return [f"table shape differs from the reference ({len(rows)} vs {len(ref_rows)} rows)"]
    for k, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for col, field, ref in zip(head, row, ref_row):
            try:
                value, expected = float(field), float(ref)
            except ValueError:
                if field != ref:
                    return [f"row {k} {col}: {field!r} != reference {ref!r}"]
                continue
            if not _close(value, expected, REFERENCE_TOL):
                return [f"row {k} {col}: {value!r} != reference {expected!r}"]
    return []


def _oracle_failures(points, scenario: str) -> list[str]:
    """points: (n, s, per-copy psi); compared against the scalar block oracle."""
    from symtest.oracle import block_scalar_oracle

    doc = FIXED_SCENARIOS[scenario]
    worst = 0.0
    for n, s, value in points:
        exact = block_scalar_oracle(doc["kind"], doc["params"], n, s)
        expected = math.log(exact) if exact > 0.0 else -math.inf
        if math.isinf(expected) or math.isinf(value):
            if value != expected:
                return [f"n={n} s={s}: psi {value!r} against oracle {expected!r}"]
            continue
        worst = max(worst, abs(n * value - expected))
    if worst > ORACLE_TOL:
        return [f"psi deviates from the block oracle by {worst:.3e} > {ORACLE_TOL:g}"]
    return []


def _psi_checks(job, head, rows) -> list[str]:
    col = {name: k for k, name in enumerate(head)}
    if job["command"] == "psi":
        points = [(int(r[col["n"]]), float(r[col["s"]]), float(r[col["value"]]))
                  for r in rows if r[col["label"]] == "twirled"]
    else:
        points = [(int(r[col["n"]]), float(r[col["s"]]), float(r[col["value"]])) for r in rows]
    if len({p[0] for p in points}) != job["n_max"]:
        return [f"expected twirled rows for n = 1..{job['n_max']}"]
    if "kind" in FIXED_SCENARIOS.get(job["scenario"], {}):
        return _oracle_failures(points, job["scenario"])
    return []


def _per_copy_checks(job, head, rows) -> list[str]:
    """Twirling is a channel, so the per-copy value never exceeds the
    unrestricted single-copy one."""
    unres = [float(r[2]) for r in rows if r[1] == "unrestricted"]
    per_copy = [(int(r[0]), float(r[2])) for r in rows if r[1] == "twirled-per-copy"]
    if len(unres) != 1 or len(per_copy) != job["n_max"]:
        return [f"expected one unrestricted row and {job['n_max']} per-copy rows"]
    for n, value in per_copy:
        if not (-BOUND_TOL <= value <= unres[0] + BOUND_TOL):
            return [f"n={n}: per-copy {head[2]} {value!r} outside [0, {unres[0]!r}]"]
    return []


def _bracket_checks(job, head, rows) -> list[str]:
    col = {name: k for k, name in enumerate(head)}
    if len({r[col["n"]] for r in rows}) != job["n_max"]:
        return [f"expected rows for n = 1..{job['n_max']}"]
    for r in rows:
        n, a = int(r[col["n"]]), float(r[col["a_or_eps"]])
        beta0, beta1 = float(r[col["beta0"]]), float(r[col["beta1"]])
        lo, hi = float(r[col["bound_lo"]]), float(r[col["bound_hi"]])
        # beta-eps reports beta1 itself; pmin reports the optimal test's errors,
        # whose weighted sum is p_min
        value = beta1 if job["command"] == "beta-eps" else math.exp(-n * a) * beta0 + beta1
        if not (lo - BOUND_TOL <= value <= hi + BOUND_TOL):
            return [f"n={n} a_or_eps={a!r}: {value!r} outside its bracket [{lo!r}, {hi!r}]"]
    return []


def _verify_checks(job, text) -> list[str]:
    lines = text.strip().splitlines()
    match = VERIFY_LINE.match(lines[-1]) if lines else None
    if match is None:
        return ["verify printed no summary line"]
    checks, violations = int(match.group(1)), int(match.group(2))
    expected = VERIFY_CHECKS.get(job["n_max"])
    failures = []
    if violations:
        failures.append(f"verify reported {violations} violations")
    if checks != expected:
        failures.append(f"verify ran {checks} checks, expected {expected}")
    if any("PASS" not in line for line in lines[:-1]):
        failures.append("a verify report did not pass")
    return failures


def check_job(job: dict, code, text: str, reference: dict) -> list[str]:
    """Failure messages for one job's exit code and output (empty if it passed)."""
    if code != 0:
        return [f"exit code {code!r}"]
    try:
        if job["command"] == "verify":
            failures = _verify_checks(job, text)
        else:
            head, rows = parse_csv(text)
            if job["command"] in ("psi", "convergence"):
                failures = _psi_checks(job, head, rows)
            elif job["command"] in ("stein", "chernoff"):
                failures = _per_copy_checks(job, head, rows)
            else:
                failures = _bracket_checks(job, head, rows)
    except (IndexError, KeyError, ValueError) as exc:
        failures = [f"malformed output: {exc!r}"]
    entry = reference.get(job["id"])
    if not failures and entry is not None and entry["n_max"] == job["n_max"]:
        failures = compare_reference(job, text, entry["output"])
    return [f"{job['id']}: {msg}" for msg in failures]

"""Scenario-driven command-line surface.

Scenario files are JSON: states either as dense matrices of [re, im] pairs
or as named constructors ("diag 0.3", "pure-qubit 0.3",
"bernoulli-conjugated 0.2"), the group as an explicit unitary list or a
torus weight vector.  Every command writes a CSV or JSON table; `verify`
runs the full inequality battery and exits nonzero on any violation.

Exit codes: 0 success, 1 verification failure, 2 parse/validation error,
3 dimension or resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .asymptotics import (
    Scenario,
    TORUS_PURE_VS_MIXED,
    TORUS_TWO_PURE,
    Z2_COMMUTING,
    closed_form_curve,
    closed_form_psi,
    closed_form_relative_entropy,
    convergence_table,
    diag_qubit,
    make_scenario,
    pure_qubit,
    sigma_state,
    solve_flat_chernoff_alpha,
    z2_action,
)
from .discrimination import (
    TwirledPair,
    beta_eps,
    error_pair,
    np_test,
    p_min,
    stein_a_grid,
    strong_converse_bound,
)
from .divergences import (
    PsiCurve,
    PsiEvaluator,
    TwirledSweep,
    chernoff_distance,
    default_s_grid,
    hoeffding_distance,
    psi_curve,
    relative_entropy,
)
from .errors import CheckError, DimensionError, ScenarioError, SymtestError
from .groups import GroupAction, is_support_invariant, twirled_pair
from .linalg import DensityOperator
from .verify import run_verify

COMMANDS = (
    "psi", "chernoff", "hoeffding", "stein", "pmin", "beta-eps",
    "convergence", "examples", "verify",
)

EXAMPLE_NAMES = ("two-commuting", "pure-vs-mixed", "two-pure",
                 "subgroup-equality", "balanced-mixing")
EXAMPLE_ALIASES = {
    "example61": "two-commuting",
    "example62": "pure-vs-mixed",
    "example65": "two-pure",
    "remark63": "subgroup-equality",
    "remark64": "balanced-mixing",
}

_CONSTRUCTORS = {
    "diag": diag_qubit,
    "pure-qubit": pure_qubit,
    "bernoulli-conjugated": sigma_state,
}


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, steps = spec.split(":")
        lo, hi = float(lo), float(hi)
        # a nan or infinite end, or a span past the float range
        if not math.isfinite(hi - lo):
            raise ScenarioError(f"grid {spec!r} must span a finite interval")
        grid = np.linspace(lo, hi, int(steps))
    except ValueError as exc:
        raise ScenarioError(f"bad grid spec {spec!r}, expected a:b:steps") from exc
    if grid.size == 0:
        raise ScenarioError(f"grid {spec!r} has no points")
    if np.any(np.diff(grid) <= 0):
        raise ScenarioError(f"grid {spec!r} must be ascending")
    return grid


def _parse_state(spec, label: str) -> tuple[DensityOperator, tuple | None]:
    if isinstance(spec, str):
        parts = spec.split()
        if len(parts) != 2:
            raise ScenarioError(f"{label}: constructor spec must be 'name value', got {spec!r}")
        name, raw = parts
        if name not in _CONSTRUCTORS:
            raise ScenarioError(f"{label}: unknown constructor {name!r}")
        try:
            value = float(raw)
        except ValueError as exc:
            raise ScenarioError(f"{label}: bad constructor parameter {raw!r}") from exc
        try:
            return _CONSTRUCTORS[name](value), (name, value)
        except ValueError as exc:
            raise ScenarioError(f"{label}: {exc}") from exc
    try:
        arr = np.asarray(spec, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{label}: matrix entries must be [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ScenarioError(
            f"{label}: expected a square matrix of [re, im] pairs, got shape {arr.shape}")
    mat = arr[..., 0] + 1j * arr[..., 1]
    try:
        return DensityOperator(mat), None
    except ValueError as exc:
        raise ScenarioError(f"{label} is not a density matrix: {exc}") from exc


def _parse_group(spec, dim: int) -> GroupAction:
    if not isinstance(spec, dict) or "type" not in spec:
        raise ScenarioError("group must be an object with a 'type' key")
    kind = spec["type"]
    if kind not in ("torus", "finite"):
        raise ScenarioError(f"unknown group type {kind!r}")
    try:
        if kind == "torus":
            action = GroupAction.torus(spec["weights"])
        else:
            mats = [np.asarray(u, dtype=float) for u in spec["unitaries"]]
            action = GroupAction.finite([u[..., 0] + 1j * u[..., 1] for u in mats])
    except (KeyError, TypeError, ValueError, IndexError, DimensionError) as exc:
        raise ScenarioError(f"bad {kind} group: {exc}") from exc
    if action.dim != dim:
        raise ScenarioError(
            f"group dimension {action.dim} does not match state dimension {dim}")
    return action


def _infer_kind(ctor0, ctor1, action: GroupAction) -> str | None:
    if ctor0 is None or ctor1 is None:
        return None
    if action.kind == "torus" and list(action.weights) == [0, 1]:
        # the torus closed forms hold for parameters strictly inside (0, 1)
        if not (0.0 < ctor0[1] < 1.0 and 0.0 < ctor1[1] < 1.0):
            return None
        if ctor0 == ("pure-qubit", 0.5) and ctor1[0] == "diag":
            return TORUS_PURE_VS_MIXED
        if ctor0[0] == "pure-qubit" and ctor1[0] == "pure-qubit":
            return TORUS_TWO_PURE
    # the Z2 closed form is the sign flip's: the group must be {I, Z} up to a phase
    if action.kind == "finite" and len(action.unitaries) == 2 and any(
            abs(u[0, 1]) + abs(u[1, 0]) + abs(u[0, 0] + u[1, 1]) <= 1e-9 for u in action.unitaries):
        if ctor0[0] == "bernoulli-conjugated" and ctor1[0] == "bernoulli-conjugated":
            return Z2_COMMUTING
    return None


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; raises ScenarioError with a
    line/column diagnostic on malformed JSON."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    for key in ("name", "rho0", "rho1", "group", "n_max"):
        if key not in doc:
            raise ScenarioError(f"scenario is missing the {key!r} key")
    rho0, ctor0 = _parse_state(doc["rho0"], "rho0")
    rho1, ctor1 = _parse_state(doc["rho1"], "rho1")
    if rho0.dim != rho1.dim:
        raise ScenarioError("rho0 and rho1 have different dimensions")
    action = _parse_group(doc["group"], rho0.dim)
    n_max = doc["n_max"]
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ScenarioError(f"n_max must be a positive integer, got {n_max!r}")
    params = doc.get("params", {})
    if not isinstance(params, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in params.values()):
        raise ScenarioError(f"params must be an object of finite numbers, got {params!r}")
    params = dict(params)
    for ctor, names in ((ctor0, ("lam", "alpha")), (ctor1, ("mu", "alpha"))):
        if ctor is not None:
            name = "alpha" if ctor[0] == "diag" else names[0]
            params.setdefault(name, ctor[1])
    kind = doc.get("kind") or _infer_kind(ctor0, ctor1, action)
    if kind is not None:
        try:
            closed_form_psi(kind, params, 0.5)
        except KeyError as exc:
            raise ScenarioError(f"scenario kind {kind!r} needs the parameter {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return Scenario(name=str(doc["name"]), rho0=rho0, rho1=rho1, action=action,
                    n_max=n_max, params=params, kind=kind)


def _write_table(columns, rows, config: argparse.Namespace) -> None:
    if config.fmt == "json":
        # JSON has no token for inf or nan: write the CSV ones, as strings
        rows = [[_fmt(v) if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                for row in rows]
        payload = {"command": config.command,
                   "rows": [dict(zip(columns, row)) for row in rows]}
        text = json.dumps(payload, allow_nan=False, indent=1) + "\n"
    else:
        lines = [",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _emit(text, config)


def _emit(text: str, config: argparse.Namespace) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_scenario(config: argparse.Namespace) -> Scenario:
    if not config.scenario:
        raise ScenarioError(f"command {config.command!r} requires --scenario")
    with open(config.scenario, "r", encoding="utf-8") as handle:
        sc = parse_scenario(handle.read())
    if config.n_max is not None:
        sc = replace(sc, n_max=config.n_max)
    return sc


def _cmd_psi(sc: Scenario, config: argparse.Namespace) -> int:
    grid = config.s_grid if config.s_grid is not None else default_s_grid()
    if grid.size < 2:
        raise ScenarioError("psi needs an s grid of at least 2 points")
    rows = []
    for s, v in zip(grid, psi_curve(sc.rho0, sc.rho1, grid).values):
        rows.append((float(s), float(v), 1, "unrestricted"))
    sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
    for n in range(1, sc.n_max + 1):
        curve = _twirled_curve(sweep, n, grid)
        rows.extend((float(s), float(v) / n, n, "twirled")
                    for s, v in zip(curve.s_grid, curve.values))
    if sc.kind is not None:
        curve = closed_form_curve(sc.kind, sc.params, grid)
        rows.extend((float(s), float(v), 0, sc.kind)
                    for s, v in zip(curve.s_grid, curve.values))
    _write_table(("s", "value", "n", "label"), rows, config)
    return 0


def _twirled_curve(sweep: TwirledSweep, n: int, grid: np.ndarray) -> PsiCurve:
    ev = sweep.evaluator(n)
    return PsiCurve(grid, ev.psi, ev.psi_slope)


def _mean_label(sc: Scenario) -> str:
    """A mean row holds the closed form's value, or without a kind the
    command's own n_max row."""
    return "mean" if sc.kind is not None else "mean (best-n estimate)"


def _cmd_chernoff(sc: Scenario, config: argparse.Namespace) -> int:
    rows = [(0, "unrestricted", chernoff_distance(psi_curve(sc.rho0, sc.rho1)))]
    sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
    for n in range(1, sc.n_max + 1):
        curve = _twirled_curve(sweep, n, default_s_grid())
        rows.append((n, "twirled-per-copy", chernoff_distance(curve) / n))
    if sc.kind is not None:
        mean = chernoff_distance(closed_form_curve(sc.kind, sc.params))
    else:
        mean = rows[-1][2]
    rows.append((0, _mean_label(sc), mean))
    _write_table(("n", "label", "chernoff"), rows, config)
    return 0


def _cmd_hoeffding(sc: Scenario, config: argparse.Namespace) -> int:
    r_grid = config.r_grid if config.r_grid is not None else np.linspace(0.0, 0.5, 11)
    rows = []
    sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
    for n in range(1, sc.n_max + 1):
        curve = _twirled_curve(sweep, n, default_s_grid())
        for r in r_grid:
            rows.append((n, float(r), hoeffding_distance(curve, float(n * r)) / n, "twirled-per-copy"))
    if sc.kind is not None:
        curve = closed_form_curve(sc.kind, sc.params)
        means = [hoeffding_distance(curve, float(r)) for r in r_grid]
    else:
        means = [row[2] for row in rows[-len(r_grid):]]
    rows.extend((0, float(r), h, _mean_label(sc)) for r, h in zip(r_grid, means))
    _write_table(("n", "r", "hoeffding", "label"), rows, config)
    return 0


def _cmd_stein(sc: Scenario, config: argparse.Namespace) -> int:
    rows = [(0, "unrestricted", relative_entropy(sc.rho0, sc.rho1))]
    sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
    for n in range(1, sc.n_max + 1):
        rows.append((n, "twirled-per-copy", sweep.evaluator(n).relative_entropy() / n))
    if sc.kind is not None:
        mean = closed_form_relative_entropy(sc.kind, sc.params)
    else:
        mean = rows[-1][2]
    rows.append((0, _mean_label(sc), mean))
    _write_table(("n", "label", "relative_entropy"), rows, config)
    return 0


def _check_a_grid(config: argparse.Namespace, n_max: int) -> None:
    """Every rate a of --a-grid must keep exp(-n*a) a finite float up to n_max."""
    if config.a_grid is None:
        return
    a = float(config.a_grid[0])  # the grid ascends, so -n*a peaks at its first rate
    if -n_max * a > math.log(sys.float_info.max):
        raise ScenarioError(f"--a-grid rate {a:g} overflows exp(-n*a) at n = {n_max}")


def _cmd_pmin(sc: Scenario, config: argparse.Namespace) -> int:
    _check_a_grid(config, sc.n_max)
    a_values = config.a_grid if config.a_grid is not None else np.array([0.0])
    rows = []
    for n in range(1, sc.n_max + 1):
        rows.extend(_pmin_rows(twirled_pair(sc.rho0, sc.rho1, sc.action, n), n, a_values))
    _write_table(("n", "a_or_eps", "beta0", "beta1", "bound_lo", "bound_hi"), rows, config)
    return 0


def _pmin_rows(pair, n: int, a_values) -> list[tuple]:
    ev = PsiEvaluator(*pair)
    half_trace = ev.trace_power(0.5)
    s_grid = np.linspace(0.0, 1.0, 101)
    traces = ev.trace_power(s_grid)
    rows = []
    for a in a_values:
        a = float(a)
        errors = error_pair(np_test(*pair, n * a), *pair)
        weight = math.exp(-n * a)
        lower = weight / (1.0 + weight) * half_trace ** 2
        upper = float(np.min(np.exp(-n * a * s_grid) * traces))
        rows.append((n, a, errors.beta0, errors.beta1, lower, upper))
    return rows


def _cmd_beta_eps(sc: Scenario, config: argparse.Namespace) -> int:
    _check_a_grid(config, sc.n_max)
    # the floor needs supp rho1 invariant and holding supp rho0 (at n = 1, so at every n)
    floored = (is_support_invariant(sc.rho1, sc.action)
               and relative_entropy(sc.rho0, sc.rho1) < math.inf)
    sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
    rows = [_beta_eps_row(TwirledPair(sweep.pair(n)), n, config, floored)
            for n in range(1, sc.n_max + 1)]
    _write_table(("n", "a_or_eps", "beta0", "beta1", "bound_lo", "bound_hi"), rows, config)
    return 0


def _beta_eps_row(pair: TwirledPair, n: int, config: argparse.Namespace, floored: bool) -> tuple:
    value = pair.beta_eps(config.eps)
    if floored:
        ev = pair.evaluator
        grid = config.a_grid
        if grid is None:
            grid = stein_a_grid(ev.slope(1.0) / n)
        floor = float(np.max(strong_converse_bound(ev, eps=config.eps, a=n * grid)))
    else:
        floor = float("-inf")
    achievable = _best_pure_threshold_beta1(pair, config.eps)
    return (n, config.eps, config.eps, value, floor, achievable)


def _best_pure_threshold_beta1(pair: TwirledPair, eps: float) -> float:
    """The least beta1 of the threshold tests on the rate grid whose beta0
    is below eps by more than 1e-12, the rounding of a computed beta0: a
    test that meets the constraint exactly lands on either side of eps by
    route and rounding, so it never counts, and the column stays an upper
    bound on beta_eps on either route."""
    errors = pair.threshold_errors(np.linspace(-2.0, 2.0, 81))
    return float(errors[errors[:, 0] <= eps - 1e-12, 1].min(initial=1.0))


def _cmd_convergence(sc: Scenario, config: argparse.Namespace) -> int:
    if sc.kind is None:
        raise ScenarioError("convergence needs a scenario with a closed-form kind")
    grid = config.s_grid if config.s_grid is not None else np.linspace(-0.5, 2.0, 26)
    try:
        table = convergence_table(sc, s_grid=grid)
    except CheckError as exc:
        print(f"error: convergence of kind {sc.kind}: {exc}", file=sys.stderr)
        return 1
    rows = [(r.n, r.s, r.value, r.closed_form, r.gap, int(r.monotone)) for r in table.rows]
    _write_table(("n", "s", "value", "closed_form", "gap", "monotone"), rows, config)
    return 0


def _cmd_verify(config: argparse.Namespace) -> int:
    n_max = config.n_max if config.n_max is not None else 6
    reports = run_verify(n_max=n_max)
    failures = sum(len(r.violations) for r in reports)
    total = sum(len(r.entries) for r in reports)
    lines = [report.summary() for report in reports]
    lines.append(f"verify: {total} checks, {failures} violations")
    _emit("\n".join(lines) + "\n", config)
    return 1 if failures else 0


def _cmd_examples(config: argparse.Namespace) -> int:
    wanted = config.name
    if wanted in EXAMPLE_ALIASES:
        wanted = EXAMPLE_ALIASES[wanted]
    if wanted is not None and wanted not in EXAMPLE_NAMES:
        raise ScenarioError(f"unknown example {config.name!r}; choose from {EXAMPLE_NAMES}")
    names = [wanted] if wanted else list(EXAMPLE_NAMES)
    failures = 0
    for name in names:
        failures += _run_example(name)
    return 1 if failures else 0


def _check_line(label: str, value: float, expected: float, tol: float) -> int:
    ok = abs(value - expected) <= tol
    status = "PASS" if ok else "FAIL"
    print(f"  [{status}] {label}: {value:.12g} (expected {expected:.12g} +- {tol:g})")
    return 0 if ok else 1


def _run_example(name: str) -> int:
    failures = 0
    print(f"example {name}:")
    if name == "two-commuting":
        sc = make_scenario(Z2_COMMUTING, n_max=5, lam=0.2, mu=0.7)
        sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
        for n in (1, 3, 5):
            ev = sweep.evaluator(n)
            closed = closed_form_psi(sc.kind, sc.params, 0.5)
            gap = ev.psi(0.5) / n - closed
            print(f"  n={n}: (1/n)psi_n(0.5)={ev.psi(0.5) / n:.9f}  limit={closed:.9f}  gap={gap:.3e}")
            if not 0.0 <= gap <= math.log(2.0) / n + 1e-12:
                failures += 1
                print("  [FAIL] gap left the [0, log2/n] envelope")
    elif name == "pure-vs-mixed":
        sc = make_scenario(TORUS_PURE_VS_MIXED, n_max=6, alpha=0.3)
        curve = closed_form_curve(sc.kind, sc.params)
        failures += _check_line("psi(1/2)", curve.evaluate(0.5), -0.5 * math.log(2.0), 1e-12)
        failures += _check_line("mean relative entropy",
                                closed_form_relative_entropy(sc.kind, sc.params),
                                -(math.log(0.3) + math.log(0.7)) / 2.0, 1e-6)
        pair = twirled_pair(sc.rho0, sc.rho1, sc.action, 6)
        print(f"  n=6: p_min={p_min(*pair):.9g}, beta_0.1={beta_eps(*pair, 0.1):.9g}")
    elif name == "two-pure":
        sc = make_scenario(TORUS_TWO_PURE, n_max=6, lam=0.3, mu=0.6)
        s_grid = np.array([-0.5, 0.0, 0.5, 1.0, 2.0])
        closed = np.array([closed_form_psi(sc.kind, sc.params, s) for s in s_grid.tolist()])
        worst = 0.0
        sweep = TwirledSweep(sc.rho0, sc.rho1, sc.action)
        for n in (1, 3, 6):
            ev = sweep.evaluator(n)
            worst = max(worst, float(np.max(np.abs(ev.psi(s_grid) / n - closed))))
        failures += _check_line("max |(1/n)psi_n - closed form|", worst, 0.0, 1e-9)
    elif name == "subgroup-equality":
        rho0, rho1 = pure_qubit(0.5), diag_qubit(0.3)
        s_grid = np.array([-0.5, 0.0, 0.5, 1.5, 2.0])
        psi0 = PsiEvaluator(rho0, rho1).psi(s_grid)
        worst = 0.0
        sweep = TwirledSweep(rho0, rho1, z2_action())
        for n in (2, 4, 6):
            ev = sweep.evaluator(n)
            expected = n * psi0 + (1.0 - s_grid) * math.log(2.0)
            worst = max(worst, float(np.max(np.abs(ev.psi(s_grid) - expected))))
            print(f"  n={n}: per-copy gap to unrestricted at s=0: "
                  f"{(math.log(2.0)) / n:.6f} (vanishes with n)")
        failures += _check_line("offset identity defect", worst, 0.0, 1e-9)
    elif name == "balanced-mixing":
        alpha = solve_flat_chernoff_alpha()
        print(f"  alpha* = {alpha:.12g} (in [0.10, 0.12])")
        curve = closed_form_curve(TORUS_PURE_VS_MIXED, {"alpha": alpha})
        failures += _check_line("curve slope at s=1/2", curve.slope(0.5), 0.0, 1e-8)
        failures += _check_line("restricted Chernoff distance C_M",
                                chernoff_distance(curve), 0.5 * math.log(2.0), 1e-8)
    return failures


def run(config: argparse.Namespace) -> int:
    try:
        if config.command == "verify":
            return _cmd_verify(config)
        if config.command == "examples":
            return _cmd_examples(config)
        sc = _load_scenario(config)
        dispatch = {
            "psi": _cmd_psi,
            "chernoff": _cmd_chernoff,
            "hoeffding": _cmd_hoeffding,
            "stein": _cmd_stein,
            "pmin": _cmd_pmin,
            "beta-eps": _cmd_beta_eps,
            "convergence": _cmd_convergence,
        }
        return dispatch[config.command](sc, config)
    except (ScenarioError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymtestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtest",
        description="Finite-size numerics for binary state discrimination "
                    "under group-invariant measurements.",
    )
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--n-max", type=int, dest="n_max")
    parser.add_argument("--s-grid", dest="s_grid", help="grid as a:b:steps")
    parser.add_argument("--r-grid", dest="r_grid", help="grid as a:b:steps")
    parser.add_argument("--a-grid", dest="a_grid",
                        help="grid as a:b:steps; a negative start needs the "
                             "--a-grid=-0.2:0.3:3 form")
    parser.add_argument("--eps", type=float, default=0.1)
    parser.add_argument("--name", help="which built-in example to run")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 < args.eps < 1.0:
            raise ScenarioError(f"--eps must lie strictly between 0 and 1, got {args.eps:g}")
        if args.n_max is not None and args.n_max < 1:
            raise ScenarioError(f"--n-max must be at least 1, got {args.n_max}")
        r_spec = args.r_grid
        args.s_grid, args.r_grid, args.a_grid = (
            _parse_grid(spec) if spec else None for spec in (args.s_grid, r_spec, args.a_grid))
        if args.r_grid is not None and args.r_grid[0] < 0.0:
            raise ScenarioError(f"--r-grid rates must be nonnegative, got {r_spec!r}")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())

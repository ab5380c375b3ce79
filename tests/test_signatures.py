"""Settings no caller varies are constants, not parameters.

Each entry names a function, method or dataclass and the parameters it must
not take: their values are fixed in the code (the tolerances, seeds, grid
sizes and labels the package always used), so a parameter coming back would
reopen a setting nothing varies.  A ratchet caps the package's settable
values, counted over its source.
"""

import ast
import importlib
import inspect
from pathlib import Path

import symtest

# lower this when a change removes settable values; never raise it to admit one
MAX_SETTABLE_VALUES = 24

REMOVED = {
    "verify": {
        "additivity_report": ("tol",),
        "renyi_entropy_subadditivity_report": ("tol",),
        "fidelity_floor_report": ("tol",),
        "trace_norm_power_report": ("tol",),
        "restricted_pmin_report": ("tol",),
        "chernoff_band_report": ("tol",),
        "lf_identity_report": ("tol",),
        "weyl_report": ("tol", "seed"),
        "data_processing_report": ("tol", "seed"),
        "conjugation_chain_report": ("tol",),
        "closed_form_bracket_report": ("tol",),
        "beta_eps_shape_report": ("tol",),
        "mean_quantity_report": ("tol",),
        "beta_eps_converse_report": ("eps",),
        "equality_experiment_report": ("n_max",),
        "run_verify": ("seed",),
        "pmin_bounds_reports": ("seed",),
        "fidelity_reports": ("seed",),
        "np_optimality_report": ("seed",),
        "_random_pairs": ("seed",),
    },
    "divergences": {
        "lieb_bound_check": ("tol",),
        "_golden_min": ("xtol",),
        "_scan_min": ("refine",),
        "psi_curve": ("n", "label"),
        "PsiCurve": ("n", "label", "values"),
        "PsiEvaluator": ("cut_scale",),
    },
    "discrimination": {
        "pmin_bounds_check": ("tol", "n"),
        "fidelity_pmin_check": ("tol",),
        "stein_a_grid": ("points",),
        "threshold_errors": ("n",),
        "np_test": ("n",),
        "p_min": ("n",),
        "strong_converse_bound": ("n",),
    },
    "asymptotics": {
        "stein_gap_check": ("tol",),
        "solve_flat_chernoff_alpha": ("xtol",),
        "solve_branch_crossover": ("xtol",),
        "closed_form_curve": ("label",),
        "convergence_table": ("n_max",),
    },
    "groups": {
        "is_support_invariant": ("tol",),
        "GroupAction.finite": ("unitary_tol", "closure_tol"),
    },
    "linalg": {
        "hermitian": ("herm_tol",),
        "DensityOperator": ("trace_tol",),
        "above_cut": ("cut_scale",),
        "Spectrum.support": ("cut_scale",),
    },
    "oracle": {
        "pmin_random_battery": ("seed", "n"),
    },
}


def test_fixed_settings_are_not_parameters():
    back = []
    for module, names in REMOVED.items():
        for name, params in names.items():
            obj = importlib.import_module(f"symtest.{module}")
            for part in name.split("."):
                obj = getattr(obj, part)
            present = set(inspect.signature(obj).parameters) & set(params)
            back.extend(f"{module}.{name}({p})" for p in sorted(present))
    assert not back, f"fixed settings came back as parameters: {back}"


def _has_default(field_value: ast.expr) -> bool:
    """Whether a dataclass field's right-hand side gives it a default:
    any plain value, or field(...) with default or default_factory."""
    if (isinstance(field_value, ast.Call) and isinstance(field_value.func, ast.Name)
            and field_value.func.id == "field"):
        return any(k.arg in ("default", "default_factory") for k in field_value.keywords)
    return True


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "dataclass")
        or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass")
        for d in node.decorator_list)


def settable_values() -> list[str]:
    """Parameters with a default plus dataclass fields with a default, over
    every module of the package."""
    found = []
    for path in sorted(Path(symtest.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = [*args.posonlyargs, *args.args]
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                owner = getattr(node, "name", "lambda")
                found.extend(f"{path.stem}.{owner}({a.arg})" for a in named)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found.extend(f"{path.stem}.{node.name}.{st.target.id}" for st in node.body
                             if isinstance(st, ast.AnnAssign) and st.value is not None
                             and _has_default(st.value))
    return found


def test_settable_values_stay_under_the_ratchet():
    found = settable_values()
    assert len(found) <= MAX_SETTABLE_VALUES, found

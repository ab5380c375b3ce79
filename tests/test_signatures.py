"""Settings no caller varies are constants, not parameters.

Each entry names a function, method or dataclass and the parameters it must
not take: their values are fixed in the code (the tolerances, seeds, grid
sizes and labels the package always used), so a parameter coming back would
reopen a setting nothing varies.
"""

import importlib
import inspect

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
        "PsiCurve": ("n", "label"),
        "PsiEvaluator": ("cut_scale",),
    },
    "discrimination": {
        "pmin_bounds_check": ("tol",),
        "fidelity_pmin_check": ("tol",),
        "stein_a_grid": ("points",),
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
        "dense_twirl_oracle": ("samples",),
        "pmin_random_battery": ("seed",),
    },
    "cli": {
        "RunConfig": ("extra_scenario_text",),
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

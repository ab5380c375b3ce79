"""Finite-size numerics for binary quantum state discrimination restricted
to group-invariant measurements: twirled states, power-trace curves and
their transforms, optimal tests, and the inequality battery tying them
together."""

from .errors import CheckError, ConvergenceError, DimensionError, ScenarioError, SymtestError
from .linalg import (
    DensityOperator,
    Spectrum,
    abs_power_trace,
    eig,
    hermitian,
    kron,
    kron_power,
    mpow,
    support_projection,
    trace_norm,
)
from .groups import (
    GroupAction,
    block_structure,
    dim_growth,
    pinching_map,
    tensor_power,
    twirl,
    twirled_pair,
    weyl_twirl,
)
from .divergences import (
    NEG_INF,
    PsiCurve,
    PsiEvaluator,
    TwirledSweep,
    chernoff_distance,
    default_s_grid,
    fidelity,
    hoeffding_distance,
    lieb_bound_check,
    phi,
    psi,
    psi_curve,
    relative_entropy,
    renyi,
)
from .discrimination import (
    ErrorPair,
    TestOperator,
    TwirledPair,
    average_error,
    beta_eps,
    error_pair,
    np_test,
    p_min,
    pmin_bounds_check,
    strong_converse_bound,
)
from .asymptotics import (
    ConvergenceTable,
    Scenario,
    closed_form_curve,
    closed_form_psi,
    closed_form_relative_entropy,
    convergence_table,
    make_scenario,
    solve_branch_crossover,
    solve_flat_chernoff_alpha,
)
from .verify import run_verify, verify_ok

__version__ = "0.1.0"

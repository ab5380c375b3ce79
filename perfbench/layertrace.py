"""Outside-in tracer for symtest, stdlib only.

It wraps every public function of each symtest layer module, plus a few
methods and numpy's Hermitian eigensolvers, and records one span per call:
(id, parent id, name, start, end).  The modules bind each other's functions
with `from .linalg import eig`, so a wrapper is installed in every `symtest.*`
namespace that binds the original, not only in the defining module.

A span's self time is its duration minus the durations of its direct
children.  The benchmark wraps its whole job loop as one root span, so the
self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "linalg", "groups", "divergences", "discrimination",
          "asymptotics", "oracle", "verify")
ROOT = "bench.jobs"

VERIFY_REPORTS = (
    "psi_sandwich_reports", "additivity_report", "renyi_entropy_subadditivity_report",
    "pmin_bounds_reports", "fidelity_reports", "fidelity_floor_report",
    "trace_norm_power_report", "restricted_pmin_report", "chernoff_band_report",
    "np_optimality_report", "stein_reports", "lf_identity_report", "weyl_report",
    "beta_eps_converse_report", "data_processing_report", "conjugation_chain_report",
    "mean_quantity_report", "closed_form_bracket_report", "beta_eps_shape_report",
    "dim_growth_report", "equality_experiment_report",
)

# metric name -> span names whose outermost calls it sums
SPAN_TIMES = {
    "linalg.eig.s": ("linalg.eig",),
    "linalg.eigh.s": ("linalg.eigh",),
    "linalg.eigvalsh.s": ("linalg.eigvalsh",),
    "linalg.density_validate.s": ("linalg.density_validate",),
    "linalg.kron_power.s": ("linalg.kron_power",),
    "groups.twirled_pair.s": ("groups.twirled_pair",),
    "groups.twirl.s": ("groups.twirl",),
    "groups.block_structure.s": ("groups.block_structure",),
    "divergences.PsiEvaluator.build_s": ("divergences.PsiEvaluator.build",),
    "divergences.relative_entropy.s": ("divergences.relative_entropy",),
    "divergences.fidelity.s": ("divergences.fidelity",),
    "divergences.optimize.s": ("divergences.chernoff_distance",
                               "divergences.hoeffding_distance",
                               "divergences.lf_transform"),
    "discrimination.beta_eps.s": ("discrimination.beta_eps",),
    "discrimination.np_test.s": ("discrimination.np_test",),
    "discrimination.strong_converse_bound.s": ("discrimination.strong_converse_bound",),
    "discrimination.p_min.s": ("discrimination.p_min",),
    "asymptotics.convergence_table.s": ("asymptotics.convergence_table",),
    "asymptotics.mean_quantities.s": ("asymptotics.mean_quantities",),
    "cli.parse_scenario.s": ("cli.parse_scenario",),
    **{f"verify.{name}.s": (f"verify.{name}",) for name in VERIFY_REPORTS},
}

# metric name -> span name whose calls it counts
CALL_COUNTS = {
    "linalg.eig.calls": "linalg.eig",
    "linalg.eigh.calls": "linalg.eigh",
    "linalg.eigvalsh.calls": "linalg.eigvalsh",
    "linalg.density_validate.calls": "linalg.density_validate",
    "groups.twirled_pair.calls": "groups.twirled_pair",
    "divergences.PsiEvaluator.build_calls": "divergences.PsiEvaluator.build",
    "divergences.trace_power.calls": "divergences.trace_power",
    "discrimination.beta_eps.calls": "discrimination.beta_eps",
    "discrimination.np_test.calls": "discrimination.np_test",
}

# every per-layer metric the benchmark reports, with its unit
UNITS = {
    "bench.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    **{name: "s" for name in SPAN_TIMES},
    **{name: "count" for name in CALL_COUNTS},
    "linalg.eig_flops": "flop_computed",
    "groups.twirled_pair.unique_frac": "ratio",
    "discrimination.beta_eps.noncommuting_frac": "ratio",
}


def _matrix(x):
    """The ndarray behind a symtest operator argument."""
    return getattr(x, "mat", x)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.eig_flops = 0
        self.twirl_keys: list[str] = []
        self.beta_args: list = []

    def wrap(self, name: str, fn, on_call=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        return traced

    # argument hooks: ratios come from the wrapped call's own arguments

    def count_eig(self, a, *args, **kwargs):
        self.eig_flops += len(a) ** 3

    def record_twirled_pair(self, rho0, rho1, action, n):
        h = hashlib.sha1()
        for part in (_matrix(rho0), _matrix(rho1), action.weights,
                     *(action.unitaries or ())):
            if part is not None:
                h.update(part.tobytes())
        h.update(f"{action.kind}:{n}".encode())
        self.twirl_keys.append(h.hexdigest())

    def record_beta_eps(self, rho0n, rho1n, *args, **kwargs):
        # keep references only; the commutator is taken after the timed run
        self.beta_args.append((rho0n, rho1n))

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded run (all but trace.overhead_s)."""
        spans = self.spans
        child = [0.0] * len(spans)
        by_name: dict[str, list] = {}
        for span in spans:
            if span[1] >= 0:
                child[span[1]] += span[4] - span[3]
            by_name.setdefault(span[2], []).append(span)
        out = {"bench.self_s": 0.0, **{f"{layer}.self_s": 0.0 for layer in LAYERS}}
        for sid, _, name, start, end in spans:
            out[name.split(".", 1)[0] + ".self_s"] += (end - start) - child[sid]
        out["trace.wall_s"] = sum(end - start for *_, start, end in by_name.get(ROOT, ()))
        for metric, names in SPAN_TIMES.items():
            out[metric] = self._outermost_time(by_name, set(names))
        for metric, name in CALL_COUNTS.items():
            out[metric] = len(by_name.get(name, ()))
        out["linalg.eig_flops"] = self.eig_flops
        keys = self.twirl_keys
        out["groups.twirled_pair.unique_frac"] = len(set(keys)) / len(keys) if keys else 0.0
        out["discrimination.beta_eps.noncommuting_frac"] = _noncommuting_frac(self.beta_args)
        return out

    def _outermost_time(self, by_name: dict, names: set) -> float:
        """Summed duration of spans in `names` with no ancestor in `names`."""
        spans = self.spans
        total = 0.0
        for name in names:
            for _, parent, _, start, end in by_name.get(name, ()):
                while parent >= 0 and spans[parent][2] not in names:
                    parent = spans[parent][1]
                if parent < 0:
                    total += end - start
        return total


def _noncommuting_frac(pairs) -> float:
    """Share of beta_eps calls whose two operators do not commute, judged as
    max|AB - BA| > 1e-10 * max(1, max|A|, max|B|)."""
    if not pairs:
        return 0.0
    count = 0
    for a, b in pairs:
        m0, m1 = _matrix(a), _matrix(b)
        scale = max(1.0, float(abs(m0).max()), float(abs(m1).max()))
        count += float(abs(m0 @ m1 - m1 @ m0).max()) > 1e-10 * scale
    return count / len(pairs)


def _public_functions(module):
    return [(attr, obj) for attr, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not attr.startswith("_")]


def install(tracer: Tracer) -> None:
    """Wrap symtest's layer functions and numpy's eigensolvers in `tracer`."""
    import numpy

    from symtest.divergences import PsiEvaluator
    from symtest.linalg import DensityOperator

    hooks = {
        "groups.twirled_pair": tracer.record_twirled_pair,
        "discrimination.beta_eps": tracer.record_beta_eps,
    }
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"symtest.{layer}"]
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            wrapped[id(fn)] = (fn, tracer.wrap(name, fn, hooks.get(name)))
    for module in [m for key, m in sys.modules.items()
                   if key == "symtest" or key.startswith("symtest.")]:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    for owner, attr, name, hook in (
        (PsiEvaluator, "__init__", "divergences.PsiEvaluator.build", None),
        (PsiEvaluator, "trace_power", "divergences.trace_power", None),
        (DensityOperator, "__post_init__", "linalg.density_validate", None),
        (numpy.linalg, "eigh", "linalg.eigh", tracer.count_eig),
        (numpy.linalg, "eigvalsh", "linalg.eigvalsh", tracer.count_eig),
    ):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))

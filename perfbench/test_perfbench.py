"""Tests of the benchmark itself: metric names and units, host-speed
scaling, output checks, count repeatability, seeded inputs, and refusal
without a source tree."""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import layertrace
import workloads
from child import run_job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: _tiny(w, 1) for w in workloads.WORKLOADS}


def test_untraced_run_emits_every_end_to_end_metric():
    lines, result = _tiny("battery", 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("metric error_rate 0.0 ratio") for line in lines)


def test_traced_runs_emit_every_layer_metric(traced_runs):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert expected == layertrace.UNITS
    for workload, (lines, result) in traced_runs.items():
        assert result["correct"], workload
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name in ("wall_norm_s", "setup_s", "peak_rss_mb", "wall_s", "setup_raw_s",
                     "error_rate"):
            assert any(line.startswith(f"metric {name} ") for line in lines), (workload, name)


def test_untraced_samples_are_scaled_by_host_slowdown(tmp_path):
    import run

    jobs = workloads.write_inputs("decide", 3, tmp_path, tiny=True)
    sample = run.Sampler(ROOT, tmp_path, jobs, 3, True).sample()
    assert len(sample["job_slowdown"]) == len(sample["job_s"]) == len(jobs)
    assert all(s > 0 for s in sample["job_slowdown"]) and sample["setup_slowdown"] > 0
    assert run.scaled_jobs(sample) == [t / s for t, s in zip(sample["job_s"], sample["job_slowdown"])]
    nominal = dict(calibrate.NOMINAL_S)
    assert calibrate.slowdown(nominal, nominal) == pytest.approx(1.0)
    assert calibrate.slowdown({"python": 0.02}, {"python": 0.04}) == pytest.approx(
        0.03 / calibrate.NOMINAL_S["python"])
    assert run.trimmed_mean([1.0] * 7 + [100.0]) == pytest.approx(1.0)


def test_self_times_add_up_to_traced_wall(traced_runs):
    for workload, (_, result) in traced_runs.items():
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert total == pytest.approx(m["trace.wall_s"], rel=1e-9), workload


def test_counts_repeat_exactly(traced_runs):
    _, again = _tiny("decide", 1)
    _, first = traced_runs["decide"]
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "flop_computed")]
    for name in counted:
        assert again["metrics"][name]["value"] == first["metrics"][name]["value"], name
    assert first["metrics"]["discrimination.np_test.calls"]["value"] > 0
    assert first["metrics"]["groups.twirled_pair.calls"]["value"] > 0


def test_timed_verify_reports_exist():
    import symtest.verify

    reports = {name for name, fn in vars(symtest.verify).items()
               if inspect.isfunction(fn) and name.endswith(("_report", "_reports"))}
    assert set(layertrace.VERIFY_REPORTS) <= reports


def test_checker_counts_perturbed_outputs_as_failures(tmp_path):
    import symtest.cli

    for workload in ("curves", "decide", "battery"):
        for job in workloads.write_inputs(workload, 5, tmp_path, tiny=True):
            code, text, _ = run_job(symtest.cli.main, job)
            assert checks.check_job(job, code, text, {}) == [], job["id"]
            if job["command"] == "verify":
                bad = text.replace(" 0 violations", " 1 violations")
            else:
                head, rows = checks.parse_csv(text)
                col = head.index({"psi": "value", "convergence": "value", "stein": "relative_entropy",
                                  "chernoff": "chernoff"}.get(job["command"], "beta1"))
                row = next(k for k, r in enumerate(rows) if r[-1] != "unrestricted" and r[1] != "unrestricted")
                rows[row][col] = repr(float(rows[row][col]) + 10.0)
                bad = "\n".join(",".join(r) for r in [head, *rows]) + "\n"
            assert checks.check_job(job, code, bad, {}), job["id"]
            assert checks.check_job(job, 1, text, {}), job["id"]


def test_reference_comparison_catches_small_drift():
    reference = checks.load_reference(workloads.DEFAULT_SEED)
    entry = reference["stein.two-commuting"]
    job = {"id": "stein.two-commuting", "command": "stein", "n_max": entry["n_max"]}
    assert checks.compare_reference(job, entry["output"], entry["output"]) == []
    head, rows = checks.parse_csv(entry["output"])
    rows[-1][2] = repr(float(rows[-1][2]) * (1 + 1e-8))
    drifted = "\n".join(",".join(r) for r in [head, *rows]) + "\n"
    assert checks.compare_reference(job, drifted, entry["output"])


def test_inputs_depend_only_on_seed(tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.write_inputs("decide", seed, d)
        return {p.name: p.read_text() for p in d.glob("*.json")}

    a, b, c = files(7, "a"), files(7, "b"), files(8, "c")
    assert a == b
    assert a["two-pure.json"] == c["two-pure.json"]
    assert a["random-a.json"] != c["random-a.json"]


def test_refuses_to_run_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

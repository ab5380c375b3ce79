"""Capture the reference outputs the benchmark compares against.

    python3 perfbench/capture_reference.py

Run from the root of a source checkout.  Runs every job of every workload
once at the default seed, checks it, and writes perfbench/reference.json.
Outputs of jobs on fixed scenarios are compared at every seed; outputs of
jobs on seeded random pairs only at the default seed.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from child import run_job  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import symtest.cli

    captured = {}
    for workload in workloads.WORKLOADS:
        workdir = root / ".perfbench" / workload
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for job in workloads.write_inputs(workload, workloads.DEFAULT_SEED, workdir):
            code, text, err = run_job(symtest.cli.main, job)
            failures = checks.check_job(job, code, text, {})
            if failures:
                print("\n".join(failures + [err]), file=sys.stderr)
                return 1
            captured[job["id"]] = {"seeded": job["seeded"], "n_max": job["n_max"],
                                   "output": text}
            print(f"captured {job['id']} ({len(text)} bytes)")
    checks.REFERENCE_PATH.write_text(
        json.dumps({"seed": workloads.DEFAULT_SEED, "jobs": captured}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One fresh benchmark process.

    python3 perfbench/child.py SPEC.json RESULT.json

Times the import of symtest and symtest.cli (set-up), then runs the job list
in order, one job at a time, through symtest.cli.main(argv) and checks each
output (a closed loop with one client).  The calibration kernels
(calibrate.py) run right before and after the import and each job; their
times give the host's slowdown over that measurement.  With "trace" set in
the spec it wraps the layer functions first, skips the kernels, and reports
per-layer metrics.  The result JSON holds set-up, wall and per-job times,
slowdowns, peak RSS, job counts and failure messages.
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def run_job(main, job: dict):
    """Run one CLI job in this process; return (exit code, output text, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
        except Exception as exc:  # a crash fails the job, not the benchmark
            code = f"{type(exc).__name__}: {exc}"
    text = out.getvalue()
    if job["out"] is not None and code == 0:
        with open(job["out"], encoding="utf-8") as handle:
            text = handle.read()
    return code, text, err.getvalue()


def run_jobs(main, jobs: list, reference: dict, calibrated: bool) -> tuple[list, list, list]:
    """Run and check the jobs in order; per job, its failure messages, its
    time in seconds (check included) and, if `calibrated`, the host's
    slowdown over it (else None)."""
    import calibrate
    import checks

    failures, times, slowdowns = [], [], []
    for job in jobs:
        before = calibrate.job_kernels() if calibrated else None
        started = time.perf_counter()
        code, text, err = run_job(main, job)
        job_failures = checks.check_job(job, code, text, reference)
        times.append(time.perf_counter() - started)
        slowdowns.append(calibrate.slowdown(before, calibrate.job_kernels()) if calibrated else None)
        if job_failures and err:
            job_failures.append(f"{job['id']}: stderr: {err.strip()[-500:]}")
        failures.append(job_failures)
    return failures, times, slowdowns


def blas_info() -> dict:
    """OpenBLAS version and the thread count the loaded library reports."""
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__, "blas": None, "blas_threads": None}
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    info["blas"] = f"{deps.get('blas', {}).get('name')} {deps.get('blas', {}).get('version')}"
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                info["blas_threads"] = int(getattr(lib, symbol)())
                return info
    return info


def main(argv) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    import calibrate

    calibrate.python_kernel()  # warm-up
    before = {"python": calibrate.python_kernel()}
    started = time.perf_counter()
    import symtest.cli
    result = {"setup_s": time.perf_counter() - started}
    result["setup_slowdown"] = calibrate.slowdown(before, {"python": calibrate.python_kernel()})
    if spec["jobs"]:
        import checks
        import layertrace

        reference = checks.load_reference(spec["seed"]) if not spec["tiny"] else {}
        tracer = layertrace.Tracer() if spec["trace"] else None
        if tracer is None:
            calibrate.job_kernels()  # warm-up: first calls pay one-off costs
        if tracer is not None:
            layertrace.install(tracer)
        runner = tracer.wrap(layertrace.ROOT, run_jobs) if tracer else run_jobs
        failures, result["job_s"], result["job_slowdown"] = runner(
            symtest.cli.main, spec["jobs"], reference, tracer is None)
        result["wall_s"] = sum(result["job_s"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["attempted"] = len(spec["jobs"])
        result["failed"] = sum(1 for f in failures if f)
        result["failures"] = [msg for f in failures for msg in f]
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_jsonl(spec["trace"])
        result["env"] = {"python": sys.version.split()[0], "nproc": os.cpu_count(),
                         "affinity": len(os.sched_getaffinity(0)), **blas_info()}
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

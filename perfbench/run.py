"""symtest benchmark: fixed CLI workloads, timed outside-in.

    python3 perfbench/run.py --workload curves|decide|battery \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each sample is a fresh Python
process (perfbench/child.py) that imports symtest and runs the workload's
job list through symtest.cli.main, checking every output.  Samples repeat
until --seconds are used up.  BLAS is pinned to one thread in the children's
environment only.

Each job time and each import time is divided by the host's slowdown over
it, which the calibration kernels timed right before and after it give
(calibrate.py), so the reported times are seconds on a host of nominal
speed.  wall_norm_s is the sum over jobs of each job's trimmed mean scaled
time across samples (the highest and lowest eighth dropped), so a burst of
host noise during one job does not spill into the others; setup_s is the
trimmed mean scaled import time.  The unscaled times are printed too, as
the `metric wall_s` and `metric setup_raw_s` lines (sums of per-job medians
and a median).

With --trace 0 the last line holds the end-to-end metrics; with --trace 1
untraced and traced samples alternate and the last line holds the per-layer
metrics of the traced sample with the median wall time.  The exit code is 1
when any output check failed and 2 when the checkout has no symtest source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import UNITS as LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_THREADS = "1"
SETUP_SAMPLES = 10     # import-only processes per run, on top of one per job sample
MIN_SAMPLES = 3        # job samples per run, even past --seconds (traced runs: 1 pair)
CHILD_TIMEOUT_S = 170
HARD_LIMIT_S = 150     # no new sample starts after this, whatever --seconds says


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Sampler:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, root: Path, workdir: Path, jobs: list, seed: int, tiny: bool):
        self.root = root
        self.env = child_env(root)
        self.workdir = workdir
        self.base = {"jobs": jobs, "seed": seed, "tiny": tiny}
        self.count = 0

    def sample(self, *, setup_only: bool = False, trace: bool = False) -> dict:
        self.count += 1
        spec_path = self.workdir / f"spec-{self.count}.json"
        result_path = self.workdir / f"result-{self.count}.json"
        spec = {**self.base, "trace": str(self.workdir / f"spans-{self.count}.jsonl") if trace else None}
        if setup_only:
            spec["jobs"] = []
        spec_path.write_text(json.dumps(spec))
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path),
                               str(result_path)], env=self.env, cwd=self.root,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0 or not result_path.exists():
            raise RuntimeError(f"benchmark process failed ({proc.returncode}): {proc.stderr[-2000:]}")
        result = json.loads(result_path.read_text())
        result["process_s"] = elapsed
        return result


def scaled_jobs(sample: dict) -> list[float]:
    """A sample's job times divided by the host's slowdown over each."""
    return [t / slowdown for t, slowdown in zip(sample["job_s"], sample["job_slowdown"])]


def trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and the lowest eighth of the values."""
    values = sorted(values)
    cut = len(values) // 8
    return statistics.fmean(values[cut:len(values) - cut])


def job_wall(per_sample: list[list[float]], average=statistics.median) -> float:
    """Time to finish the job list: the sum over jobs of `average` over samples."""
    return sum(average(times) for times in zip(*per_sample))


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def collect(sampler: Sampler, seconds: float, trace: bool) -> tuple[list, list, list]:
    """Setup-only samples, untraced job samples and traced job samples."""
    sampler.sample(setup_only=True)  # warm-up: byte-compiles src, fills the page cache
    setups = [sampler.sample(setup_only=True) for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(sampler.sample())
        if trace:
            traced.append(sampler.sample(trace=True))
        batch = [r["process_s"] for r in plain[-1:] + traced[-1:]]
        elapsed = time.perf_counter() - started
        enough = len(plain) >= (1 if trace else MIN_SAMPLES)
        if elapsed + sum(batch) > (seconds if enough else HARD_LIMIT_S):
            break
    return setups, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every n to 3 (smoke tests; no reference outputs)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "symtest" / "__init__.py").is_file():
        print(f"error: no symtest source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = root / ".perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.write_inputs(args.workload, args.seed, workdir, args.tiny)
    sampler = Sampler(root, workdir, jobs, args.seed, args.tiny)
    setups, plain, traced = collect(sampler, args.seconds, bool(args.trace))

    samples = plain + traced
    attempted = sum(r["attempted"] for r in samples)
    failed = sum(r["failed"] for r in samples)
    failures = sorted({msg for r in samples for msg in r["failures"]})
    env = {**samples[0]["env"], "blas_threads_env": BLAS_THREADS,
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny}
    print("env " + json.dumps(env, sort_keys=True))
    for k, r in enumerate(plain):
        print(f"sample {k} wall_s={r['wall_s']:.6f} setup_s={r['setup_s']:.6f} "
              f"peak_rss_mb={r['peak_rss_mb']:.3f} failed={r['failed']}/{r['attempted']} "
              f"job_s={' '.join(f'{t:.4f}' for t in r['job_s'])} "
              f"slowdown={' '.join(f'{s:.3f}' for s in r['job_slowdown'])}")
    for msg in failures:
        print(f"check failed: {msg}")

    scaled = [scaled_jobs(r) for r in plain]
    series = {
        "wall_norm_s": [sum(times) for times in scaled],
        "setup_s": [r["setup_s"] / r["setup_slowdown"] for r in setups + samples],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
        "setup_raw_s": [r["setup_s"] for r in setups + samples],
        "host_slowdown": [s for r in plain for s in r["job_slowdown"]],
    }
    units = {**END_TO_END_UNITS, "wall_s": "s", "setup_raw_s": "s", "host_slowdown": "ratio"}
    values = {name: statistics.median(v) for name, v in series.items()}
    values["wall_norm_s"] = job_wall(scaled, trimmed_mean)
    values["setup_s"] = trimmed_mean(series["setup_s"])
    values["wall_s"] = job_wall([r["job_s"] for r in plain])
    hows = {"wall_norm_s": "sum of per-job trimmed means", "setup_s": "trimmed mean",
            "wall_s": "sum of per-job medians"}
    for name, value in values.items():
        how = hows.get(name, "median")
        print(f"metric {name} {value!r} {units[name]} ({how}, {spread(series[name])})")
    print(f"metric error_rate {failed / attempted!r} ratio ({failed} of {attempted} jobs failed)")

    if args.trace:
        walls = sorted(traced, key=lambda r: r["wall_s"])
        layers = dict(walls[(len(walls) - 1) // 2]["layers"])
        layers["trace.overhead_s"] = job_wall([r["job_s"] for r in traced]) - values["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

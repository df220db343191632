"""The ductwave benchmark: one workload, measured for a fixed time.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
Every measurement runs in a fresh interpreter (worker.py), one at a time:

* set-up: SETUP_SAMPLES interpreters each time `import ductwave`, building
  the Scenario and constructing `Simulation`; the median is `setup_s`;
* runs: interpreters each run the workload once, as long as another run
  is likely to end within S seconds (at least one run). Each reports the
  user call's wall time, its peak RSS and the output check against the
  workload's reference. `run_s` is the fastest of these wall times, the
  other metrics are medians.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1, untraced and traced runs alternate and
the result holds the per-layer metrics (see README.md). The environment and
every sample go to `.perfbench_out/` beside the printed result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

SETUP_SAMPLES = 7
# The workers' BLAS runs on one thread: on a shared host a second BLAS
# thread measures the scheduler and the neighbours, not the program (the
# wall kernel's gemv is threaded by default and no faster for it).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 120.0
OUT_DIR = ".perfbench_out"

# Per-layer times: key in the traced summary -> metric name of the time.
LAYER_TIMES = {
    "wall.source_table": "wall.source_table.s",
    "wall.history_append": "wall.history_append.s",
    "scheme.lax_wendroff_update": "scheme.lax_wendroff_update.s",
    "boundaries.inflow": "boundaries.inflow.s",
    "boundaries.outflow": "boundaries.outflow.s",
    "gas.primitive_arrays": "gas.primitive_arrays.s",
    "driver.self": "driver.self_s",
    "driver.post": "driver.post_s",
    "analysis.harmonic_spectrum": "analysis.harmonic_spectrum.s",
    "csvio.write_csv": "csvio.write_csv.s",
    "config": "config.s",
    "cli.self": "cli.self_s",
}

# Counts computed from array sizes and call counts; they repeat exactly.
LAYER_COUNTS = {
    "source_table_calls": ("wall.source_table.calls", "count"),
    "history_levels": ("wall.history_levels", "count"),
    "summed_samples": ("wall.summed_samples", "count"),
    "computed_bytes": ("wall.computed_bytes", "bytes"),
    "steps": ("driver.steps", "count"),
    "bytes_written": ("csvio.bytes_written", "bytes"),
}

STEP_TIMES = {
    "step_us_p50": "driver.step_us.p50",
    "step_us_p99": "driver.step_us.p99",
    "step_us_first_period": "driver.step_us.first_period",
    "step_us_last_period": "driver.step_us.last_period",
}


def environment(root: Path, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workers_blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read from .git; a checkout
    without one reports "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").split("\n"):
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env(root: Path) -> dict:
    """The workers' environment: the checkout's `src` first on the path, and
    bytecode cached under OUT_DIR, so that imports after the first read
    compiled modules the way an installed package does, and nothing is
    written outside the checkout."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(root / OUT_DIR / "pycache")
    env.update(BLAS_THREADS)
    return env


def spawn(root: Path, args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    env = worker_env(root)
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), *args]
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - perf_counter()))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().split("\n")
    try:
        out = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        out = None
    if proc.returncode != 0 or not isinstance(out, dict):
        sys.stderr.write(proc.stderr)
        return {"ok": False, "error": f"worker exited with {proc.returncode}"}
    return out


def median_of(samples, key):
    values = [s[key] for s in samples if key in s]
    return statistics.median(values) if values else None


def fastest_of(samples, key):
    values = [s[key] for s in samples if key in s]
    return min(values) if values else None


def end_to_end(setups, runs) -> dict:
    ok = sum(1 for r in runs if r["ok"])
    return {
        "setup_s": (median_of(setups, "setup_s"), "s"),
        # Best of the run's samples: the host's contention only ever adds
        # time, and over seeds the fastest sample spread about half as
        # much as the median did.
        "run_s": (fastest_of(runs, "run_s"), "s"),
        "peak_rss_mb": (median_of(runs, "peak_rss_mb"), "MiB"),
        "ref_err": (median_of(runs, "ref_err"), "ratio"),
        "ok_frac": (ok / len(runs), "ratio"),
    }


def per_layer(setups, untraced, traced) -> tuple[dict, list[str]]:
    layers = [r["trace"] for r in traced if "trace" in r]
    if not layers:
        return {}, ["no traced run completed"]
    problems = []
    metrics = {}
    for key, name in LAYER_TIMES.items():
        metrics[name] = (statistics.median(t["times"][key] for t in layers),
                         "s")
        share = statistics.median(100.0 * t["times"][key] / t["run_s"]
                                  for t in layers)
        metrics[key + ".share"] = (share, "%")
    for key, (name, unit) in LAYER_COUNTS.items():
        values = {t[key] for t in layers}
        if len(values) != 1:
            problems.append(f"{name} differs between traced runs: {values}")
        metrics[name] = (layers[-1][key], unit)
    for key, name in STEP_TIMES.items():
        metrics[name] = (statistics.median(t[key] for t in layers), "us")
    metrics["driver.step_us.growth"] = (statistics.median(
        t["step_us_last_period"] / t["step_us_first_period"] for t in layers),
        "ratio")
    traced_run_s = statistics.median(t["run_s"] for t in layers)
    metrics["oracles.s"] = (median_of(traced, "oracles_s"), "s")
    metrics["setup.import_s"] = (median_of(setups, "import_s"), "s")
    metrics["setup.simulation_init_s"] = (
        median_of(setups, "simulation_init_s"), "s")
    metrics["trace.run_s"] = (traced_run_s, "s")
    untraced_run_s = median_of(untraced, "run_s")
    if untraced_run_s is None:
        problems.append("no untraced run completed")
    else:
        metrics["trace.overhead_s"] = (traced_run_s - untraced_run_s, "s")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)

    started = perf_counter()
    root = Path.cwd()
    if not (root / "src" / "ductwave" / "__init__.py").is_file():
        print(f"error: {root} holds no ductwave source tree (src/ductwave);"
              " run from the root of a checkout", file=sys.stderr)
        return 2
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_root / tag
    # Stop starting work so that the whole benchmark ends within 180 s.
    hard_deadline = started + 170.0

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    # The first set-up fills the bytecode and file caches and is not kept.
    for _ in range(1 + SETUP_SAMPLES):
        sample = spawn(root, ["setup", *common], hard_deadline)
        if not sample["ok"]:
            print(f"error: set-up failed: {sample['error']}", file=sys.stderr)
            return 1
        setups.append(sample)
    setups = setups[1:]

    untraced, traced = [], []
    durations = []
    deadline = perf_counter() + args.seconds
    while True:
        trace_this = args.trace == 1 and len(untraced) > len(traced)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        run_args = ["run", *common, "--out", str(work)]
        begun = perf_counter()
        sample = spawn(root, run_args + (["--trace"] if trace_this else []),
                       hard_deadline)
        durations.append(perf_counter() - begun)
        (traced if trace_this else untraced).append(sample)
        if trace_this and (work / "spans.csv").exists():
            shutil.copy(work / "spans.csv", out_root / f"{tag}-spans.csv")
        if not sample["ok"]:
            print(f"run failed: {sample.get('error')}", file=sys.stderr)
        # Start no run that would likely end after the deadline.
        expected_end = perf_counter() + statistics.median(durations)
        if expected_end >= hard_deadline:
            break
        if expected_end >= deadline and (args.trace == 0 or traced):
            break
    shutil.rmtree(work, ignore_errors=True)

    runs = untraced + traced
    failed = sum(1 for r in runs if not r["ok"])
    problems = []
    if args.trace:
        metrics, problems = per_layer(setups, untraced, traced)
    else:
        metrics = end_to_end(setups, runs)
    for message in problems:
        print(f"error: {message}", file=sys.stderr)

    env = environment(root, args.seed)
    print(json.dumps({"environment": env}))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!r:>24} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if value is not None},
    }
    (out_root / f"{tag}.json").write_text(json.dumps({
        "environment": env, "setups": setups, "runs": runs,
        "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

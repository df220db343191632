"""One measurement in a fresh interpreter; prints one JSON line.

  python3 perfbench/worker.py setup --workload W --seed N
      times `import ductwave`, then building the Scenario from the preset
      config and constructing `Simulation`: everything before the first step.
  python3 perfbench/worker.py run --workload W --seed N --out DIR [--trace]
      times the call a user makes (`driver.run`, or `cli.main(["run", ...])`),
      reads the process's peak RSS, then checks the output against the
      workload's reference. With --trace, every layer call is wrapped in a
      span and the per-layer split is reported as well.

`ductwave` must be importable (run.py puts the checkout's `src` on
PYTHONPATH). A DuctwaveError or a failed check is reported as
{"ok": false, ...}, not raised.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

# Both import only the standard library, so `setup` times a cold import.
import spans
import workloads


def setup(workload, seed: int) -> dict:
    t0 = perf_counter()
    import ductwave  # noqa: F401
    from ductwave import config, driver
    t1 = perf_counter()
    # Making the inputs is the benchmark's work, not set-up: a user starts
    # from the config text.
    text = config.serialize_config(workloads.make_inputs(workload, seed))
    t2 = perf_counter()
    scenario = config.scenario_from_config(config.parse_config(text))
    driver.Simulation(scenario)
    t3 = perf_counter()
    return {"ok": True, "setup_s": (t1 - t0) + (t3 - t2),
            "import_s": t1 - t0, "simulation_init_s": t3 - t2}


def run(workload, seed: int, out_dir: Path, traced: bool) -> dict:
    from ductwave import cli, config, driver
    from ductwave.errors import DuctwaveError

    doc = workloads.make_inputs(workload, seed)
    tracer = spans.Tracer() if traced else None
    out = {"ok": False}
    result = None
    try:
        if workload.via_cli:
            cfg = out_dir / "scenario.cfg"
            cfg.write_text(config.serialize_config(doc), encoding="utf-8")
            argv = ["run", "--config", str(cfg), "--out", str(out_dir)]
            if tracer:
                tracer.install()
            t0 = perf_counter()
            code = cli.main(argv)
            run_s = perf_counter() - t0
        else:
            scenario = config.scenario_from_config(doc)
            if tracer:
                tracer.install()
            t0 = perf_counter()
            result = driver.run(scenario)
            run_s = perf_counter() - t0
            code = 0
    except DuctwaveError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        if tracer:
            tracer.uninstall()
    out["run_s"] = run_s
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if code != 0:
        out["error"] = f"ductwave run exited with code {code}"
        return out

    t0 = perf_counter()
    try:
        if workload.via_cli:
            err = workloads.trombone_error(out_dir, seed)
        elif workload.preset == "simple-wave":
            err = workloads.simple_wave_error(result)
        else:
            err = workloads.kirchhoff_error(result)
    except (DuctwaveError, ValueError) as exc:
        out["error"] = f"output check failed: {type(exc).__name__}: {exc}"
        return out
    out["oracles_s"] = perf_counter() - t0
    out["ref_err"] = err
    out["ok"] = err <= workload.tolerance
    if not out["ok"]:
        out["error"] = (f"ref_err {err:.4g} above the check's tolerance"
                        f" {workload.tolerance}")

    if tracer:
        layers = spans.summarize(tracer, workload.via_cli)
        layers["bytes_written"] = sum(Path(p).stat().st_size
                                      for p in layers.pop("written_files"))
        out["trace"] = layers
        tracer.write(out_dir / "spans.csv")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.mode == "setup":
        out = setup(workload, args.seed)
    else:
        out = run(workload, args.seed, args.out, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the calls into each ductwave layer, recorded from outside.

`Tracer.install` replaces each traced function with a timing wrapper at the
name its caller looks up: `ductwave.driver` imports the scheme, boundary and
gas functions into its own namespace, so those are replaced there, while
`wall.source_table` is reached as `driver.wall.source_table` and the CLI
reaches `driver.run` and `analysis.harmonic_spectrum` through their modules.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, detail)
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self.result = None

    def wrap(self, name: str, fn, detail=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              None if detail is None else detail(args))
        return traced

    def _patch(self, owner, attr: str, name: str, detail=None):
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, detail))

    def install(self):
        from ductwave import analysis, cli, driver, wall

        patch = self._patch
        patch(driver, "run", "driver.run")
        patch(driver.Simulation, "__init__", "driver.init")
        patch(driver.Simulation, "advance", "driver.advance")
        patch(driver.wall, "source_table", "wall.source_table",
              detail=lambda args: args[1])
        patch(wall.PressureHistory, "append", "wall.history_append")
        patch(driver, "lax_wendroff_update", "scheme.lax_wendroff_update")
        patch(driver, "inflow_update_pressure", "boundaries.inflow")
        patch(driver, "inflow_update_velocity", "boundaries.inflow")
        patch(driver, "outflow_update", "boundaries.outflow")
        patch(driver, "primitive_arrays", "gas.primitive_arrays")
        patch(analysis, "harmonic_spectrum", "analysis.harmonic_spectrum")
        patch(cli, "write_csv", "csvio.write_csv",
              detail=lambda args: str(args[0]))
        patch(cli, "parse_config", "config.parse_config")
        patch(cli, "scenario_from_config", "config.scenario_from_config")
        patch(cli, "main", "cli.main")
        # Keep the RunResult of the traced run for the computed counts.
        run = driver.run

        @functools.wraps(run)
        def keep(*args, **kwargs):
            self.result = run(*args, **kwargs)
            return self.result
        driver.run = keep
        self._restore.append((driver, "run", run))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as CSV: name, start and end in microseconds, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{(start - t0) * 1e6:.3f},"
                         f"{(end - t0) * 1e6:.3f},{parent}\n")


def layer_times(spans) -> tuple[dict, dict, dict]:
    """Total time, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children, which lie inside it because the calls nest.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by the inclusive method."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def summarize(tracer: Tracer, via_cli: bool) -> dict:
    """Per-layer times and counts of one traced run, in seconds and counts."""
    spans = tracer.spans
    total, own, calls = layer_times(spans)
    result = tracer.result
    top = "cli.main" if via_cli else "driver.run"
    run_s = total[top]

    run_spans = [s for s in spans if s[0] == "driver.run"]
    advances = [s for s in spans if s[0] == "driver.advance"]
    # driver.post_s: from the last step's end to the end of driver.run,
    # which is probe-record assembly and the resampling on the period grid.
    post_s = run_spans[-1][2] - advances[-1][2]
    driver_self = sum(own.get(n, 0.0)
                      for n in ("driver.run", "driver.init", "driver.advance"))
    step_us = [(end - start) * 1e6 for _, start, end, _, _ in advances]
    per_period = max(1, round(result.scenario.fundamental_period
                              / result.report.dt))

    # Computed from array sizes, ignoring caches: each source_table call
    # reads hi - lo history rows of both row families (pair sums and
    # differences) and the same number of float64 weights for each.
    hist = result.history
    summed = 0
    computed_bytes = 0
    for name, _, _, _, n in spans:
        if name == "wall.source_table" and n > 0:
            lo, hi = hist.window(n)
            summed += (hi - lo) * hist.n_nodes
            computed_bytes += 2 * 8 * (hi - lo) * (hist.n_nodes + 1)
    written = [s[4] for s in spans if s[0] == "csvio.write_csv"]

    times = {name: total.get(name, 0.0) for name in (
        "wall.source_table", "wall.history_append",
        "scheme.lax_wendroff_update", "boundaries.inflow",
        "boundaries.outflow", "gas.primitive_arrays",
        "analysis.harmonic_spectrum", "csvio.write_csv")}
    times["driver.self"] = driver_self - post_s
    times["driver.post"] = post_s
    times["config"] = (total.get("config.parse_config", 0.0)
                       + total.get("config.scenario_from_config", 0.0))
    times["cli.self"] = own.get("cli.main", 0.0)
    return {
        "run_s": run_s,
        "times": times,
        "source_table_calls": calls.get("wall.source_table", 0),
        "history_levels": hist.n_levels,
        "summed_samples": summed,
        "computed_bytes": computed_bytes,
        "steps": len(advances),
        "step_us_p50": statistics.median(step_us),
        "step_us_p99": percentile(step_us, 99),
        "step_us_first_period": statistics.median(step_us[:per_period]),
        "step_us_last_period": statistics.median(step_us[-per_period:]),
        "written_files": written,
    }

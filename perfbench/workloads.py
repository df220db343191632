"""The benchmark's workloads: inputs made from a seed, and their output checks.

Seed 0 runs each preset as shipped (apart from the run length the workload
sets). Any other seed scales the inflow amplitude, every harmonic alike, by
a factor in 1 +/- AMPLITUDE_JITTER, which keeps every input below the
simple-wave shock distance (s < 1; `make_inputs` checks it). The jitter is
kept small because ref_err moves with the input: over five seeds, +/-5% of
amplitude spread lossless-long's ref_err by 6% (quartile distance over
median), and shifting the trombone's harmonic phases by up to 0.1 rad moved
its ref_err by +/-18%, so phases are left alone.

This module imports ductwave only inside its functions, so that a worker
can import it before it times the package import.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

AMPLITUDE_JITTER = 0.02

# The trombone reference comes from stored fine-grid runs, one per input
# variant, so that workload draws its jitter from seed % TROMBONE_VARIANTS.
TROMBONE_VARIANTS = 32
TROMBONE_REFERENCE = Path(__file__).with_name("trombone_reference.json")
REFERENCE_CELLS_FACTOR = 2

# Periods at the end of a run over which spectra and amplitudes are read.
WINDOW_PERIODS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    periods: float | None      # None keeps the preset's run length
    via_cli: bool
    tolerance: float           # largest ref_err an output check accepts


WORKLOADS = {
    w.name: w for w in (
        Workload("lossless-long", "simple-wave", 48.0, False, 0.005),
        Workload("lossy-linear-long", "kirchhoff", 250.0, False, 0.05),
        Workload("trombone-cli", "trombone", None, True, 0.01),
    )
}


def input_seed(workload: Workload, seed: int) -> int:
    """The seed the inputs are drawn from (0 means the preset as shipped)."""
    if workload.via_cli:
        return seed % TROMBONE_VARIANTS
    return seed


def make_inputs(workload: Workload, seed: int, cells_factor: int = 1):
    """The workload's config document for a seed."""
    from ductwave import config

    doc = config.builtin_scenarios()[workload.preset]
    values = dict(doc.values)
    if workload.periods is not None:
        values["run.duration_periods"] = workload.periods
    if cells_factor != 1:
        values["grid.cells"] *= cells_factor
    jitter(values, input_seed(workload, seed))
    doc = config.ConfigDocument(values)
    _check_below_shock(config.scenario_from_config(doc))
    return doc


def jitter(values: dict, seed: int):
    """Apply the seed's amplitude jitter to a config in place."""
    if seed == 0:
        return
    scale = 1.0 + random.Random(seed).uniform(-AMPLITUDE_JITTER,
                                              AMPLITUDE_JITTER)
    if values["inflow.shape"] == "sine":
        values["inflow.amplitude"] *= scale
    else:
        values["inflow.harmonics"] = tuple(
            (k, a * scale, phi) for k, a, phi in values["inflow.harmonics"])


def _check_below_shock(scenario):
    """Refuse an input whose far probe sits at or beyond the shock distance."""
    gas = scenario.gas
    rate = scenario.inflow.max_rate()
    if scenario.inflow_kind == "pressure":
        rate /= gas.rho0 * gas.c0
    l_shock = 2.0 * gas.c0 ** 2 / ((gas.gamma + 1.0) * rate)
    s = max(scenario.probes) / l_shock
    if s >= 1.0:
        raise ValueError(f"input reaches s = {s:.3f} >= 1")


def last_window(record, period: float, k_max: int, component: str):
    """Harmonic magnitudes of a record over its last WINDOW_PERIODS periods."""
    from ductwave import analysis

    span = (record.n_samples - 1) * record.tau
    whole = int(math.floor(span / period + 1e-9))
    window = record.window(record.t_start + (whole - WINDOW_PERIODS) * period,
                           record.t_start + whole * period)
    omega0 = 2.0 * math.pi / period
    return window, analysis.harmonic_spectrum(window, omega0, k_max, component)


def spectral_error(got, ref) -> float:
    """Relative error of a list of harmonic magnitudes, ||got - ref|| / ||ref||.

    A norm over all harmonics rather than the worst one: the per-harmonic
    errors are small signed differences that cross zero as the input
    amplitude changes (at k = 10 on lossless-long the error falls by about
    14% for each 1% of amplitude), so the worst one would move with the
    seed far more than with the solver's accuracy.
    """
    if len(got) != len(ref):
        raise ValueError(f"{len(got)} harmonics against {len(ref)}")
    diff = math.sqrt(sum((g - r) ** 2 for g, r in zip(got, ref)))
    return diff / math.sqrt(sum(r * r for r in ref))


def simple_wave_error(result) -> float:
    """Spectral error (k <= 10) of the outlet velocity against the exact
    simple wave."""
    import numpy as np
    from ductwave import analysis, oracles

    scenario = result.scenario
    period = scenario.fundamental_period
    window, spec = last_window(result.resampled[0], period, 10, "u")
    prob = oracles.SimpleWaveProblem(signal=scenario.inflow, gas=scenario.gas,
                                     station=window.x)
    u_exact = np.array([prob.velocity(float(t)) for t in window.times])
    exact = analysis.ProbeRecord(
        station_index=window.station_index, x=window.x, tau=window.tau,
        data=np.column_stack([np.zeros_like(u_exact), u_exact,
                              np.zeros_like(u_exact)]),
        t_start=window.t_start)
    ref = analysis.harmonic_spectrum(exact, 2.0 * math.pi / period, 10, "u")
    return spectral_error(spec.magnitudes, ref.magnitudes)


def kirchhoff_error(result) -> float:
    """Error of the probe amplitude ratio against exp(-alpha dx) of the
    wide-tube model (corrected mode)."""
    from ductwave import oracles

    scenario = result.scenario
    period = scenario.fundamental_period
    near, far = result.resampled
    mags = [last_window(rec, period, 1, "u")[1].magnitude(1)
            for rec in (near, far)]
    model = oracles.KirchhoffModel(gas=scenario.gas, h=scenario.geom.h,
                                   mode=oracles.CORRECTED)
    alpha = oracles.kirchhoff_alpha(model, 2.0 * math.pi / period)
    predicted = math.exp(-alpha * (far.x - near.x))
    return abs(mags[1] / mags[0] - predicted) / predicted


def read_spectrum(out_dir: Path, column: str) -> list[float]:
    """One column of the single spectrum CSV a CLI run wrote."""
    paths = sorted(out_dir.glob("*_spectrum.csv"))
    if len(paths) != 1:
        raise ValueError(f"expected one spectrum file, found {len(paths)}")
    lines = paths[0].read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    col = header.index(column)
    return [float(ln.split(",")[col]) for ln in lines[1:] if ln]


def trombone_error(out_dir: Path, seed: int) -> float:
    """Spectral error of the outlet pressure harmonics written by the CLI
    against the stored fine-grid reference for this input variant."""
    stored = json.loads(TROMBONE_REFERENCE.read_text(encoding="utf-8"))
    ref = stored["mag_p_Pa"][input_seed(WORKLOADS["trombone-cli"], seed)]
    return spectral_error(read_spectrum(out_dir, "mag_p_Pa"), ref)

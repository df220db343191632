"""Command-line front end.

Subcommands:
  run                   run a configured simulation, write CSVs + report
  oracle-characteristics  exact simple-wave series and spectrum
  oracle-kirchhoff      wide-tube dispersion/damping table
  compare               error metrics between two CSV tables
  scenario              emit a built-in preset as a config document

Exit codes: 0 success, 2 configuration/usage errors, 3 simulation or
oracle domain errors (blow-up, shock regime), 4 I/O failures. Output
files are deterministic; timing goes to stdout only. Errors and warnings
go to stderr, one line each. A `run` that fails removes the output
directory it created.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import analysis, driver, oracles
from .config import (
    DEFAULT_KMAX,
    builtin_scenarios,
    parse_config,
    scenario_from_config,
    serialize_config,
)
from .csvio import read_csv, write_csv
from .errors import ConfigError, DuctwaveError, ShockRegimeError
from .gas import GasModel
from .signals import SineSignal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DuctwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _print_warning(message, category, filename, lineno, file=None,
                   line=None):
    """Show a warning as one stderr line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ductwave",
        description="Nonlinear duct acoustics with visco-thermal wall losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured simulation")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--losses", choices=["on", "off"])
    p_run.add_argument("--kernel-mode", choices=["consistent", "as-printed"])
    p_run.add_argument("--cfl", type=float)
    p_run.set_defaults(func=cmd_run)

    p_oc = sub.add_parser("oracle-characteristics",
                          help="exact simple-wave probe series and spectrum")
    p_oc.add_argument("--u0", type=float, required=True, help="velocity amplitude [m/s]")
    p_oc.add_argument("--freq", type=float, required=True, help="fundamental [Hz]")
    p_oc.add_argument("--s", type=float, required=True,
                      help="station abscissa in units of the shock distance")
    p_oc.add_argument("--periods", type=int, default=4)
    p_oc.add_argument("--sampling-exponent", type=int, default=10)
    p_oc.add_argument("--kmax", type=int, default=20)
    p_oc.add_argument("--out", required=True)
    p_oc.set_defaults(func=cmd_oracle_characteristics)

    p_ok = sub.add_parser("oracle-kirchhoff",
                          help="dispersion/damping table for a duct radius")
    p_ok.add_argument("--freq", type=float, required=True, help="frequency [Hz]")
    p_ok.add_argument("--h", type=float, required=True, help="duct radius [m]")
    p_ok.add_argument("--xmax", type=float, default=1.0)
    p_ok.add_argument("--nx", type=int, default=11)
    p_ok.add_argument("--out", required=True)
    p_ok.set_defaults(func=cmd_oracle_kirchhoff)

    p_cmp = sub.add_parser("compare", help="error metrics between two CSVs")
    p_cmp.add_argument("series_a")
    p_cmp.add_argument("series_b")
    p_cmp.add_argument("--column", help="column name to compare (default: 2nd)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sc = sub.add_parser("scenario", help="emit a built-in preset")
    p_sc.add_argument("name", choices=sorted(builtin_scenarios()))
    p_sc.add_argument("--emit-config", action="store_true")
    p_sc.add_argument("--out", help="write to file instead of stdout")
    p_sc.set_defaults(func=cmd_scenario)
    return parser


def _load_samples(path):
    header, body = read_csv(path)
    if body.shape[1] < 2:
        raise ConfigError(f"{path}: need two columns (t_s, value)")
    t = body[:, 0]
    dta = np.diff(t)
    if dta.size == 0 or not np.allclose(dta, dta[0], rtol=1e-9, atol=0.0):
        raise ConfigError(f"{path}: sample times must be uniform")
    return float(dta[0]), [float(v) for v in body[:, 1]]


def cmd_run(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    doc = parse_config(text)
    doc = doc.with_overrides(**{
        "run.losses": None if args.losses is None else args.losses == "on",
        "run.kernel_mode": args.kernel_mode,
        "run.cfl": args.cfl,
    })
    scenario = scenario_from_config(doc, samples_loader=_load_samples)

    out_dir = Path(args.out)
    # the directories this call makes, innermost first, go if the run fails
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = driver.run(scenario)
    except BaseException:
        for d in made:
            d.rmdir()
        raise
    prefix = doc.get("output.prefix", "run")

    for record in (result.resampled or result.records):
        tag = f"{prefix}_probe{record.station_index}"
        write_csv(
            out_dir / f"{tag}_series.csv",
            ["t_s", "rho_kgpm3", "u_mps", "p_Pa"],
            map(np.ndarray.tolist, np.column_stack([record.times,
                                                     record.data])),
        )
        spectrum_rows = _spectrum_rows(record, scenario, doc)
        if spectrum_rows is not None:
            write_csv(
                out_dir / f"{tag}_spectrum.csv",
                ["k", "mag_u_mps", "mag_p_Pa", "level_p_dbspl",
                 "level_p_rel_db"],
                spectrum_rows,
            )

    report_path = out_dir / f"{prefix}_report.txt"
    report_path.write_text(_report_text(result), encoding="utf-8")
    print(f"run complete: {result.report.n_steps} steps,"
          f" dt={result.report.dt:.6e} s,"
          f" wall clock {result.report.wall_clock_s:.2f} s")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _spectrum_rows(record, scenario, doc):
    period = scenario.fundamental_period
    if period is None:
        return None
    omega0 = 2.0 * math.pi / period
    span = (record.n_samples - 1) * record.tau
    avail = int(math.floor(span / period + 1e-9))
    periods = min(doc.get("output.spectrum_periods", 4), avail)
    if periods < 1:
        return None
    k_max = doc.get("output.kmax", DEFAULT_KMAX)
    t_hi = record.t_start + avail * period
    t_lo = t_hi - periods * period
    window = record.window(t_lo, t_hi)
    spec_u = analysis.harmonic_spectrum(window, omega0, k_max, component="u")
    spec_p = analysis.harmonic_spectrum(window, omega0, k_max, component="p")
    db_ref = doc.get("output.db_reference", analysis.P_REF_SPL)
    fundamental = spec_p.magnitude(1)
    rows = []
    for k in range(1, k_max + 1):
        mag_p = spec_p.magnitude(k)
        rows.append((
            k, spec_u.magnitude(k), mag_p,
            analysis.level_db(mag_p, db_ref),
            analysis.level_db(mag_p, fundamental) if fundamental > 0.0
            else float("-inf"),
        ))
    return rows


def _report_text(result) -> str:
    rep = result.report
    lines = [
        "ductwave run report",
        f"length_m = {rep.length!r}",
        f"cells = {rep.cells}",
        f"dx_m = {rep.dx!r}",
        f"dt_s = {rep.dt!r}",
        f"steps = {rep.n_steps}",
        f"cfl = {rep.cfl!r}",
        f"losses = {'on' if rep.losses else 'off'}",
        f"kernel_mode = {rep.kernel_mode}",
        f"probes = {', '.join(repr(r.x) for r in result.records)}",
    ]
    return "\n".join(lines) + "\n"


_POSITIVE = ("must be positive", lambda v: v > 0)
_NON_NEGATIVE = ("must be non-negative", lambda v: v >= 0)


def _check_flags(args, **rules):
    """Refuse the first flag whose value breaks its (text, test) rule."""
    for name, (text, ok) in rules.items():
        value = getattr(args, name)
        if not ok(value):
            raise ConfigError(f"--{name.replace('_', '-')} {text},"
                              f" got {value!r}")


def cmd_oracle_characteristics(args) -> int:
    _check_flags(args, u0=_NON_NEGATIVE, freq=_POSITIVE, s=_NON_NEGATIVE,
                 periods=_POSITIVE, kmax=_POSITIVE)
    omega0 = 2.0 * math.pi * args.freq
    try:
        tau = oracles.sample_period(omega0, args.sampling_exponent)
    except ValueError as exc:
        raise ConfigError(f"--sampling-exponent: {exc}") from None
    per_period = 2 ** args.sampling_exponent
    floor = analysis.min_samples_per_period(args.kmax)
    if per_period < floor:
        raise ConfigError(
            f"--sampling-exponent {args.sampling_exponent} gives {per_period}"
            f" samples/period, under the anti-aliasing floor {floor} for"
            f" --kmax {args.kmax}")
    gas = GasModel()
    if args.s >= 1.0:
        raise ShockRegimeError(
            f"s = {args.s} >= 1: station at or beyond the shock-formation"
            " distance; the pre-shock oracle does not apply"
        )
    if args.u0 == 0.0:
        # Quiescent signal: no shock distance, flat series at any station.
        l_shock = math.inf
        station = 0.0
    else:
        l_shock = oracles.shock_distance(args.u0, omega0, gas)
        station = args.s * l_shock
    signal = SineSignal(amplitude=args.u0, omega0=omega0)
    prob = oracles.SimpleWaveProblem(signal=signal, gas=gas, station=station)

    period = signal.period
    # Start after the slowest characteristic of the first period arrives.
    slow = gas.c0 - 0.5 * (gas.gamma + 1.0) * args.u0
    arrival = station / slow if slow > 0.0 else station / gas.c0
    start = (int(math.ceil(arrival / period)) + 1) * period
    n_samples = args.periods * per_period
    times = start + np.arange(n_samples) * tau
    u = np.array([prob.velocity(t) for t in times])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "oracle_series.csv", ["t_s", "u_mps"],
              map(np.ndarray.tolist, np.column_stack([times, u])))
    data = np.column_stack([np.full(n_samples, gas.rho0), u,
                            np.full(n_samples, gas.p0)])
    record = analysis.ProbeRecord(station_index=0, x=station, tau=tau,
                                  data=data, t_start=float(times[0]))
    spectrum = analysis.harmonic_spectrum(record, omega0, args.kmax, component="u")
    write_csv(out_dir / "oracle_spectrum.csv", ["k", "mag_u_mps"],
              ((k, spectrum.magnitude(k)) for k in range(1, args.kmax + 1)))
    (out_dir / "oracle_report.txt").write_text(
        "simple-wave oracle\n"
        f"u0_mps = {args.u0!r}\n"
        f"freq_hz = {args.freq!r}\n"
        f"l_shock_m = {l_shock!r}\n"
        f"station_m = {station!r}\n"
        f"s = {args.s!r}\n",
        encoding="utf-8",
    )
    print(f"L_shock = {l_shock:.6g} m, station = {station:.6g} m")
    return EXIT_OK


def cmd_oracle_kirchhoff(args) -> int:
    _check_flags(args, freq=_POSITIVE, h=_POSITIVE, xmax=_NON_NEGATIVE,
                 nx=_POSITIVE)
    gas = GasModel()
    omega = 2.0 * math.pi * args.freq
    stations = np.linspace(0.0, args.xmax, args.nx)
    rows = []
    for mode in (oracles.PRINTED, oracles.CORRECTED):
        model = oracles.KirchhoffModel(gas=gas, h=args.h, mode=mode)
        alpha = oracles.kirchhoff_alpha(model, omega)
        cprime = oracles.kirchhoff_phase_speed(model, omega)
        for x in stations:
            ratio, delay = oracles.kirchhoff_propagate(model, omega, 1.0,
                                                       float(x))
            rows.append((mode, float(x), alpha, cprime, ratio, delay))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "kirchhoff_table.csv"
    write_csv(path, ["mode", "x_m", "alpha_1pm", "cprime_mps", "amp_ratio",
                     "phase_delay_rad"], rows)
    print(f"wrote {path}")
    print("note: 'printed' rows evaluate the damping factor c0/(2 h omega)"
          " verbatim, which is dimensionally anomalous; 'corrected' rows"
          " carry proper 1/m units")
    return EXIT_OK


def cmd_compare(args) -> int:
    header_a, body_a = read_csv(args.series_a)
    header_b, body_b = read_csv(args.series_b)
    if body_a.shape != body_b.shape or header_a != header_b:
        raise ConfigError(
            f"misaligned tables: {args.series_a} is {body_a.shape}"
            f" {header_a}, {args.series_b} is {body_b.shape} {header_b}"
        )
    if args.column is not None:
        if args.column not in header_a:
            raise ConfigError(f"column {args.column!r} not in {header_a}")
        col = header_a.index(args.column)
    else:
        col = 1
    a = body_a[:, col]
    b = body_b[:, col]
    print(f"l2_rel = {analysis.relative_error(a, b, 'l2')!r}")
    print(f"max_rel = {analysis.relative_error(a, b, 'max')!r}")
    if header_a and header_a[0] == "k":
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(b != 0.0, a / b, np.inf)
        for k, r in zip(body_a[:, 0], ratio):
            print(f"harmonic {int(k)}: ratio = {float(r)!r}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    doc = builtin_scenarios()[args.name]
    text = serialize_config(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

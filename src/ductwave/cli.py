"""Command-line front end.

Subcommands:
  run                   run a configured simulation, write CSVs + report
  oracle-characteristics  exact simple-wave series and spectrum
  oracle-kirchhoff      wide-tube damping table, one row per station
  compare               error metrics between two CSV tables
  scenario              emit a built-in preset as a config document

Exit codes: 0 success, 2 configuration/usage errors (ConfigError; an
unknown flag or subcommand, or a missing required flag, is one), 3
any other DuctwaveError: simulation or oracle domain errors (blow-up,
shock regime), 4 I/O failures. Output files are deterministic; timing
goes to stdout only. Errors go to stderr, one line each. A `run` that
fails, in its steps or in its writes, removes the files it wrote and
the output directories it created; one whose output.prefix names a
directory that is not there fails so before its first step, and an
output.prefix outside the output directory is a configuration error.
`--help` prints the usage to stdout and exits 0.

A run builds the rows of its series CSVs one writer's block
(`csvio._WRITE_BLOCK` rows) at a time: the only rows it holds are those
of the block `write_csv` is formatting.
"""

from __future__ import annotations

import argparse
import errno
import math
import sys
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
from .csvio import _WRITE_BLOCK, read_csv, write_csv
from .errors import ConfigError, DuctwaveError
from .gas import GasModel
from .signals import MultiHarmonicSignal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that
    main reports them as every other refused input: one stderr line and
    EXIT_CONFIG, in place of argparse's usage block and SystemExit."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ductwave",
        description="Nonlinear duct acoustics with visco-thermal wall losses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured simulation")
    p_run.add_argument("--config", required=True, help="config file path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--losses", choices=["on", "off"])
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
    p_sc.add_argument("--out", help="write to file instead of stdout")
    p_sc.set_defaults(func=cmd_scenario)
    return parser


def cmd_run(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    doc = parse_config(text)
    doc = doc.with_overrides(**{
        "run.losses": None if args.losses is None else args.losses == "on",
        "run.cfl": args.cfl,
    })
    scenario = scenario_from_config(doc)

    prefix = doc.get("output.prefix", "run")
    out_dir = Path(args.out)
    # the directories this call makes, innermost first, and the files it
    # opens for writing go if the run or a write fails
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        # a prefix naming a directory that is not there fails every write:
        # refuse it before the run rather than after it. The directory is
        # that of a file the run writes, since pathlib drops a trailing
        # "/" or "/." from the prefix itself
        where = (out_dir / f"{prefix}_report.txt").parent
        if not where.is_dir():
            raise FileNotFoundError(errno.ENOENT, "output.prefix names no"
                                    " directory", str(where))
        result = driver.run(scenario)
        for record in (result.resampled or result.records):
            tag = f"{prefix}_probe{record.station_index}"
            written.append(out_dir / f"{tag}_series.csv")
            write_csv(written[-1], ["t_s", "rho_kgpm3", "u_mps", "p_Pa"],
                      _series_rows(record))
            if result.resampled:
                written.append(out_dir / f"{tag}_spectrum.csv")
                write_csv(written[-1],
                          ["k", "mag_u_mps", "mag_p_Pa", "level_p_dbspl",
                           "level_p_rel_db"],
                          _spectrum_rows(record, doc))
        written.append(out_dir / f"{prefix}_report.txt")
        written[-1].write_text(_report_text(result), encoding="utf-8")
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise
    report = result.report
    print(f"run complete: {report.n_steps} steps, dt={report.dt:.6e} s,"
          f" wall clock {report.wall_clock_s:.2f} s,"
          f" {report.wall_clock_s / report.n_steps * 1e6:.0f} µs a step")
    print(f"outputs in {out_dir}")
    return EXIT_OK


def _series_rows(record):
    """Rows (t, rho, u, p) of a native or period-grid record, read
    _WRITE_BLOCK samples at a time, the block `write_csv` formats, each
    time t_start + m * tau as in `record.times`."""
    for lo in range(0, record.n_samples, _WRITE_BLOCK):
        hi = min(lo + _WRITE_BLOCK, record.n_samples)
        times = record.t_start + np.arange(lo, hi) * record.tau
        yield from np.column_stack([times, record.samples(lo, hi)]).tolist()


def _spectrum_rows(record, doc):
    """Spectrum rows of the last output.spectrum_periods whole periods of a
    period-grid record."""
    omega0 = 2.0 * math.pi / record.period
    per_period, whole = record.per_period, record.n_periods
    periods = min(doc.get("output.spectrum_periods", 4), whole)
    lo, hi = (whole - periods) * per_period, whole * per_period
    window = record.window(record.t_start + lo * record.tau,
                           record.t_start + hi * record.tau)
    k_max = doc.get("output.kmax", DEFAULT_KMAX)
    spec_u = analysis.harmonic_spectrum(window, omega0, k_max, component="u")
    spec_p = analysis.harmonic_spectrum(window, omega0, k_max, component="p")
    fundamental = spec_p.magnitude(1)
    rows = []
    for k in range(1, k_max + 1):
        mag_p = spec_p.magnitude(k)
        rows.append((
            k, spec_u.magnitude(k), mag_p,
            analysis.level_db(mag_p, analysis.P_REF_SPL),
            analysis.level_db(mag_p, fundamental) if fundamental > 0.0
            else float("-inf"),
        ))
    return rows


def _report_text(result) -> str:
    sc, rep = result.scenario, result.report
    lines = [
        "ductwave run report",
        f"length_m = {sc.grid.length!r}",
        f"cells = {sc.grid.cells}",
        f"dx_m = {sc.grid.dx!r}",
        f"dt_s = {rep.dt!r}",
        f"steps = {rep.n_steps}",
        f"cfl = {sc.cfl!r}",
        f"losses = {'on' if sc.losses else 'off'}",
        f"probes = {', '.join(repr(r.x) for r in result.records)}",
    ]
    return "\n".join(lines) + "\n"


_POSITIVE = ("must be positive and finite", lambda v: 0 < v < math.inf)
_NON_NEGATIVE = ("must be non-negative and finite",
                 lambda v: 0 <= v < math.inf)


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
        analysis.check_sampling_exponent(args.sampling_exponent, args.kmax)
    except ValueError as exc:
        raise ConfigError(f"--sampling-exponent: {exc}") from None
    per_period = 2 ** args.sampling_exponent
    gas = GasModel()
    if args.u0 == 0.0:
        # Quiescent signal: no shock distance, flat series at any station.
        l_shock = math.inf
        station = 0.0
    else:
        l_shock = oracles.shock_distance(args.u0, omega0, gas)
        station = args.s * l_shock
    signal = MultiHarmonicSignal(omega0, ((1, args.u0, 0.0),))
    prob = oracles.SimpleWaveProblem(signal=signal, gas=gas, station=station)

    period = signal.period
    tau = period / per_period
    # Start after the slowest characteristic of the first period arrives.
    arrival = station / prob.slowest_speed
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
    omega = 2.0 * math.pi * args.freq
    stations = np.linspace(0.0, args.xmax, args.nx)
    model = oracles.KirchhoffModel(gas=GasModel(), h=args.h)
    alpha = oracles.kirchhoff_alpha(model, omega)
    cprime = oracles.kirchhoff_phase_speed(model, omega)
    rows = [(float(x), alpha, cprime,
             *oracles.kirchhoff_propagate(model, omega, 1.0, float(x)))
            for x in stations]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "kirchhoff_table.csv"
    write_csv(path, ["x_m", "alpha_1pm", "cprime_mps", "amp_ratio",
                     "phase_delay_rad"], rows)
    print(f"wrote {path}")
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
    elif len(header_a) < 2:
        raise ConfigError(f"{args.series_a}: no second column to compare")
    else:
        col = 1
    harmonics = header_a[0] == "k"
    ks = body_a[:, 0]
    if harmonics and not np.all(np.isfinite(ks) & (ks == np.round(ks))):
        raise ConfigError(f"{args.series_a}: a harmonic index k is not a"
                          " finite whole number")
    a = body_a[:, col]
    b = body_b[:, col]
    print(f"l2_rel = {analysis.relative_error(a, b, 'l2')!r}")
    print(f"max_rel = {analysis.relative_error(a, b, 'max')!r}")
    if harmonics:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(b != 0.0, a / b, np.inf)
        for k, r in zip(ks, ratio):
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

"""Command-line interface: exit codes, file outputs, determinism."""

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ductwave

from ductwave import cli, csvio, driver
from ductwave.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)
from ductwave.config import (
    builtin_scenarios,
    parse_config,
    scenario_from_config,
    serialize_config,
)
from ductwave.csvio import read_csv, write_csv
from ductwave.errors import ConfigError
from ductwave.gas import GasModel
from ductwave.oracles import CORRECTED, KirchhoffModel, kirchhoff_alpha

SMALL_CONFIG = """
grid.length = 0.2
grid.cells = 24
geometry.h = 0.005
geometry.symmetry = axisymmetric
inflow.kind = velocity
inflow.shape = sine
inflow.amplitude = 0.5
inflow.frequency_hz = 2000.0
run.losses = on
run.duration_periods = 4.0
run.sampling_exponent = 7
probes.stations = 0.1, 0.2
output.prefix = smoke
output.spectrum_periods = 2
output.kmax = 5
"""


def _edited_config(tmp_path, edits):
    """SMALL_CONFIG with each key in edits replaced by its value (dropped
    when the value is None), written to tmp_path / "edited.cfg"."""
    lines = [ln for ln in SMALL_CONFIG.splitlines()
             if ln.split(" = ")[0] not in edits]
    lines += [f"{k} = {v}" for k, v in edits.items() if v is not None]
    path = tmp_path / "edited.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# SMALL_CONFIG's edits to each inflow shape (samples: see _sampled_config)
_SHAPE_EDITS = {
    "sine": {},
    "multiharmonic": {"inflow.shape": "multiharmonic",
                      "inflow.amplitude": None,
                      "inflow.harmonics": "1:0.5:0.0"},
}

# (key, value, inflow shape the rest of the config is written for)
_INVALID_VALUES = [
    ("grid.cells", "2", "sine"),
    ("gas.gamma", "0.9", "sine"),
    ("geometry.h", "-1.0", "sine"),
    ("output.kmax", "0", "sine"),
    ("output.spectrum_periods", "-2", "sine"),
    # non-finite numbers are refused where they are parsed
    ("inflow.frequency_hz", "nan", "sine"),
    ("run.duration_periods", "inf", "sine"),
    ("grid.length", "inf", "sine"),
    ("geometry.h", "nan", "sine"),
    ("inflow.harmonics", "1:nan:0.0", "sine"),
    # an inflow key that the shape does not read
    ("inflow.harmonics", "1:99.0:0.0", "sine"),
    ("inflow.samples_file", "u.csv", "sine"),
    ("inflow.amplitude", "0.5", "multiharmonic"),
    ("inflow.samples_file", "u.csv", "multiharmonic"),
    ("inflow.harmonics", "1:0.5:0.0", "samples"),
    ("inflow.amplitude", "0.5", "samples"),
    ("inflow.frequency_hz", "2000.0", "samples"),
]


def _kirchhoff_config(tmp_path, drop, extra):
    """The kirchhoff preset without its lines for the keys in drop, plus
    the lines extra, written to tmp_path / "k.cfg"."""
    text = serialize_config(builtin_scenarios()["kirchhoff"])
    lines = [ln for ln in text.splitlines() if ln.split(" = ")[0] not in drop]
    path = tmp_path / "k.cfg"
    path.write_text("\n".join(lines + extra) + "\n", encoding="utf-8")
    return path


def _kirchhoff_sampled(tmp_path, n_rows):
    """The kirchhoff preset run for 0.01 s (314 steps, the last at
    t = 0.0100084 s) on a table of n_rows inflow samples 1e-5 s apart."""
    samples = tmp_path / "u.csv"
    write_csv(samples, ["t_s", "u_mps"],
              [(i * 1e-5, 0.02 * math.sin(2e3 * math.pi * i * 1e-5))
               for i in range(n_rows)])
    return _kirchhoff_config(
        tmp_path, ("inflow.shape", "inflow.amplitude", "inflow.frequency_hz",
                   "run.duration_periods"),
        ["inflow.shape = samples", f"inflow.samples_file = {samples}",
         "run.duration_s = 0.01"])


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


class TestRunCommand:
    def test_produces_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_file),
                     "--out", str(out)]) == EXIT_OK
        series = sorted(p.name for p in out.glob("*_series.csv"))
        spectra = sorted(p.name for p in out.glob("*_spectrum.csv"))
        assert len(series) == 2
        assert len(spectra) == 2
        assert (out / "smoke_report.txt").exists()
        header, body = read_csv(out / series[0])
        assert header == ["t_s", "rho_kgpm3", "u_mps", "p_Pa"]
        assert body.shape[1] == 4
        header, body = read_csv(out / spectra[0])
        assert header[0] == "k"
        assert body.shape[0] == 5

    def test_stations_sharing_a_node_record_it_once(self, tmp_path,
                                                    monkeypatch):
        # 0.1 and 0.1001 both lie nearest node 12 of the 24-cell 0.2 m duct
        written = []
        write = cli.write_csv

        def recording(path, *args):
            written.append(path.name)
            write(path, *args)

        monkeypatch.setattr(cli, "write_csv", recording)
        cfg = _edited_config(tmp_path, {"probes.stations": "0.1, 0.1, 0.1001"})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        assert written == ["smoke_probe12_series.csv",
                           "smoke_probe12_spectrum.csv"]
        report = (out / "smoke_report.txt").read_text().splitlines()
        assert f"probes = {12 * (0.2 / 24)!r}" in report

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["run", "--config", str(config_file), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    # configs emitted before run.truncate, run.kernel_mode, gas.theta0 or
    # output.db_reference was removed still carry that key
    @pytest.mark.parametrize("key, value", [
        ("turbo.boost", "11"),
        ("run.truncate", "unbounded"),
        ("run.kernel_mode", "consistent"),
        ("gas.theta0", "300.0"),
        ("output.db_reference", "2e-05"),
    ])
    def test_unknown_key_exit_code_and_line(self, tmp_path, capsys, key,
                                            value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"grid.length = 1.0\n{key} = {value}\n",
                       encoding="utf-8")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err and repr(key) in err
        assert not (tmp_path / "o").exists()

    def test_removed_kernel_mode_flag_is_a_usage_error(self, config_file,
                                                       tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_file), "--out", str(out),
                     "--kernel-mode", "as-printed"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: ductwave: unrecognized arguments: --kernel-mode"
            " as-printed\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", "k.cfg", "--out", "o", "--bogus"],
         "ductwave: unrecognized arguments: --bogus"),
        (["run", "--config", "k.cfg"],
         "ductwave run: the following arguments are required: --out"),
        (["bogus", "--out", "o"],
         "ductwave: argument command: invalid choice: 'bogus'"),
        (["run", "--config", "k.cfg", "--out", "o", "--cfl", "fast"],
         "ductwave run: argument --cfl: invalid float value: 'fast'"),
    ], ids=["unknown-flag", "missing-out", "unknown-subcommand",
            "bad-flag-value"])
    def test_usage_error_is_one_line_with_config_code(self, tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      message):
        # no usage block and no SystemExit: one error line, exit 2, and
        # nothing read or written
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_prints_usage_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: ductwave")
        assert captured.err == ""

    @pytest.mark.parametrize("key, value, shape", _INVALID_VALUES,
                             ids=[f"{k}-{v}" if shape == "sine"
                                  else f"{k}-{v}-{shape}"
                                  for k, v, shape in _INVALID_VALUES])
    def test_invalid_value_exits_with_config_code(self, key, value, shape,
                                                  tmp_path, capsys):
        if shape == "samples":
            bad = self._sampled_config(tmp_path, [0.0, 0.5, 0.0], **{
                "run.duration_periods": None, "run.duration_s": "1e-3",
                key: value})
        else:
            bad = _edited_config(tmp_path, {**_SHAPE_EDITS[shape],
                                            key: value})
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if key.startswith("inflow."):
            assert key in err

    @pytest.mark.parametrize("flag, value", [
        ("--cfl", "1.5"), ("--cfl", "0"), ("--cfl", "-0.2"),
    ])
    def test_cfl_outside_unit_interval_exits_before_any_step(
            self, config_file, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        code = main(["run", "--config", str(config_file), "--out", str(out),
                     flag, value])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.lstrip("-") in err
        assert not out.exists()

    @pytest.mark.parametrize("exponent, kmax", [(-1, 15), (5, 5), (6, 9)])
    def test_too_coarse_sampling_exits_before_any_step(
            self, tmp_path, capsys, exponent, kmax):
        # 2^N samples per period must reach the 8 K_max anti-aliasing floor
        lines = [ln for ln in SMALL_CONFIG.splitlines()
                 if not ln.startswith(("run.sampling_exponent ",
                                       "output.kmax "))]
        bad = tmp_path / "coarse.cfg"
        bad.write_text("\n".join(lines + [
            f"run.sampling_exponent = {exponent}", f"output.kmax = {kmax}"])
            + "\n", encoding="utf-8")
        out = tmp_path / "o"
        code = main(["run", "--config", str(bad), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "anti-aliasing floor" in err
        assert not out.exists()

    @pytest.mark.parametrize("exponent", [21, 40])
    def test_too_fine_sampling_exits_before_any_step(self, tmp_path, capsys,
                                                     monkeypatch, exponent):
        def no_run(scenario):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli.driver, "run", no_run)
        cfg = _edited_config(tmp_path,
                             {"run.sampling_exponent": str(exponent)})
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"exponent {exponent}" in err
        assert not out.exists()

    def test_sampling_at_the_floor_runs(self, tmp_path):
        lines = [ln for ln in SMALL_CONFIG.splitlines()
                 if not ln.startswith(("run.sampling_exponent ",
                                       "output.kmax "))]
        cfg = tmp_path / "floor.cfg"
        cfg.write_text("\n".join(lines + [
            "run.sampling_exponent = 6", "output.kmax = 8"]) + "\n",
            encoding="utf-8")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        _, body = read_csv(out / "smoke_probe24_spectrum.csv")
        assert body.shape[0] == 8

    def _sampled_config(self, tmp_path, values, t_first=0.0, **edits):
        samples = tmp_path / "u.csv"
        write_csv(samples, ["t_s", "u_mps"],
                  [(t_first + i * 1e-3, v) for i, v in enumerate(values)])
        return _edited_config(tmp_path, {
            "inflow.shape": "samples", "inflow.samples_file": samples,
            "inflow.amplitude": None, "inflow.frequency_hz": None,
            **edits})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_sample_exits_with_config_code(self, tmp_path, capsys,
                                                      value):
        cfg = self._sampled_config(tmp_path, [0.0, value, 0.0],
                                   **{"run.duration_periods": None,
                                      "run.duration_s": "1e-3"})
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("t_first", [0.5, 1e-3, -1e-3])
    def test_samples_not_starting_at_zero_exit_with_config_code(
            self, tmp_path, capsys, t_first):
        cfg = self._sampled_config(tmp_path, [0.0, 0.5, 0.0], t_first,
                                   **{"run.duration_periods": None,
                                      "run.duration_s": "1e-3"})
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "u.csv" in err and "start at t = 0" in err
        assert not out.exists()

    def test_samples_starting_within_rounding_of_zero_run(self, tmp_path):
        cfg = self._sampled_config(tmp_path, [0.0, 0.5, 0.0], 1e-13,
                                   **{"run.duration_periods": None,
                                      "run.duration_s": "1e-3"})
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_OK

    # a table of 2 ms, and one that ends at the duration but before the
    # last step, which may pass the duration by up to one dt
    @pytest.mark.parametrize("n_rows, end", [(201, "0.002"), (1001, "0.01")])
    def test_samples_ending_before_the_last_step_exit_before_any_step(
            self, tmp_path, capsys, n_rows, end):
        cfg = _kirchhoff_sampled(tmp_path, n_rows)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"error: inflow samples end at t = {end} s, before step 314,"
            " the last, at t = 0.0100084")
        assert not out.exists()

    def test_samples_reaching_the_last_step_run(self, tmp_path, capsys):
        cfg = _kirchhoff_sampled(tmp_path, 1101)    # ends at 0.011 s
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        assert "run complete: 314 steps" in capsys.readouterr().out
        assert "steps = 314" in (out / "kirchhoff_report.txt").read_text()

    def test_run_summary_gives_the_mean_step_cost(self, tmp_path, capsys):
        # the summary line on stdout carries the wall clock of the time
        # loop and its mean per step; the report file carries neither
        cfg = _kirchhoff_sampled(tmp_path, 1101)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        found = re.fullmatch(r"run complete: 314 steps, dt=\S+ s,"
                             r" wall clock (\d+\.\d\d) s, (\d+) µs a step",
                             line)
        assert found, line
        wall, per_step = float(found[1]), int(found[2])
        assert abs(per_step * 314e-6 - wall) <= 0.005 + 314 * 0.5e-6
        report = (out / "kirchhoff_report.txt").read_text(encoding="utf-8")
        assert "µs" not in report and "wall clock" not in report

    def test_run_shorter_than_a_step_takes_one(self, tmp_path, capsys):
        cfg = _kirchhoff_config(tmp_path, ("run.duration_periods",),
                                ["run.duration_s = 1e-15"])
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        assert capsys.readouterr().out.startswith("run complete: 1 steps,")
        report = (out / "kirchhoff_report.txt").read_text(encoding="utf-8")
        assert "steps = 1" in report.splitlines()

    def test_run_shorter_than_a_period_writes_only_native_series(
            self, tmp_path):
        # kirchhoff for half a period (16 steps) spans no whole period: the
        # run keeps no period grid, and each probe's series is its 17
        # native rows at t = n dt, with no spectrum
        cfg = _kirchhoff_config(tmp_path, ("run.duration_periods",),
                                ["run.duration_periods = 0.5"])
        result = ductwave.run(scenario_from_config(
            parse_config(cfg.read_text(encoding="utf-8"))))
        assert result.report.n_steps == 16
        assert result.resampled == ()
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        assert not list(out.glob("*_spectrum.csv"))
        assert len(list(out.glob("*_series.csv"))) == len(result.records) == 2
        for record in result.records:
            _, body = read_csv(
                out / f"kirchhoff_probe{record.station_index}_series.csv")
            assert body.shape == (17, 4)
            np.testing.assert_array_equal(
                body[:, 0], np.arange(17) * result.report.dt)
            np.testing.assert_array_equal(body[:, 1:], record.data)

    def test_negative_external_sound_speed_exits_with_runtime_code(
            self, tmp_path, capsys):
        # u_e = -2000 m/s puts c_e = c0 + (g-1)/2 u_e below zero
        cfg = self._sampled_config(tmp_path, [-2000.0, -2000.0],
                                   **{"run.duration_periods": None,
                                      "run.duration_s": "5e-4"})
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: external sound speed")
        assert "(node 0) (step 1, t = " in err
        assert not out.exists()

    def test_non_positive_imposed_pressure_exits_with_runtime_code(
            self, tmp_path, capsys):
        cfg = _edited_config(tmp_path, {"inflow.kind": "pressure",
                                        "inflow.amplitude": "-300000.0"})
        out = tmp_path / "o" / "nested"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: imposed pressure must be positive")
        assert "(node 0) (step " in err and "t/T0 = 0." in err
        # neither the output directory nor the parent made for it is left
        assert not (tmp_path / "o").exists()

    def test_failed_run_keeps_an_existing_output_directory(self, tmp_path,
                                                           capsys):
        cfg = _edited_config(tmp_path, {"inflow.kind": "pressure",
                                        "inflow.amplitude": "-300000.0"})
        out = tmp_path / "o"
        out.mkdir()
        (out / "earlier.txt").write_text("kept\n", encoding="utf-8")
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert [p.name for p in out.iterdir()] == ["earlier.txt"]
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["run", "--config", str(cfg),
                     "--out", str(empty)]) == EXIT_RUNTIME
        assert empty.is_dir()

    @staticmethod
    def _second_write_fails(monkeypatch):
        """Make cli.write_csv write its first file and raise OSError on its
        second call, as a full disk or a missing directory would."""
        calls = []

        def write_csv_once(path, header, rows):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(f"cannot write {path}")
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "write_csv", write_csv_once)
        return calls

    def test_failed_write_removes_what_the_run_made(self, config_file,
                                                    tmp_path, capsys,
                                                    monkeypatch):
        calls = self._second_write_fails(monkeypatch)
        out = tmp_path / "o" / "nested"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_IO
        assert len(calls) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: cannot write {calls[1]}"]
        # the file written, the output directory and its made parent go
        assert not (tmp_path / "o").exists()

    def test_failed_write_leaves_an_existing_directory_empty(
            self, config_file, tmp_path, capsys, monkeypatch):
        self._second_write_fails(monkeypatch)
        out = tmp_path / "o"
        out.mkdir()
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == EXIT_IO
        assert out.is_dir() and list(out.iterdir()) == []

    # "sub/" and "sub/." write sub/_report.txt and sub/._report.txt,
    # though pathlib reads both prefixes as the name "sub"
    @pytest.mark.parametrize("prefix", ["sub/k", "sub/deeper/k", "sub/",
                                        "sub/."])
    def test_prefix_in_a_missing_directory_fails_before_the_run(
            self, tmp_path, capsys, monkeypatch, prefix):
        # no write could succeed, so no step is taken: the refusal takes
        # the I/O path, with one line, and removes the directories made
        def no_run(scenario):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli.driver, "run", no_run)
        cfg = _edited_config(tmp_path, {"output.prefix": prefix})
        out = tmp_path / "o" / "nested"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(out / prefix.rsplit("/", 1)[0]) in lines[0]
        assert not (tmp_path / "o").exists()

    def test_prefix_in_an_existing_directory_runs(self, tmp_path):
        cfg = _edited_config(tmp_path, {"output.prefix": "sub/k"})
        out = tmp_path / "o"
        (out / "sub").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) \
            == EXIT_OK
        assert (out / "sub" / "k_report.txt").is_file()

    @pytest.mark.parametrize("prefix", ["/abs/k", "../k", "sub/../../k"])
    def test_prefix_outside_the_output_directory_is_refused(
            self, tmp_path, capsys, monkeypatch, prefix):
        # such a prefix would put every file outside --out: its config
        # line is refused before any directory is made or any step taken
        def no_run(scenario):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli.driver, "run", no_run)
        cfg = _edited_config(tmp_path, {"output.prefix": prefix})
        out = tmp_path / "o" / "nested"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line ")
        assert "output.prefix" in lines[0] and repr(prefix) in lines[0]
        assert [p.name for p in tmp_path.iterdir()] == ["edited.cfg"]

    def test_missing_config_exits_with_io_code(self, tmp_path, capsys):
        cfg = tmp_path / "missing.cfg"
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(cfg) in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("edits, message", [
        ({"run.duration_periods": "0"}, "duration must be positive"),
        ({"run.duration_periods": "-1"}, "duration must be positive"),
        ({"run.duration_periods": None, "run.duration_s": "0"},
         "duration must be positive"),
        ({"run.duration_periods": None},
         "missing run.duration_periods or run.duration_s"),
    ], ids=["zero-periods", "negative-periods", "zero-seconds", "neither"])
    def test_bad_duration_exits_before_any_file(self, tmp_path, capsys,
                                                edits, message):
        cfg = _edited_config(tmp_path, edits)
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert not out.exists()

    def test_probe_rows_too_large_to_hold_exit_before_any_step(
            self, tmp_path, capsys):
        # numpy refuses the (n_steps + 1, 3, P) shape of this run before it
        # allocates anything
        cfg = _kirchhoff_config(tmp_path, ("run.duration_periods",),
                                ["run.duration_periods = 1e18"])
        steps = driver.step_count(scenario_from_config(
            parse_config(cfg.read_text(encoding="utf-8"))))
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot hold the probe rows")
        assert f" {steps} steps " in lines[0]
        assert not out.exists()

    def test_run_past_the_courant_limit_names_it(self, tmp_path, capsys):
        # trombone's pressure peaks carry max(|u| + c) dt/dx past 1 at
        # cfl 1.0, but not at 0.98
        cfg = tmp_path / "t.cfg"
        assert main(["scenario", "trombone",
                     "--out", str(cfg)]) == EXIT_OK
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--cfl", "0.98",
                     "--out", str(tmp_path / "ok")]) == EXIT_OK
        assert capsys.readouterr().err == ""
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--cfl", "1.0",
                     "--out", str(out)])
        assert code == EXIT_RUNTIME
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: state lost positivity")
        courant = lines[0].split(", Courant number ")[1]
        value, node = courant.rstrip(")").split(" at node ")
        assert float(value) > 1.0 and node == "145"
        assert not out.exists()

    def test_periods_of_a_sampled_inflow_exit_before_any_step(
            self, tmp_path, capsys):
        cfg = self._sampled_config(tmp_path, [0.0, 0.5, 0.0])
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "needs an inflow signal with a period" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_losses_override(self, config_file, tmp_path):
        out_on = tmp_path / "on"
        out_off = tmp_path / "off"
        main(["run", "--config", str(config_file), "--out", str(out_on)])
        main(["run", "--config", str(config_file), "--out", str(out_off),
              "--losses", "off"])
        on_rep = (out_on / "smoke_report.txt").read_text()
        off_rep = (out_off / "smoke_report.txt").read_text()
        assert "losses = on" in on_rep
        assert "losses = off" in off_rep


class TestOracleCharacteristics:
    def test_writes_series_and_spectrum(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        code = main(["oracle-characteristics", "--u0", "10.0",
                     "--freq", "440", "--s", "0.8", "--periods", "2",
                     "--sampling-exponent", "8", "--kmax", "16",
                     "--out", str(out)])
        assert code == EXIT_OK
        header, body = read_csv(out / "oracle_series.csv")
        assert header == ["t_s", "u_mps"]
        assert body.shape[0] == 2 * 256
        header, spec = read_csv(out / "oracle_spectrum.csv")
        # strong distortion at s = 0.8: many harmonics present
        nonzero = (spec[:, 1] > 1e-6 * spec[0, 1]).sum()
        assert nonzero >= 15
        report = (out / "oracle_report.txt").read_text()
        gas = GasModel()
        l_shock = 2.0 * gas.c0 ** 2 / (2.4 * 2.0 * math.pi * 440.0 * 10.0)
        assert f"{l_shock!r}" in report

    def test_at_the_source_the_fundamental_is_the_inflow_amplitude(
            self, tmp_path):
        # at s = 0 the series is the inflow sine itself, and its
        # fundamental, FFT bin 4 of the 4-period window, is exactly 10.0
        out = tmp_path / "oc0"
        assert main(["oracle-characteristics", "--u0", "10", "--freq", "440",
                     "--s", "0", "--out", str(out)]) == EXIT_OK
        rows = (out / "oracle_spectrum.csv").read_text().splitlines()
        assert rows[1] == "1,10.0"

    def test_quiescent_signal_flat_series(self, tmp_path):
        # with u0 = 0 the station is 0 whatever s is: s = 1.5 is no shock
        for s in ("0.5", "1.5"):
            out = tmp_path / f"quiet{s}"
            assert main(["oracle-characteristics", "--u0", "0.0",
                         "--freq", "440", "--s", s, "--periods", "1",
                         "--sampling-exponent", "6", "--kmax", "4",
                         "--out", str(out)]) == EXIT_OK
            _, body = read_csv(out / "oracle_series.csv")
            assert body.shape[0] == 64
            assert np.abs(body[:, 1]).max() == 0.0

    def test_sampling_at_the_floor_of_its_kmax_runs(self, tmp_path):
        # 2^3 samples a period is the 8 K_max floor of --kmax 1, the rule
        # a run applies to run.sampling_exponent and output.kmax
        out = tmp_path / "floor"
        assert main(["oracle-characteristics", "--u0", "10.0",
                     "--freq", "440", "--s", "0.5", "--periods", "2",
                     "--sampling-exponent", "3", "--kmax", "1",
                     "--out", str(out)]) == EXIT_OK
        _, body = read_csv(out / "oracle_series.csv")
        assert body.shape[0] == 2 * 8
        np.testing.assert_allclose(np.diff(body[:, 0]), (1.0 / 440.0) / 8,
                                   rtol=1e-9)
        _, spec = read_csv(out / "oracle_spectrum.csv")
        assert spec.shape[0] == 1

    def test_shock_regime_refused(self, tmp_path, capsys):
        code = main(["oracle-characteristics", "--u0", "10.0",
                     "--freq", "440", "--s", "1.2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert "shock" in capsys.readouterr().err.lower()
        # at 300 m/s the slowest characteristic, c0 - 1.2 u0, runs
        # upstream: refused at any s, before any output
        for s in ("0.5", "0"):
            code = main(["oracle-characteristics", "--u0", "300",
                         "--freq", "440", "--s", s,
                         "--out", str(tmp_path / "fast")])
            assert code == EXIT_RUNTIME
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1
            assert "slowest characteristic speed" in err[0]
            assert "-16.18 m/s" in err[0]
            assert not (tmp_path / "fast").exists()
        # at 280 m/s the characteristics cross at 1/135 of the
        # small-amplitude distance: s = 0.5 is past it
        assert main(["oracle-characteristics", "--u0", "280",
                     "--freq", "440", "--s", "0.5", "--periods", "1",
                     "--out", str(tmp_path / "slow")]) == EXIT_RUNTIME
        assert "first cross" in capsys.readouterr().err
        assert not (tmp_path / "slow").exists()

    @pytest.mark.parametrize("u0, s", [("100", "0.8"), ("285", "0.5"),
                                       ("286", "0.5")])
    def test_station_past_the_first_crossing_is_refused(self, tmp_path,
                                                        capsys, u0, s):
        # 100 m/s crosses at s = 0.781 (exact s 1.024 at 0.8); within
        # 2 m/s of the slowest speed at about s = 0.0008
        assert main(["oracle-characteristics", "--u0", u0,
                     "--freq", "440", "--s", s, "--periods", "1",
                     "--out", str(tmp_path / "oc")]) == EXIT_RUNTIME
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "where its characteristics first cross" in err[0]
        assert not (tmp_path / "oc").exists()


class TestOracleKirchhoff:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "kir"
        assert main(["oracle-kirchhoff", "--freq", "1000", "--h", "0.005",
                     "--xmax", "1.0", "--nx", "5", "--out", str(out)]) == EXIT_OK
        text = (out / "kirchhoff_table.csv").read_text().strip().split("\n")
        assert text[0] == "x_m,alpha_1pm,cprime_mps,amp_ratio,phase_delay_rad"
        rows = [ln.split(",") for ln in text[1:]]
        assert len(rows) == 5    # one row per station
        ratios = [float(r[3]) for r in rows]
        assert ratios[0] == 1.0
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        alpha = float(rows[0][1])
        model = KirchhoffModel(GasModel(), 0.005, CORRECTED)
        assert alpha == pytest.approx(
            kirchhoff_alpha(model, 2.0 * math.pi * 1000.0), rel=1e-12)

    def test_low_frequency_inside_validity_runs(self, tmp_path, capsys):
        # at 1 Hz and h = 5 mm the correction is 0.323, inside the model
        out = tmp_path / "kir"
        assert main(["oracle-kirchhoff", "--freq", "1", "--h", "0.005",
                     "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        _, body = read_csv(out / "kirchhoff_table.csv")
        assert body.shape[0] == 11    # one row per station, 11 by default
        model = KirchhoffModel(GasModel(), 0.005, CORRECTED)
        assert body[0, 1] == kirchhoff_alpha(model, 2.0 * math.pi)

    def test_out_of_validity_exits_with_runtime_code(self, tmp_path, capsys):
        out = tmp_path / "kir"
        assert main(["oracle-kirchhoff", "--freq", "10", "--h", "0.0001",
                     "--out", str(out)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == (
            "error: dispersion correction 5.112 >= 0.5; wide-tube expansion"
            " invalid at this frequency/radius\n")
        assert not out.exists()


_ORACLE_ARGS = {
    "oracle-kirchhoff": {"--freq": "1000", "--h": "0.005"},
    "oracle-characteristics": {"--u0": "10", "--freq": "440", "--s": "0.5"},
}


@pytest.mark.parametrize("command, flag, value", [
    ("oracle-kirchhoff", "--h", "-0.005"),
    ("oracle-kirchhoff", "--freq", "0"),
    ("oracle-kirchhoff", "--nx", "0"),
    ("oracle-kirchhoff", "--xmax", "-1"),
    ("oracle-characteristics", "--freq", "-440"),
    ("oracle-characteristics", "--u0", "-10"),
    ("oracle-characteristics", "--s", "-0.5"),
    ("oracle-characteristics", "--sampling-exponent", "3"),
    # 64 samples/period is under the 160 floor of the default --kmax 20
    ("oracle-characteristics", "--sampling-exponent", "6"),
    # 2^40 samples a period is past the 2^20 ceiling
    ("oracle-characteristics", "--sampling-exponent", "40"),
    ("oracle-characteristics", "--kmax", "0"),
    ("oracle-characteristics", "--periods", "0"),
    ("oracle-kirchhoff", "--xmax", "inf"),
    ("oracle-kirchhoff", "--h", "inf"),
    ("oracle-kirchhoff", "--freq", "inf"),
    ("oracle-characteristics", "--u0", "inf"),
    ("oracle-characteristics", "--freq", "inf"),
    ("oracle-characteristics", "--s", "inf"),
])
def test_bad_oracle_argument_exits_before_any_file(command, flag, value,
                                                   tmp_path, capsys):
    args = dict(_ORACLE_ARGS[command], **{flag: value})
    out = tmp_path / "o"
    argv = [command, *(x for pair in args.items() for x in pair),
            "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


class TestCompare:
    def test_file_against_itself(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        write_csv(path, ["t_s", "u_mps"],
                  [(i * 0.1, math.sin(i)) for i in range(20)])
        assert main(["compare", str(path), str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "l2_rel = 0.0" in out
        assert "max_rel = 0.0" in out

    def test_scaled_copy(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rows = [(i * 0.1, math.sin(i) + 2.0) for i in range(20)]
        write_csv(b, ["t_s", "u_mps"], rows)
        write_csv(a, ["t_s", "u_mps"], [(t, 1.05 * v) for t, v in rows])
        assert main(["compare", str(a), str(b)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "l2_rel = 0.05" in out

    def test_spectrum_ratios(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ["k", "mag_u_mps"], [(1, 2.0), (2, 1.0)])
        write_csv(b, ["k", "mag_u_mps"], [(1, 1.0), (2, 2.0)])
        main(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        assert "harmonic 1: ratio = 2.0" in out
        assert "harmonic 2: ratio = 0.5" in out

    def test_misaligned_tables(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ["t_s", "u_mps"], [(0.0, 1.0)])
        write_csv(b, ["t_s", "u_mps"], [(0.0, 1.0), (0.1, 2.0)])
        assert main(["compare", str(a), str(b)]) == EXIT_CONFIG
        # tables it cannot read: no default second column, or a harmonic
        # index that is not a finite whole number
        for text in ("x\n1\n2\n", "k,mag_u_mps\nnan,1.0\n",
                     "k,mag_u_mps\ninf,1.0\n", "k,mag_u_mps\n1.5,1.0\n"):
            a.write_text(text)
            capsys.readouterr()
            assert main(["compare", str(a), str(a)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"error: {a}: ") and err.count("\n") == 1

    def test_named_column(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        header = ["k", "mag_u_mps", "mag_p_Pa"]
        write_csv(a, header, [(1, 2.0, 3.0), (2, 1.0, 0.0)])
        write_csv(b, header, [(1, 2.0, 4.0), (2, 1.0, 0.0)])
        assert main(["compare", str(a), str(b),
                     "--column", "mag_p_Pa"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "l2_rel = 0.25" in out
        assert "harmonic 1: ratio = 0.75" in out
        assert main(["compare", str(a), str(b),
                     "--column", "nosuch"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: column 'nosuch' not in {header}\n"

    @pytest.mark.parametrize("text, cause", [
        ("t_s,u_mps\n\n", "no data rows"),
        ("", "empty CSV"),
    ], ids=["header-only", "empty"])
    def test_table_without_rows_exits_with_config_code(self, tmp_path,
                                                       capsys, text, cause):
        a = tmp_path / "a.csv"
        a.write_text(text, encoding="utf-8")
        assert main(["compare", str(a), str(a)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {a}: {cause}\n"

    def test_missing_file_exits_with_io_code(self, tmp_path, capsys):
        b = tmp_path / "x.csv"
        write_csv(b, ["t_s", "u_mps"], [(0.0, 1.0)])
        missing = tmp_path / "missing.csv"
        assert main(["compare", str(missing), str(b)]) == EXIT_IO
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and str(missing) in lines[0]

    def test_zero_reference_exits_with_runtime_code(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(a, ["t_s", "u_mps"], [(i * 0.1, 1.0) for i in range(4)])
        write_csv(b, ["t_s", "u_mps"], [(i * 0.1, 0.0) for i in range(4)])
        assert main(["compare", str(a), str(b)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == \
            "error: reference series has zero norm\n"


class TestCsvRoundTrip:
    @pytest.mark.parametrize("text, line, cause", [
        ("\na,b\n\n1,2\n1\n", 5, "row has 1 cells"),
        ("a,b\n1,2\n\n\nx,3\n", 5, "could not convert"),
    ], ids=["short-row", "non-numeric"])
    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path,
                                                        text, line, cause):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=cause) as exc:
            read_csv(path)
        assert exc.value.line_no == line
        assert str(exc.value).startswith(f"line {line}: ")

    def test_floats_survive_read_back_exactly(self, tmp_path):
        path = tmp_path / "rt.csv"
        values = [0.1, 1.0 / 3.0, 1.425310887140203, 2.5e-300, -7.25e18,
                  math.pi]
        write_csv(path, ["a", "b"],
                  [(v, v * 3.0) for v in values])
        _, body = read_csv(path)
        for i, v in enumerate(values):
            assert body[i, 0] == v
            assert body[i, 1] == v * 3.0


def _joined(header, rows) -> bytes:
    """Oracle of a CSV file: the header and every row formatted, joined
    into one string with LF, then encoded."""
    lines = [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvStreaming:
    def test_bytes_equal_the_joined_table(self, tmp_path, rng):
        tables = {
            "series": (["t_s", "rho_kgpm3", "u_mps", "p_Pa"],
                       rng.standard_normal((300, 4)).tolist()),
            # integer harmonic numbers and a -inf level
            "spectrum": (["k", "mag_u_mps", "level_p_rel_db"],
                         [(1, 0.5, 0.0), (2, 1e-300, float("-inf"))]),
            "table": (["label", "x_m"], [("a", 0.0), ("b", 1.0)]),
            "empty": (["a", "b"], []),
        }
        for name, (header, rows) in tables.items():
            path = tmp_path / f"{name}.csv"
            write_csv(path, header, iter(rows))
            assert path.read_bytes() == _joined(header, rows)

    def test_mixed_rows_equal_their_str_join(self, tmp_path):
        # str, int, float and -inf cells, over two whole blocks and a
        # partial one
        n = 2 * csvio._WRITE_BLOCK + 3
        rows = [("b" if i % 2 else "a", i, i / 7.0,
                 float("-inf") if i % 5 == 0 else -i * 1e-300)
                for i in range(n)]
        header = ["label", "k", "x_m", "level_db"]
        path = tmp_path / "mixed.csv"
        write_csv(path, header, iter(rows))
        assert path.read_bytes() == _joined(header, rows)

    def test_ragged_row_refused_before_its_block(self, tmp_path):
        n = 2 * csvio._WRITE_BLOCK + 3
        bad = csvio._WRITE_BLOCK + 5
        rows = [(float(i), i / 3.0) for i in range(n)]
        rows[bad] = (1.0,)
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match=f"row {bad} has 1 cells,"
                                             " header has 2"):
            write_csv(path, ["a", "b"], iter(rows))
        # the block before the bad row's is written, nothing of its own
        assert path.read_bytes() == _joined(
            ["a", "b"], rows[:csvio._WRITE_BLOCK])

    def test_writing_holds_no_copy_of_the_table(self, tmp_path, rng):
        series = rng.standard_normal((50_000, 4))
        path = tmp_path / "series.csv"
        tracemalloc.start()
        try:
            write_csv(path, ["t_s", "rho_kgpm3", "u_mps", "p_Pa"],
                      map(np.ndarray.tolist, series))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4

    def test_reading_holds_the_table_once(self, tmp_path, rng):
        # packed line by line onto one bytearray that the array views:
        # 1.12x the array, the bytearray's growth slack and one line
        series = rng.standard_normal((50_000, 4))
        path = tmp_path / "series.csv"
        write_csv(path, ["t_s", "rho_kgpm3", "u_mps", "p_Pa"],
                  map(np.ndarray.tolist, series))
        tracemalloc.start()
        try:
            header, body = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(body, series)
        assert peak < 1.5 * body.nbytes

    def test_reading_spans_blocks(self, tmp_path):
        # a table across many of the bytearray's growths, a blank line, CRLF
        # endings
        n = 8197
        rows = [(float(i), i / 3.0) for i in range(n)]
        path = tmp_path / "blocks.csv"
        text = "a,b\n\n" + "".join(f"{x!r},{y!r}\r\n" for x, y in rows)
        path.write_bytes(text.encode())
        header, body = read_csv(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(body, np.array(rows))

    def test_series_rows_equal_the_stacked_record(self):
        # several row chunks and a partial one, from a record whose times
        # start off zero
        n = 2 * csvio._WRITE_BLOCK + 7
        data = np.column_stack([np.full(n, 1.2), np.sin(np.arange(n) * 0.1),
                                101325.0 + np.cos(np.arange(n) * 0.1)])
        record = ductwave.ProbeRecord(station_index=3, x=0.1, tau=1.0 / 3.0,
                                      data=data, t_start=0.7)
        stacked = np.column_stack([record.times, record.data]).tolist()
        assert list(cli._series_rows(record)) == stacked

    def test_series_rows_of_a_period_grid_equal_its_stacked_grid(self):
        # rows read _WRITE_BLOCK at a time equal one read of the grid
        n = 3 * csvio._WRITE_BLOCK + 11
        data = np.column_stack([np.full(n, 1.2), np.sin(np.arange(n) * 0.1),
                                101325.0 + np.cos(np.arange(n) * 0.1)])
        native = ductwave.ProbeRecord(station_index=3, x=0.1, tau=0.25,
                                      data=data, t_start=0.7)
        # tau = 0.8 / 2^3 = 0.1, over the 963 whole periods of 0.8 the
        # native rows span
        record = ductwave.PeriodGridRecord(native, 0.8, 3)
        assert record.n_samples % csvio._WRITE_BLOCK != 0
        stacked = np.column_stack(
            [record.times, record.samples(0, record.n_samples)]).tolist()
        assert list(cli._series_rows(record)) == stacked

    def test_series_stream_holds_one_block(self, tmp_path):
        # a 16,385-row period grid, 16 of the writer's blocks and one row,
        # streamed as a run writes it: the rows of one block are built at
        # a time, 350 KiB (rows read 4096 samples at a time peaked at 950)
        n = 16 * 100 + 51
        data = np.column_stack([np.full(n, 1.2), np.sin(np.arange(n) * 0.1),
                                101325.0 + np.cos(np.arange(n) * 0.1)])
        native = ductwave.ProbeRecord(station_index=3, x=0.1, tau=0.01,
                                      data=data)
        record = ductwave.PeriodGridRecord(native, 1.0, 10)
        assert record.n_samples == 16 * csvio._WRITE_BLOCK + 1
        path = tmp_path / "series.csv"
        tracemalloc.start()
        try:
            write_csv(path, ["t_s", "rho_kgpm3", "u_mps", "p_Pa"],
                      cli._series_rows(record))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


# sha256 of each preset's emitted text: the presets are part of the
# deterministic output contract, so their text may not drift
_PRESET_SHA256 = {
    "simple-wave":
        "1d179384d5f1b27278b5dcd6e933e11fcfee6eb0081860395803952d2b0558e1",
    "kirchhoff":
        "28c3c254c5abfba67bb13a016937bbb69a5b1aa09d1932a8ab8c7f687fc01b92",
    "coupled":
        "f133828acd7e1701a14fb74c85d9cdfcc805a44ffefe1f59acda0e33b7d61cb0",
    "trombone":
        "f7996b49fcff47a0e2e241c14c8331d8d175bc2ee893907592d27e1572ba95a9",
}


class TestScenarioCommand:
    @pytest.mark.parametrize("name", ["simple-wave", "kirchhoff", "coupled",
                                      "trombone"])
    def test_emit_config_parses_back(self, name, capsys):
        assert main(["scenario", name]) == EXIT_OK
        text = capsys.readouterr().out
        from ductwave.config import parse_config, scenario_from_config
        scenario_from_config(parse_config(text))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == _PRESET_SHA256[name]

    def test_write_to_file(self, tmp_path):
        target = tmp_path / "preset.cfg"
        assert main(["scenario", "trombone",
                     "--out", str(target)]) == EXIT_OK
        assert "inflow.harmonics" in target.read_text()


def test_package_never_loads_scipy(tmp_path):
    """A fresh interpreter imports the package and runs a lossy preset
    through the CLI without loading scipy (this test process has it)."""
    script = f"""
import sys
import ductwave, ductwave.cli
cfg = {str(tmp_path / "k.cfg")!r}
assert ductwave.cli.main(["scenario", "kirchhoff", "--out", cfg]) == 0
assert ductwave.cli.main(["run", "--config", cfg,
                          "--out", {str(tmp_path / "out")!r}]) == 0
assert "scipy" not in sys.modules, "scipy was imported"
"""
    src = str(Path(ductwave.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "kirchhoff_report.txt").exists()

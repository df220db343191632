"""Command-line interface: exit codes, file outputs, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ductwave

from ductwave.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
)
from ductwave.csvio import read_csv, write_csv
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

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(config_file), "--out", str(out)])
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        main(["run", "--config", str(config_file), "--out", str(out)])
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    # configs emitted before run.truncate was removed still carry that key
    @pytest.mark.parametrize("key, value", [
        ("turbo.boost", "11"),
        ("run.truncate", "unbounded"),
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

    @pytest.mark.parametrize("key, value", [
        ("grid.cells", "2"),
        ("gas.gamma", "0.9"),
        ("geometry.h", "-1.0"),
        ("output.kmax", "0"),
        ("output.spectrum_periods", "-2"),
        ("output.db_reference", "0.0"),
    ])
    def test_invalid_value_exits_with_config_code(self, key, value, tmp_path,
                                                  capsys):
        lines = [ln for ln in SMALL_CONFIG.splitlines()
                 if not ln.startswith(key + " ")]
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n",
                       encoding="utf-8")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

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

    def _sampled_config(self, tmp_path, values, **edits):
        samples = tmp_path / "u.csv"
        write_csv(samples, ["t_s", "u_mps"],
                  [(i * 1e-3, v) for i, v in enumerate(values)])
        return _edited_config(tmp_path, {
            "inflow.shape": "samples", "inflow.samples_file": samples,
            "inflow.amplitude": None, "inflow.frequency_hz": None,
            **edits})

    @pytest.mark.filterwarnings("ignore:effective Courant")
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
        assert "node 0:" in err and "(step 1, t = " in err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:effective Courant")
    def test_non_positive_imposed_pressure_exits_with_runtime_code(
            self, tmp_path, capsys):
        cfg = _edited_config(tmp_path, {"inflow.kind": "pressure",
                                        "inflow.amplitude": "-300000.0"})
        out = tmp_path / "o" / "nested"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("error: imposed pressure must be positive")
        assert "node 0:" in err and "t/T0 = 0." in err
        # neither the output directory nor the parent made for it is left
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore:effective Courant")
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

    def test_courant_warning_is_one_line(self, tmp_path, capsys):
        # a 30 m/s velocity peak stretches cfl 0.99 past 1
        cfg = _edited_config(tmp_path, {"inflow.amplitude": "30.0",
                                        "run.cfl": "0.99",
                                        "run.duration_periods": "1.0",
                                        "output.spectrum_periods": "1"})
        code = main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "o")])
        assert code == EXIT_OK
        stretch = 1.0 + 0.5 * 2.4 * 30.0 / GasModel().c0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: effective Courant number may reach {0.99 * stretch:.3f}"
            " at the signal peak; reduce cfl"]

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

    def test_quiescent_signal_flat_series(self, tmp_path):
        out = tmp_path / "quiet"
        assert main(["oracle-characteristics", "--u0", "0.0", "--freq", "440",
                     "--s", "0.5", "--periods", "1",
                     "--sampling-exponent", "6", "--kmax", "4",
                     "--out", str(out)]) == EXIT_OK
        _, body = read_csv(out / "oracle_series.csv")
        assert np.abs(body[:, 1]).max() == 0.0

    def test_shock_regime_refused(self, tmp_path, capsys):
        code = main(["oracle-characteristics", "--u0", "10.0",
                     "--freq", "440", "--s", "1.2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_RUNTIME
        assert "shock" in capsys.readouterr().err.lower()


class TestOracleKirchhoff:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "kir"
        assert main(["oracle-kirchhoff", "--freq", "1000", "--h", "0.005",
                     "--xmax", "1.0", "--nx", "5", "--out", str(out)]) == EXIT_OK
        text = (out / "kirchhoff_table.csv").read_text().strip().split("\n")
        assert text[0] == "mode,x_m,alpha_1pm,cprime_mps,amp_ratio,phase_delay_rad"
        rows = [ln.split(",") for ln in text[1:]]
        assert len(rows) == 10    # both modes, 5 stations each
        corrected = [r for r in rows if r[0] == "corrected"]
        ratios = [float(r[4]) for r in corrected]
        assert ratios[0] == 1.0
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        alpha = float(corrected[0][2])
        model = KirchhoffModel(GasModel(), 0.005, CORRECTED)
        assert alpha == pytest.approx(
            kirchhoff_alpha(model, 2.0 * math.pi * 1000.0), rel=1e-12)


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
    ("oracle-characteristics", "--kmax", "0"),
    ("oracle-characteristics", "--periods", "0"),
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


class TestCsvRoundTrip:
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


class TestScenarioCommand:
    @pytest.mark.parametrize("name", ["simple-wave", "kirchhoff", "coupled",
                                      "trombone"])
    def test_emit_config_parses_back(self, name, capsys):
        assert main(["scenario", name, "--emit-config"]) == EXIT_OK
        text = capsys.readouterr().out
        from ductwave.config import parse_config, scenario_from_config
        scenario_from_config(parse_config(text))

    def test_write_to_file(self, tmp_path):
        target = tmp_path / "preset.cfg"
        assert main(["scenario", "trombone", "--emit-config",
                     "--out", str(target)]) == EXIT_OK
        assert "inflow.harmonics" in target.read_text()


def test_package_never_loads_scipy(tmp_path):
    """A fresh interpreter imports the package and runs a lossy preset
    through the CLI without loading scipy (this test process has it)."""
    script = f"""
import sys
import ductwave, ductwave.cli
cfg = {str(tmp_path / "k.cfg")!r}
assert ductwave.cli.main(["scenario", "kirchhoff", "--emit-config",
                          "--out", cfg]) == 0
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

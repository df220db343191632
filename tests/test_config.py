"""Configuration documents, round trips, and the built-in presets."""

import math
from dataclasses import fields

import pytest

from ductwave.config import (
    ConfigDocument,
    builtin_scenarios,
    parse_config,
    scenario_from_config,
    serialize_config,
)
from ductwave.csvio import write_csv
from ductwave.driver import Scenario
from ductwave.errors import ConfigError
from ductwave.signals import MultiHarmonicSignal, SampledSignal

MINIMAL = """
# minimal runnable document
grid.length = 1.0
grid.cells = 50
geometry.h = 0.005
geometry.symmetry = axisymmetric
inflow.kind = velocity
inflow.shape = sine
inflow.amplitude = 0.5
inflow.frequency_hz = 440.0
run.losses = on
run.duration_periods = 2.0
"""


class TestParsing:
    def test_minimal_document(self):
        doc = parse_config(MINIMAL)
        assert doc.get("grid.cells") == 50
        assert doc.get("run.losses") is True
        assert doc.get("geometry.symmetry") == "axisymmetric"

    def test_comments_and_blanks_ignored(self):
        doc = parse_config("# only a comment\n\n   \ngrid.length = 2.0 # inline\n")
        assert doc.get("grid.length") == 2.0

    def test_unknown_key_reports_line(self):
        text = "grid.length = 1.0\ngrid.wibble = 3\n"
        with pytest.raises(ConfigError, match="line 2.*wibble"):
            parse_config(text)

    def test_duplicate_key_reports_line(self):
        text = "grid.length = 1.0\ngrid.length = 2.0\n"
        with pytest.raises(ConfigError, match="line 2.*duplicate"):
            parse_config(text)

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("grid.cells = many\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("run.losses = maybe\n")

    @pytest.mark.parametrize("line", [
        "gas.gamma = nan",
        "grid.length = inf",
        "probes.stations = 0.1, -inf",
        "inflow.harmonics = 1:100.0:0.0, 2:nan:0.0",
        "inflow.harmonics = 1:100.0:inf",
    ])
    def test_non_finite_number_reports_line(self, line):
        with pytest.raises(ConfigError, match="line 2.*must be finite"):
            parse_config("grid.cells = 50\n" + line + "\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("grid.length 1.0\n")

    def test_harmonics_parsing(self):
        doc = parse_config(
            "inflow.harmonics = 1:100.0:0.0, 2:50.0:1.5708\n")
        assert doc.get("inflow.harmonics") == ((1, 100.0, 0.0),
                                               (2, 50.0, 1.5708))
        with pytest.raises(ConfigError):
            parse_config("inflow.harmonics = 1:100.0\n")


class TestRoundTrip:
    def test_parse_serialize_is_identity(self):
        doc = parse_config(MINIMAL)
        text = serialize_config(doc)
        again = parse_config(text)
        assert again.values == doc.values
        # canonical form is a fixed point of serialize . parse
        assert serialize_config(again) == text

    def test_presets_round_trip(self):
        for name, doc in builtin_scenarios().items():
            text = serialize_config(doc)
            again = parse_config(text)
            assert again.values == doc.values, name

    def test_full_precision_floats_survive(self):
        doc = ConfigDocument({"grid.length": 1.425310887140203,
                              "grid.cells": 397})
        again = parse_config(serialize_config(doc))
        assert again.get("grid.length") == 1.425310887140203

    @pytest.mark.parametrize("key, value", [
        ("output.prefix", "take#2"),
        ("output.prefix", " a"),
        ("output.prefix", "a\nrun.cfl = 0.5"),
        ("output.prefix", "/abs/k"),
        ("output.prefix", "sub/../../k"),
        ("inflow.samples_file", "in.csv "),
        ("grid.length", math.inf),
        ("grid.cells", 40.5),
    ])
    def test_value_that_does_not_parse_back_is_refused(self, key, value):
        doc = ConfigDocument({key: value})
        with pytest.raises(ConfigError, match=key):
            serialize_config(doc)

    def test_strings_that_parse_back_are_kept(self):
        doc = ConfigDocument({"output.prefix": "take 2",
                              "inflow.samples_file": "runs/a=b.csv"})
        assert parse_config(serialize_config(doc)).values == doc.values


class TestScenarioConstruction:
    def test_minimal_scenario(self):
        sc = scenario_from_config(parse_config(MINIMAL))
        assert sc.grid.cells == 50
        assert sc.geom.beta == 2
        # a sine is the one-component sum of harmonics
        assert isinstance(sc.inflow, MultiHarmonicSignal)
        assert sc.inflow.components == ((1, 0.5, 0.0),)
        assert sc.inflow.omega0 == pytest.approx(2.0 * math.pi * 440.0,
                                                 rel=1e-12)
        assert sc.probes == (1.0,)    # defaults to the outlet
        # omitted run keys take the Scenario's field defaults
        defaults = {f.name: f.default for f in fields(Scenario)}
        assert sc.cfl == defaults["cfl"]
        assert sc.sampling_exponent == defaults["sampling_exponent"]

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="grid.cells"):
            scenario_from_config(parse_config("grid.length = 1.0\n"))

    def test_duration_exclusivity(self):
        text = MINIMAL + "run.duration_s = 0.1\n"
        with pytest.raises(ConfigError, match="not both"):
            scenario_from_config(parse_config(text))

    def test_overrides(self):
        doc = parse_config(MINIMAL)
        over = doc.with_overrides(**{"run.losses": False, "run.cfl": 0.5})
        sc = scenario_from_config(over)
        assert sc.losses is False
        assert sc.cfl == 0.5

    @staticmethod
    def _sampled(tmp_path, rows):
        """MINIMAL run for 1 ms on the table `rows` of (t_s, u_mps)."""
        path = tmp_path / "u.csv"
        write_csv(path, ["t_s", "u_mps"], rows)
        lines = [ln for ln in MINIMAL.splitlines()
                 if not ln.startswith(("inflow.", "run.duration_periods"))]
        return "\n".join(lines + [
            "inflow.kind = velocity", "inflow.shape = samples",
            f"inflow.samples_file = {path}", "run.duration_s = 1e-3"]) + "\n"

    def test_samples_file_read_without_the_cli(self, tmp_path):
        values = [0.5 * math.sin(0.3 * i) for i in range(21)]
        text = self._sampled(tmp_path,
                             [(i * 1e-4, v) for i, v in enumerate(values)])
        sc = scenario_from_config(parse_config(text))
        assert isinstance(sc.inflow, SampledSignal)
        assert sc.inflow.dtau == 1e-4
        assert sc.inflow.values == tuple(values)

    def test_one_sample_is_refused_as_too_few(self, tmp_path):
        text = self._sampled(tmp_path, [(0.0, 0.5)])
        with pytest.raises(ConfigError,
                           match=r"u\.csv: need at least two samples, got 1$"):
            scenario_from_config(parse_config(text))


class TestPresets:
    def test_four_presets_exist(self):
        assert sorted(builtin_scenarios()) == [
            "coupled", "kirchhoff", "simple-wave", "trombone"]

    def test_all_presets_build_scenarios(self):
        for name, doc in builtin_scenarios().items():
            sc = scenario_from_config(doc)
            assert sc.duration > 0.0, name

    def test_trombone_geometry(self):
        sc = scenario_from_config(builtin_scenarios()["trombone"])
        assert sc.grid.length == 1.5
        assert sc.geom.h == 0.007
        assert sc.geom.beta == 2
        assert isinstance(sc.inflow, MultiHarmonicSignal)
        assert len(sc.inflow.components) == 4

    def test_kirchhoff_preset_is_acoustic(self):
        sc = scenario_from_config(builtin_scenarios()["kirchhoff"])
        assert sc.inflow.peak() / sc.gas.c0 <= 1e-4
        assert sc.losses is True

    def test_simple_wave_station_scaled_abscissa(self):
        from ductwave.oracles import shock_distance
        sc = scenario_from_config(builtin_scenarios()["simple-wave"])
        l_shock = shock_distance(sc.inflow.peak(), sc.inflow.omega0, sc.gas)
        assert sc.grid.length / l_shock == pytest.approx(0.8, abs=1e-6)
        assert sc.losses is False

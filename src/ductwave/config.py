"""Plain-text configuration documents and the built-in scenario presets.

Format: one `section.key = value` assignment per line, `#` comments,
blank lines ignored. Every key is declared in a registry with its type;
unknown keys are rejected with the offending line number, as are
duplicates and non-finite numbers. Serialization is canonical (registry
order, repr floats) and refuses a value its text would not give back, so
parse and serialize are mutual inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import PurePath

import numpy as np

from . import analysis, driver, oracles, scheme
from .csvio import read_csv
from .errors import ConfigError
from .gas import GasModel
from .signals import MultiHarmonicSignal, SampledSignal

DEFAULT_KMAX = 15   # harmonics in the spectrum outputs


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"must be finite, got {v!r}")
    return v


def _parse_positive_int(s: str) -> int:
    v = int(s)
    if v < 1:
        raise ValueError(f"must be at least 1, got {v}")
    return v


def _parse_choice(*options):
    def parse(s: str):
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s
    return parse


def _parse_onoff(s: str) -> bool:
    if s == "on":
        return True
    if s == "off":
        return False
    raise ValueError(f"expected on/off, got {s!r}")


def _parse_floats(s: str) -> tuple[float, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(_parse_float(p) for p in parts)


def _parse_harmonics(s: str) -> tuple[tuple[int, float, float], ...]:
    """Triplets `k:amplitude:phase` separated by commas."""
    out = []
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ValueError(f"harmonic {part!r} is not k:amplitude:phase")
        out.append((int(bits[0]), _parse_float(bits[1]),
                    _parse_float(bits[2])))
    if not out:
        raise ValueError("empty harmonic list")
    return tuple(out)


def _parse_prefix(s: str) -> str:
    """A prefix that names its files inside the output directory: a
    relative path with no '..' part."""
    path = PurePath(s)
    if path.is_absolute() or ".." in path.parts:
        raise ValueError(
            f"must be a relative path with no '..' part, got {s!r}")
    return s


def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_onoff(v) -> str:
    return "on" if v else "off"


def _fmt_floats(v) -> str:
    return ", ".join(repr(float(x)) for x in v)


def _fmt_harmonics(v) -> str:
    return ", ".join(f"{k}:{repr(float(a))}:{repr(float(p))}" for k, a, p in v)


# Registry: canonical order, parser, serializer.
KEY_SPECS = {
    "gas.gamma": (_parse_float, _fmt_float),
    "gas.mu": (_parse_float, _fmt_float),
    "gas.k": (_parse_float, _fmt_float),
    "gas.cp": (_parse_float, _fmt_float),
    "gas.rho0": (_parse_float, _fmt_float),
    "gas.p0": (_parse_float, _fmt_float),
    "grid.length": (_parse_float, _fmt_float),
    "grid.cells": (int, str),
    "geometry.h": (_parse_float, _fmt_float),
    "geometry.symmetry": (_parse_choice("plane", "axisymmetric"), str),
    "inflow.kind": (_parse_choice("pressure", "velocity"), str),
    "inflow.shape": (_parse_choice("sine", "multiharmonic", "samples"), str),
    "inflow.amplitude": (_parse_float, _fmt_float),
    "inflow.frequency_hz": (_parse_float, _fmt_float),
    "inflow.harmonics": (_parse_harmonics, _fmt_harmonics),
    "inflow.samples_file": (str, str),
    "run.losses": (_parse_onoff, _fmt_onoff),
    "run.cfl": (_parse_float, _fmt_float),
    "run.duration_periods": (_parse_float, _fmt_float),
    "run.duration_s": (_parse_float, _fmt_float),
    "run.sampling_exponent": (int, str),
    "probes.stations": (_parse_floats, _fmt_floats),
    "output.prefix": (_parse_prefix, str),
    "output.spectrum_periods": (_parse_positive_int, str),
    "output.kmax": (_parse_positive_int, str),
}


@dataclass
class ConfigDocument:
    """Typed key-value configuration with canonical serialization."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.values:
            if key not in KEY_SPECS:
                raise ConfigError(f"unknown key {key!r}")

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"missing required key {key!r}")
        return self.values[key]

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def with_overrides(self, **pairs) -> "ConfigDocument":
        vals = dict(self.values)
        vals.update({k: v for k, v in pairs.items() if v is not None})
        return ConfigDocument(vals)


def parse_config(text: str) -> ConfigDocument:
    """Parse a config document, rejecting unknown or duplicate keys."""
    values = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}",
                              line_no=line_no)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown key {key!r}", line_no=line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no=line_no)
        parser, _ = KEY_SPECS[key]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}",
                              line_no=line_no) from None
    return ConfigDocument(values)


def serialize_config(doc: ConfigDocument) -> str:
    """Canonical text form: registry order, one assignment per line. Each
    line is parsed back, and a value it does not reproduce (a string with
    a '#', a line break or edge whitespace, a non-finite number, a float
    in an integer key) is a ConfigError naming its key."""
    lines = []
    for key, (_, fmt) in KEY_SPECS.items():
        if key in doc.values:
            value = doc.values[key]
            line = f"{key} = {fmt(value)}"
            try:
                same = parse_config(line).values == {key: value}
            except ConfigError:
                same = False
            if not same:
                raise ConfigError(
                    f"{key} = {value!r} would not parse back from its text")
            lines.append(line)
    return "\n".join(lines) + "\n"


# the inflow keys each shape reads; a key another shape reads is refused
_SHAPE_KEYS = {
    "sine": ("inflow.amplitude", "inflow.frequency_hz"),
    "multiharmonic": ("inflow.harmonics", "inflow.frequency_hz"),
    "samples": ("inflow.samples_file",),
}


def _load_samples(path) -> SampledSignal:
    """The tabulated inflow of a CSV file whose first two columns are
    (t_s, value): at least two finite samples, at uniform times from 0."""
    _, body = read_csv(path)
    if body.shape[1] < 2:
        raise ConfigError(f"{path}: need two columns (t_s, value)")
    if body.shape[0] < 2:
        raise ConfigError(f"{path}: need at least two samples,"
                          f" got {body.shape[0]}")
    if not np.isfinite(body[:, :2]).all():
        raise ConfigError(f"{path}: sample times and values must be finite")
    t = body[:, 0]
    dta = np.diff(t)
    if not np.allclose(dta, dta[0], rtol=1e-9, atol=0.0):
        raise ConfigError(f"{path}: sample times must be uniform")
    if abs(t[0]) > 1e-9 * abs(dta[0]):
        raise ConfigError(
            f"{path}: sample times must start at t = 0, got {float(t[0])!r}")
    return SampledSignal(dtau=float(dta[0]),
                         values=tuple(float(v) for v in body[:, 1]))


def _build_signal(doc: ConfigDocument):
    shape = doc.require("inflow.shape")
    for key in ("inflow.amplitude", "inflow.frequency_hz",
                "inflow.harmonics", "inflow.samples_file"):
        if key in doc and key not in _SHAPE_KEYS[shape]:
            raise ConfigError(f"{key} is not read by inflow.shape = {shape}")
    if shape == "samples":
        return _load_samples(doc.require("inflow.samples_file"))
    if shape == "sine":
        comps = ((1, doc.require("inflow.amplitude"), 0.0),)
    else:
        comps = doc.require("inflow.harmonics")
    freq = doc.require("inflow.frequency_hz")
    return MultiHarmonicSignal(omega0=math.tau * freq, components=comps)


def _gas_key(name: str) -> str:
    """Config key of a GasModel field (the conductivity k_cond is gas.k)."""
    return "gas.k" if name == "k_cond" else f"gas.{name}"


def scenario_from_config(doc: ConfigDocument) -> driver.Scenario:
    """Assemble a Scenario, applying defaults for omitted optional keys.

    inflow.samples_file is read here, as a CSV of (t_s, value) rows; a
    table that ends before the run's last step is refused.
    """
    try:
        gas = GasModel(**{f.name: doc.get(_gas_key(f.name))
                          for f in fields(GasModel) if _gas_key(f.name) in doc})
        grid = scheme.Grid(length=doc.require("grid.length"),
                           cells=doc.require("grid.cells"))
        geom = scheme.DuctGeometry(h=doc.require("geometry.h"),
                                   symmetry=doc.get("geometry.symmetry",
                                                    "plane"))
        if "run.duration_periods" in doc and "run.duration_s" in doc:
            raise ConfigError("give run.duration_periods or run.duration_s,"
                              " not both")
        if "run.duration_periods" not in doc and "run.duration_s" not in doc:
            raise ConfigError("missing run.duration_periods or run.duration_s")
        scenario = driver.Scenario(
            gas=gas, grid=grid, geom=geom,
            inflow_kind=doc.require("inflow.kind"),
            inflow=_build_signal(doc),
            losses=doc.require("run.losses"),
            duration_s=doc.get("run.duration_s"),
            duration_periods=doc.get("run.duration_periods"),
            probes=doc.get("probes.stations", (grid.length,)),
            # omitted, these take the Scenario's defaults
            **{name: doc.get(f"run.{name}")
               for name in ("cfl", "sampling_exponent")
               if f"run.{name}" in doc},
        )
        if scenario.fundamental_period is not None:
            # the spectrum outputs read output.kmax harmonics of the grid
            analysis.check_sampling_exponent(
                scenario.sampling_exponent,
                doc.get("output.kmax", DEFAULT_KMAX))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario


# ---------------------------------------------------------------------------
# Built-in presets mirroring the four validation experiments. The
# simple-wave length puts the outlet probe at s = 0.8 of the
# shock-formation distance for a 20 m/s, 440 Hz inflow.
# ---------------------------------------------------------------------------

_GAS_DEFAULTS = {_gas_key(f.name): f.default for f in fields(GasModel)}

_SIMPLE_WAVE_LENGTH = 0.8 * oracles.shock_distance(20.0, math.tau * 440.0,
                                                    GasModel())


def builtin_scenarios() -> dict[str, ConfigDocument]:
    """The four named presets, as full configuration documents: each is
    the keys it changes on top of a shared base (coupled: of simple-wave)."""
    base = {
        **_GAS_DEFAULTS,
        "geometry.h": 0.007,
        "geometry.symmetry": "axisymmetric",
        "inflow.kind": "velocity",
        "inflow.shape": "sine",
        "run.losses": True,
        "run.duration_periods": 9.0,
        "run.sampling_exponent": 10,
        "output.spectrum_periods": 4,
    }
    simple_wave = {
        **base,
        "grid.length": _SIMPLE_WAVE_LENGTH,
        "grid.cells": 397,
        "inflow.amplitude": 20.0,
        "inflow.frequency_hz": 440.0,
        "run.losses": False,
        "run.cfl": 0.85,
        "probes.stations": (_SIMPLE_WAVE_LENGTH,),
        "output.prefix": "simple_wave",
        "output.kmax": 15,
    }
    kirchhoff = {
        **base,
        "grid.length": 1.0,
        "grid.cells": 73,
        "geometry.h": 0.005,
        "inflow.amplitude": 0.02,
        "inflow.frequency_hz": 1000.0,
        "run.cfl": 0.8,
        "probes.stations": (0.25, 0.85),
        "output.prefix": "kirchhoff",
        "output.kmax": 3,
    }
    # the simple wave with wall losses, on a coarser grid
    coupled = {
        **simple_wave,
        "grid.cells": 186,
        "run.losses": True,
        "output.prefix": "coupled",
    }
    trombone = {
        **base,
        "grid.length": 1.5,
        "grid.cells": 180,
        "inflow.kind": "pressure",
        "inflow.shape": "multiharmonic",
        "inflow.frequency_hz": 220.0,
        "inflow.harmonics": (
            (1, 3000.0, 0.0),
            (2, 1200.0, 0.0),
            (3, 600.0, 0.0),
            (4, 300.0, 0.0),
        ),
        "run.cfl": 0.75,
        "run.duration_periods": 8.0,
        "probes.stations": (1.5,),
        "output.prefix": "trombone",
        "output.kmax": 12,
    }
    return {
        "simple-wave": ConfigDocument(simple_wave),
        "kirchhoff": ConfigDocument(kirchhoff),
        "coupled": ConfigDocument(coupled),
        "trombone": ConfigDocument(trombone),
    }

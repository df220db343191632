"""Plain-text configuration documents and the built-in scenario presets.

Format: one `section.key = value` assignment per line, `#` comments,
blank lines ignored. Every key is declared in a registry with its type;
unknown keys are rejected with the offending line number, as are
duplicates. Serialization is canonical (registry order, repr floats), so
parse and serialize are mutual inverses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from . import driver, scheme, wall
from .errors import ConfigError
from .gas import GasModel
from .signals import MultiHarmonicSignal, SampledSignal, SineSignal

TWO_PI = 6.283185307179586476925287


def _parse_float(s: str) -> float:
    return float(s)


def _parse_int(s: str) -> int:
    v = int(s)
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
    return tuple(float(p) for p in parts)


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
        out.append((int(bits[0]), float(bits[1]), float(bits[2])))
    if not out:
        raise ValueError("empty harmonic list")
    return tuple(out)


def _parse_truncate(s: str):
    if s == "unbounded":
        return None
    v = int(s)
    if v < 0:
        raise ValueError("truncation must be non-negative or 'unbounded'")
    return v


def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_str(v) -> str:
    return str(v)


def _fmt_onoff(v) -> str:
    return "on" if v else "off"


def _fmt_floats(v) -> str:
    return ", ".join(repr(float(x)) for x in v)


def _fmt_harmonics(v) -> str:
    return ", ".join(f"{k}:{repr(float(a))}:{repr(float(p))}" for k, a, p in v)


def _fmt_truncate(v) -> str:
    return "unbounded" if v is None else str(v)


# Registry: canonical order, parser, serializer.
KEY_SPECS = {
    "gas.gamma": (_parse_float, _fmt_float),
    "gas.mu": (_parse_float, _fmt_float),
    "gas.k": (_parse_float, _fmt_float),
    "gas.cp": (_parse_float, _fmt_float),
    "gas.rho0": (_parse_float, _fmt_float),
    "gas.p0": (_parse_float, _fmt_float),
    "gas.theta0": (_parse_float, _fmt_float),
    "grid.length": (_parse_float, _fmt_float),
    "grid.cells": (_parse_int, str),
    "geometry.h": (_parse_float, _fmt_float),
    "geometry.symmetry": (_parse_choice("plane", "axisymmetric"), _fmt_str),
    "inflow.kind": (_parse_choice("pressure", "velocity"), _fmt_str),
    "inflow.shape": (_parse_choice("sine", "multiharmonic", "samples"), _fmt_str),
    "inflow.amplitude": (_parse_float, _fmt_float),
    "inflow.frequency_hz": (_parse_float, _fmt_float),
    "inflow.harmonics": (_parse_harmonics, _fmt_harmonics),
    "inflow.samples_file": (str, _fmt_str),
    "run.losses": (_parse_onoff, _fmt_onoff),
    "run.cfl": (_parse_float, _fmt_float),
    "run.duration_periods": (_parse_float, _fmt_float),
    "run.duration_s": (_parse_float, _fmt_float),
    "run.kernel_mode": (_parse_choice("consistent", "as-printed"), _fmt_str),
    "run.truncate": (_parse_truncate, _fmt_truncate),
    "run.sampling_exponent": (_parse_int, str),
    "probes.stations": (_parse_floats, _fmt_floats),
    "output.prefix": (str, _fmt_str),
    "output.spectrum_periods": (_parse_int, str),
    "output.kmax": (_parse_positive_int, str),
    "output.db_reference": (_parse_float, _fmt_float),
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
    """Canonical text form: registry order, one assignment per line."""
    lines = []
    for key, (_, fmt) in KEY_SPECS.items():
        if key in doc.values:
            lines.append(f"{key} = {fmt(doc.values[key])}")
    return "\n".join(lines) + "\n"


def _build_signal(doc: ConfigDocument, samples_loader=None):
    shape = doc.require("inflow.shape")
    if shape == "sine":
        amp = doc.require("inflow.amplitude")
        freq = doc.require("inflow.frequency_hz")
        return SineSignal(amplitude=amp, omega0=TWO_PI * freq)
    if shape == "multiharmonic":
        freq = doc.require("inflow.frequency_hz")
        comps = doc.require("inflow.harmonics")
        return MultiHarmonicSignal(omega0=TWO_PI * freq, components=comps)
    path = doc.require("inflow.samples_file")
    if samples_loader is None:
        raise ConfigError("a samples loader is required for inflow.shape ="
                          " samples")
    dtau, values = samples_loader(path)
    return SampledSignal(dtau=dtau, values=tuple(values))


def _gas_key(name: str) -> str:
    """Config key of a GasModel field (the conductivity k_cond is gas.k)."""
    return "gas.k" if name == "k_cond" else f"gas.{name}"


def scenario_from_config(doc: ConfigDocument,
                         samples_loader=None) -> driver.Scenario:
    """Assemble a Scenario, applying defaults for omitted optional keys.

    samples_loader(path) -> (dtau, values) supplies tabulated inflow
    signals; the CLI wires it to a two-column CSV reader.
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
        return driver.Scenario(
            gas=gas, grid=grid, geom=geom,
            inflow_kind=doc.require("inflow.kind"),
            inflow=_build_signal(doc, samples_loader),
            losses=doc.require("run.losses"),
            cfl=doc.get("run.cfl", 0.8),
            duration_s=doc.get("run.duration_s"),
            duration_periods=doc.get("run.duration_periods"),
            probes=doc.get("probes.stations", (grid.length,)),
            sampling_exponent=doc.get("run.sampling_exponent", 10),
            kernel_mode=doc.get("run.kernel_mode", wall.CONSISTENT),
            m_max=doc.get("run.truncate"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Built-in presets mirroring the four validation experiments. The
# simple-wave length puts the outlet probe at s = 0.8 of the
# shock-formation distance for a 20 m/s, 440 Hz inflow.
# ---------------------------------------------------------------------------

_GAS_DEFAULTS = {_gas_key(f.name): f.default for f in fields(GasModel)}

_SIMPLE_WAVE_LENGTH = 1.425310887140203   # 0.8 * L_shock(20 m/s, 440 Hz)


def builtin_scenarios() -> dict[str, ConfigDocument]:
    """The four named presets, as full configuration documents."""
    simple_wave = ConfigDocument({
        **_GAS_DEFAULTS,
        "grid.length": _SIMPLE_WAVE_LENGTH,
        "grid.cells": 397,
        "geometry.h": 0.007,
        "geometry.symmetry": "axisymmetric",
        "inflow.kind": "velocity",
        "inflow.shape": "sine",
        "inflow.amplitude": 20.0,
        "inflow.frequency_hz": 440.0,
        "run.losses": False,
        "run.cfl": 0.85,
        "run.duration_periods": 9.0,
        "run.kernel_mode": "consistent",
        "run.truncate": None,
        "run.sampling_exponent": 10,
        "probes.stations": (_SIMPLE_WAVE_LENGTH,),
        "output.prefix": "simple_wave",
        "output.spectrum_periods": 4,
        "output.kmax": 15,
    })
    kirchhoff = ConfigDocument({
        **_GAS_DEFAULTS,
        "grid.length": 1.0,
        "grid.cells": 73,
        "geometry.h": 0.005,
        "geometry.symmetry": "axisymmetric",
        "inflow.kind": "velocity",
        "inflow.shape": "sine",
        "inflow.amplitude": 0.02,
        "inflow.frequency_hz": 1000.0,
        "run.losses": True,
        "run.cfl": 0.8,
        "run.duration_periods": 9.0,
        "run.kernel_mode": "consistent",
        "run.truncate": None,
        "run.sampling_exponent": 10,
        "probes.stations": (0.25, 0.85),
        "output.prefix": "kirchhoff",
        "output.spectrum_periods": 4,
        "output.kmax": 3,
    })
    coupled = ConfigDocument({
        **_GAS_DEFAULTS,
        "grid.length": _SIMPLE_WAVE_LENGTH,
        "grid.cells": 186,
        "geometry.h": 0.007,
        "geometry.symmetry": "axisymmetric",
        "inflow.kind": "velocity",
        "inflow.shape": "sine",
        "inflow.amplitude": 20.0,
        "inflow.frequency_hz": 440.0,
        "run.losses": True,
        "run.cfl": 0.85,
        "run.duration_periods": 9.0,
        "run.kernel_mode": "consistent",
        "run.truncate": None,
        "run.sampling_exponent": 10,
        "probes.stations": (_SIMPLE_WAVE_LENGTH,),
        "output.prefix": "coupled",
        "output.spectrum_periods": 4,
        "output.kmax": 15,
    })
    trombone = ConfigDocument({
        **_GAS_DEFAULTS,
        "grid.length": 1.5,
        "grid.cells": 180,
        "geometry.h": 0.007,
        "geometry.symmetry": "axisymmetric",
        "inflow.kind": "pressure",
        "inflow.shape": "multiharmonic",
        "inflow.frequency_hz": 220.0,
        "inflow.harmonics": (
            (1, 3000.0, 0.0),
            (2, 1200.0, 0.0),
            (3, 600.0, 0.0),
            (4, 300.0, 0.0),
        ),
        "run.losses": True,
        "run.cfl": 0.75,
        "run.duration_periods": 8.0,
        "run.kernel_mode": "consistent",
        "run.truncate": None,
        "run.sampling_exponent": 10,
        "probes.stations": (1.5,),
        "output.prefix": "trombone",
        "output.spectrum_periods": 4,
        "output.kmax": 12,
    })
    return {
        "simple-wave": simple_wave,
        "kirchhoff": kirchhoff,
        "coupled": coupled,
        "trombone": trombone,
    }

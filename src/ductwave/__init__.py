"""Nonlinear acoustic wave propagation in thin ducts with wall losses.

A quasi-1D Euler solver (one-step second-order Taylor scheme) coupled to
a linear visco-thermal boundary layer through memory-kernel wall sources,
with characteristic inflow/outflow boundaries, closed-form validation
references (exact simple waves, wide-tube dispersion), spectral
post-processing, and a scenario-driven CLI.
"""

from .analysis import (
    PeriodGridRecord,
    ProbeRecord,
    SpectrumResult,
    harmonic_spectrum,
    level_db,
    relative_error,
)
from .boundaries import boundary_row
from .driver import RunReport, RunResult, Scenario, Simulation, run
from .errors import ConfigError, DuctwaveError
from .gas import (
    GasModel,
    conserved_array,
    primitive_arrays,
    primitive_from_characteristics,
)
from .oracles import (
    KirchhoffModel,
    SimpleWaveProblem,
    kirchhoff_alpha,
    kirchhoff_phase_speed,
    kirchhoff_propagate,
    shock_distance,
)
from .scheme import (
    DuctGeometry,
    Grid,
    Level,
    lax_wendroff_update,
)
from .signals import MultiHarmonicSignal, SampledSignal
from .wall import PressureHistory, kernel_weights

__version__ = "0.1.0"

"""Nonlinear acoustic wave propagation in thin ducts with wall losses.

A quasi-1D Euler solver (one-step second-order Taylor scheme) coupled to
a linear visco-thermal boundary layer through memory-kernel wall sources,
with characteristic inflow/outflow boundaries, closed-form validation
references (exact simple waves, wide-tube dispersion), spectral
post-processing, and a scenario-driven CLI.
"""

from .analysis import (
    ProbeRecord,
    SpectrumResult,
    harmonic_spectrum,
    level_db,
    relative_error,
)
from .boundaries import (
    ExternalState,
    external_from_pressure,
    external_from_velocity,
    foot_point,
    inflow_update_pressure,
    inflow_update_velocity,
    outflow_update,
)
from .driver import RunReport, RunResult, Scenario, Simulation, initialize, run
from .errors import (
    BlowUpError,
    ConfigError,
    DuctwaveError,
    InvalidCharacteristicsError,
    InvalidStateError,
    MisalignedWindowError,
    OutOfValidityError,
    ShockRegimeError,
    SignalRangeError,
    UndefinedReferenceError,
    UnsupportedRegimeError,
)
from .gas import (
    CharacteristicTriple,
    ConservedState,
    GasModel,
    PrimitiveState,
    characteristics_from_primitive,
    conserved_from_primitive,
    primitive_from_characteristics,
    primitive_from_conserved,
    sound_speed,
    temperature_from_state,
)
from .oracles import (
    KirchhoffModel,
    SimpleWaveProblem,
    kirchhoff_alpha,
    kirchhoff_phase_speed,
    kirchhoff_propagate,
    sample_period,
    scaled_abscissa,
    shock_distance,
    simple_wave_velocity,
)
from .scheme import (
    DuctGeometry,
    FieldState,
    Grid,
    StepControl,
    compute_dt,
    flux_jacobian,
    lax_wendroff_update,
    physical_flux,
)
from .signals import MultiHarmonicSignal, SampledSignal, SineSignal
from .wall import (
    KernelWeights,
    PressureHistory,
    bl_temperature_profile,
    bl_velocity_profile,
    erf,
    quad_one_point,
    quad_two_point,
)

__version__ = "0.1.0"

"""Closed-form references: exact simple waves and wide-tube dispersion.

Two independent yardsticks for the coupled solver. The lossless
nonlinear benchmark is the exact simple wave: a velocity signal u0
imposed at x = 0 rides straight characteristics, and the signal at a
downstream station solves a scalar nonlinear delay equation (here by a
safeguarded Newton iteration). The small-amplitude lossy benchmark is
the wide-tube dispersion relation K = omega/c'(omega) - i alpha(omega):
amplitude decays as exp(-alpha x) with a frequency-dependent phase speed.

The paper prints the damping factor as c0/(2 h omega), which does not
carry the units of a wavenumber, so the oracle does not evaluate it: it
uses the unique dimensionally consistent completion
(1/h) sqrt(omega/(2 c0)), which coincides with the classical wide-tube
result sqrt(nu omega/2)/(h c0) (1 + (g-1)/sqrt(Pr)).

Outside its validity each oracle raises a DuctwaveError naming the
cause: a station at or beyond the shock-formation distance, a simple
wave whose slowest characteristic speed is not positive, or a
dispersion correction of 0.5 or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DuctwaveError
from .gas import GasModel

CORRECTED = "corrected"

_MAX_NEWTON = 100


def shock_distance(u0_amp: float, omega0: float, gas: GasModel) -> float:
    """Distance 2 c0^2 / ((gamma+1) omega0 U0) where a sinusoidal simple
    wave first forms a shock."""
    if u0_amp <= 0.0 or omega0 <= 0.0:
        raise ValueError("amplitude and pulsation must be positive")
    return 2.0 * gas.c0 ** 2 / ((gas.gamma + 1.0) * omega0 * u0_amp)


@dataclass(frozen=True)
class SimpleWaveProblem:
    """Exact pre-shock simple wave driven by a velocity signal at x = 0.

    The signal is a MultiHarmonicSignal: the oracle reads its value(t),
    derivative(t) and bounds peak() / max_rate(). Construction refuses
    stations at or beyond the shock-formation distance implied by the
    signal's steepest slope, and signals whose slowest characteristic
    speed c0 - (gamma+1)/2 peak() is not positive.
    """

    signal: object
    gas: GasModel
    station: float

    def __post_init__(self):
        if self.station < 0.0:
            raise ValueError("station must be non-negative")
        slow = self.gas.c0 - 0.5 * (self.gas.gamma + 1.0) * self.signal.peak()
        if slow <= 0.0:
            raise DuctwaveError(
                f"slowest characteristic speed c0 - (gamma+1)/2 u_peak ="
                f" {slow:.4g} m/s is not positive")
        rate = self.signal.max_rate()
        if rate > 0.0 and self.station > 0.0:
            l_shock = 2.0 * self.gas.c0 ** 2 / ((self.gas.gamma + 1.0) * rate)
            if self.station >= l_shock:
                raise DuctwaveError(
                    f"station {self.station:.4g} m is at s ="
                    f" {self.station / l_shock:.3f} >= 1 (L_shock ="
                    f" {l_shock:.4g} m)"
                )

    def emission_time(self, t: float) -> float:
        """Solve t - t0 = L / (c0 + (gamma+1)/2 u0(t0)) for t0.

        Newton iteration from the linear-acoustics guess t0 = t - L/c0,
        safeguarded by bisection on the bracketing interval; the residual
        is driven below 1e-12 L/c0.
        """
        gas = self.gas
        length = self.station
        half_gp1 = 0.5 * (gas.gamma + 1.0)
        peak = self.signal.peak()

        def residual(t0):
            speed = gas.c0 + half_gp1 * self.signal.value(t0)
            return t - t0 - length / speed

        def slope(t0):
            speed = gas.c0 + half_gp1 * self.signal.value(t0)
            return -1.0 + length * half_gp1 * self.signal.derivative(t0) \
                / (speed * speed)

        # Bracket from the fastest/slowest characteristic speeds; the
        # residual decreases across it pre-shock.
        slow = gas.c0 - half_gp1 * peak
        lo = max(0.0, t - length / slow)
        hi = t - length / (gas.c0 + half_gp1 * peak)
        hi = max(hi, lo)
        tol = 1e-12 * max(length / gas.c0, 1e-30)

        t0 = min(max(t - length / gas.c0, lo), hi)
        f = residual(t0)
        for _ in range(_MAX_NEWTON):
            if abs(f) < tol:
                return t0
            if f > 0.0:
                lo = t0
            else:
                hi = t0
            df = slope(t0)
            stepped = False
            if df != 0.0:
                cand = t0 - f / df
                if lo < cand < hi:
                    t0 = cand
                    stepped = True
            if not stepped:
                t0 = 0.5 * (lo + hi)
            f = residual(t0)
        raise DuctwaveError(
            f"emission-time iteration stalled at t={t:.6g} (residual {f:.3g});"
            " station likely beyond the simple-wave regime"
        )

    def velocity(self, t: float) -> float:
        """u(station, t); zero before the first characteristic arrives."""
        if self.station == 0.0:
            return self.signal.value(t)
        if t < self.station / self.gas.c0:
            return 0.0
        return self.signal.value(self.emission_time(t))


@dataclass(frozen=True)
class KirchhoffModel:
    """Wide-tube visco-thermal dispersion model for a duct of radius h."""

    gas: GasModel
    h: float
    mode: str = CORRECTED   # the one value accepted

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("duct radius must be positive")
        if self.mode != CORRECTED:
            raise ValueError(f"unknown mode {self.mode!r}")


def kirchhoff_alpha(model: KirchhoffModel, omega: float) -> float:
    """Damping coefficient alpha(omega) [1/m]."""
    if omega <= 0.0:
        raise ValueError("pulsation must be positive")
    gas = model.gas
    bracket = math.sqrt(gas.mu / (gas.rho0 * gas.c0)) \
        + (gas.gamma - 1.0) * math.sqrt(
            gas.k_cond / (gas.rho0 * gas.c0 * gas.cp))
    return bracket * (math.sqrt(omega / (2.0 * gas.c0)) / model.h)


def kirchhoff_phase_speed(model: KirchhoffModel, omega: float) -> float:
    """Phase speed c'(omega) = c0 (1 - Delta) with Delta = alpha c0/omega."""
    delta = kirchhoff_alpha(model, omega) * model.gas.c0 / omega
    if delta >= 0.5:
        raise DuctwaveError(
            f"dispersion correction {delta:.3f} >= 0.5; wide-tube expansion"
            " invalid at this frequency/radius"
        )
    return model.gas.c0 * (1.0 - delta)


def kirchhoff_propagate(model: KirchhoffModel, omega: float,
                        amplitude_in: float, x: float) -> tuple[float, float]:
    """Amplitude and phase delay after propagating a distance x >= 0.

    Returns (amplitude_in * exp(-alpha x), omega x / c'(omega)).
    """
    if x < 0.0:
        raise ValueError("propagation distance must be non-negative")
    alpha = kirchhoff_alpha(model, omega)
    cprime = kirchhoff_phase_speed(model, omega)
    return amplitude_in * math.exp(-alpha * x), omega * x / cprime

"""Inflow signal waveforms.

A signal is the time-dependent boundary datum at x = 0: either a velocity
u0(t) [m/s] or the acoustic part of a pressure pi(t) - p0 [Pa], depending
on the scenario's inflow kind. There are two families: a sum of harmonics
of a fundamental (a sine is the one-component sum (1, amplitude, 0.0)),
and a tabulated series. Both expose value(t) and the rate bound
max_rate(). The sum also gives derivative(t), the amplitude bound
peak() and the sample_times() its bounds are taken at, which the
simple-wave oracle uses for the distance where its characteristics
first cross and to bracket its emission-time solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DuctwaveError


@dataclass(frozen=True)
class MultiHarmonicSignal:
    """Sum of harmonics A_i sin(k_i omega0 t + phi_i) on a fundamental omega0.

    components is a sequence of (harmonic index k, amplitude, phase).
    """

    omega0: float
    components: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if self.omega0 <= 0.0:
            raise ValueError("pulsation must be positive")
        if not self.components:
            raise ValueError("at least one harmonic component is required")
        for k, _, _ in self.components:
            if k < 1:
                raise ValueError(f"harmonic index must be >= 1, got {k}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega0

    def value(self, t: float) -> float:
        w = self.omega0 * t
        return sum(a * math.sin(k * w + phi) for k, a, phi in self.components)

    def derivative(self, t: float) -> float:
        w = self.omega0 * t
        return sum(a * k * self.omega0 * math.cos(k * w + phi)
                   for k, a, phi in self.components)

    def peak(self) -> float:
        return sum(abs(a) for _, a, _ in self.components)

    def sample_times(self) -> np.ndarray:
        """The dense deterministic samples over one period at which the
        bounds are taken: 4097 times from 0 to the period."""
        return np.linspace(0.0, self.period, 4097)

    def max_rate(self) -> float:
        # the analytic bound sum(|a| k omega0) overestimates badly for
        # mixed phases
        rates = np.abs([self.derivative(ti) for ti in self.sample_times()])
        return float(rates.max())


@dataclass(frozen=True)
class SampledSignal:
    """Table of values on a uniform time grid t_i = i * dtau.

    Evaluation uses linear interpolation; asking for a time outside the
    table is an error so that an under-covered run fails loudly instead of
    extrapolating (a Scenario refuses a table that ends before its last
    step).
    """

    dtau: float
    values: tuple[float, ...] = field(repr=False)

    def __post_init__(self):
        if self.dtau <= 0.0:
            raise ValueError("sample spacing must be positive")
        if len(self.values) < 2:
            raise ValueError("at least two samples are required")

    @property
    def duration(self) -> float:
        return (len(self.values) - 1) * self.dtau

    def value(self, t: float) -> float:
        if t < 0.0 or t > self.duration * (1.0 + 1e-12):
            raise DuctwaveError(
                f"t={t} outside sampled range [0, {self.duration}]"
            )
        pos = min(t / self.dtau, len(self.values) - 1.0)
        i = min(int(pos), len(self.values) - 2)
        frac = pos - i
        return self.values[i] + frac * (self.values[i + 1] - self.values[i])

    def max_rate(self) -> float:
        diffs = np.diff(np.asarray(self.values))
        return float(np.abs(diffs).max() / self.dtau)

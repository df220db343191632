"""Signal post-processing: harmonic spectra, dB levels, errors.

Spectra follow the validation protocol of the experiments: sample the
probe series on a power-of-two grid per fundamental period, window an
exact integer number of periods with no taper, and read harmonic
magnitudes from the direct discrete transform (K_max stays small, so an
FFT buys nothing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MisalignedWindowError, UndefinedReferenceError

P_REF_SPL = 2e-5   # standard pressure reference [Pa]

_COMPONENTS = {"rho": 0, "u": 1, "p": 2}


@dataclass(frozen=True)
class ProbeRecord:
    """Time series of (rho, u, p) at one station.

    data has shape (M, 3); sample m sits at time t_start + m * tau.
    """

    station_index: int
    x: float
    tau: float
    data: np.ndarray
    t_start: float = 0.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != 3:
            raise ValueError("probe data must have shape (M, 3)")
        object.__setattr__(self, "data", data)
        if self.tau <= 0.0:
            raise ValueError("sample period must be positive")

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n_samples) * self.tau

    def component(self, name: str) -> np.ndarray:
        return self.data[:, _COMPONENTS[name]]

    def window(self, t_lo: float, t_hi: float) -> "ProbeRecord":
        """Sub-record of samples with t_lo <= t < t_hi."""
        times = self.times
        eps = 1e-9 * self.tau
        mask = (times >= t_lo - eps) & (times < t_hi - eps)
        if not mask.any():
            raise MisalignedWindowError(
                f"window [{t_lo}, {t_hi}) contains no samples"
            )
        first = int(np.argmax(mask))
        return ProbeRecord(
            station_index=self.station_index, x=self.x, tau=self.tau,
            data=self.data[mask], t_start=float(times[first]),
        )


@dataclass(frozen=True)
class SpectrumResult:
    """Harmonic magnitudes |s_k| for k = 1..K_max on a fundamental omega0."""

    omega0: float
    magnitudes: np.ndarray
    k_max: int

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        if mags.shape != (self.k_max,):
            raise ValueError("need one magnitude per harmonic 1..K_max")
        if (mags < 0.0).any():
            raise ValueError("magnitudes must be non-negative")
        object.__setattr__(self, "magnitudes", mags)

    def magnitude(self, k: int) -> float:
        if not (1 <= k <= self.k_max):
            raise IndexError(f"harmonic {k} outside 1..{self.k_max}")
        return float(self.magnitudes[k - 1])


def min_samples_per_period(k_max: int) -> int:
    """Anti-aliasing floor of a K_max spectrum: 8 K_max samples per period."""
    return 8 * k_max


def harmonic_spectrum(record: ProbeRecord, omega0: float, k_max: int,
                      component: str = "u") -> SpectrumResult:
    """Harmonic magnitudes over an integer number of fundamental periods.

    The M samples are treated as one rectangular window of length M tau
    (periodic continuation), which must equal an integer number >= 1 of
    periods with at least `min_samples_per_period(k_max)` samples per
    period to keep aliasing out of the band of interest.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    signal = record.component(component)
    m_samples = signal.size
    period = 2.0 * math.pi / omega0
    n_periods = m_samples * record.tau / period
    if abs(n_periods - round(n_periods)) > 1e-6 or round(n_periods) < 1:
        raise MisalignedWindowError(
            f"window covers {n_periods:.6f} periods; integer count required"
        )
    floor = min_samples_per_period(k_max)
    if m_samples / n_periods < floor:
        raise MisalignedWindowError(
            f"{m_samples / n_periods:.0f} samples/period under the"
            f" anti-aliasing floor {floor} for K_max={k_max}"
        )
    t_rel = np.arange(m_samples) * record.tau
    k = np.arange(1, k_max + 1)
    phases = np.exp(-1j * omega0 * np.outer(k, t_rel))
    mags = np.abs(2.0 / m_samples * phases @ signal)
    return SpectrumResult(omega0=omega0, magnitudes=mags, k_max=k_max)


def level_db(magnitude: float, reference: float) -> float:
    """Level 20 log10(magnitude/reference); -inf for zero magnitude."""
    if magnitude < 0.0:
        raise ValueError("magnitude must be non-negative")
    if reference <= 0.0:
        raise ValueError("reference must be positive")
    if magnitude == 0.0:
        return float("-inf")
    return 20.0 * math.log10(magnitude / reference)


def relative_error(series_a, series_b, norm: str = "l2") -> float:
    """Norm of (a - b) relative to the norm of the reference b."""
    a = np.asarray(series_a, dtype=float)
    b = np.asarray(series_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if norm == "l2":
        ref = float(np.linalg.norm(b))
        diff = float(np.linalg.norm(a - b))
    elif norm == "max":
        ref = float(np.max(np.abs(b)))
        diff = float(np.max(np.abs(a - b)))
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if ref == 0.0:
        raise UndefinedReferenceError("reference series has zero norm")
    return diff / ref

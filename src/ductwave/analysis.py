"""Signal post-processing: harmonic spectra, dB levels, errors.

Spectra follow the validation protocol of the experiments: sample the
probe series on a power-of-two grid per fundamental period, window an
exact integer number of periods with no taper, and read harmonic
magnitudes from one real FFT of the window, on which n whole periods
put harmonic k on bin n k.

A run keeps only its native probe rows. Its period-grid records
(`PeriodGridRecord`) hold no samples: each derives its layout (tau, the
whole periods its native record spans, the sample count) from that
record, the period and the sampling exponent, and interpolates the rows
when read, so a window or a block of samples costs only what it returns.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DuctwaveError

P_REF_SPL = 2e-5   # standard pressure reference [Pa]

# 2^20 samples a period: 1024 times the presets' grid
MAX_SAMPLING_EXPONENT = 20

_COMPONENTS = {"rho": 0, "u": 1, "p": 2}


def _searchsorted(n: int, time_of, value: float) -> int:
    """np.searchsorted of value in the times time_of(0..n-1), which must
    not decrease, found by bisection on the sample index: no array of
    the n times is built."""
    return bisect.bisect_left(range(n), value, key=time_of)


class _Series:
    """Samples m = 0..n_samples-1 of (rho, u, p) at t_start + m * tau,
    read a block at a time by samples(lo, hi)."""

    @property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.n_samples) * self.tau

    def window(self, t_lo: float, t_hi: float) -> "ProbeRecord":
        """Record of the samples with t_lo <= t < t_hi (to 1e-9 tau): one
        contiguous run of samples, its bounds found by bisection on the
        sample times."""
        t_start, tau = self.t_start, self.tau
        eps = 1e-9 * tau

        def time_of(m):
            return t_start + m * tau

        first = _searchsorted(self.n_samples, time_of, t_lo - eps)
        stop = _searchsorted(self.n_samples, time_of, t_hi - eps)
        if first >= stop:
            raise DuctwaveError(
                f"window [{t_lo}, {t_hi}) contains no samples"
            )
        return ProbeRecord(
            station_index=self.station_index, x=self.x, tau=tau,
            data=self.samples(first, stop), t_start=time_of(first),
        )


@dataclass(frozen=True)
class ProbeRecord(_Series):
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

    def component(self, name: str) -> np.ndarray:
        return self.data[:, _COMPONENTS[name]]

    def samples(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi-1 of data, as a view."""
        return self.data[lo:hi]


class PeriodGridRecord(_Series):
    """A native record read on the grid of 2^sampling_exponent samples a
    period: sample m is the native series linearly interpolated at
    t_start + m * tau, tau = period / 2^sampling_exponent, for
    m = 0..n_samples-1 over the n_periods whole periods the record spans
    (to 1e-9 of a period; 0 and one sample if it spans none). The layout
    is derived from these three inputs, once, so the grid cannot read
    past the native record.

    Nothing of the grid is kept. samples(lo, hi) interpolates those
    samples from the native samples that bracket them; np.interp over a
    wider bracket gives the same values, so a sample's value does not
    depend on which block it is read in.
    """

    def __init__(self, native: ProbeRecord, period: float,
                 sampling_exponent: int):
        if not period > 0.0:
            raise ValueError(f"period must be positive, got {period!r}")
        check_sampling_exponent(sampling_exponent)
        self.native, self.period = native, period
        self.per_period = 2 ** sampling_exponent
        self.tau = period / self.per_period
        span = (native.n_samples - 1) * native.tau
        self.n_periods = int(math.floor(span / period + 1e-9))
        self.n_samples = self.n_periods * self.per_period + 1

    @property
    def station_index(self) -> int:
        return self.native.station_index

    @property
    def x(self) -> float:
        return self.native.x

    @property
    def t_start(self) -> float:
        return self.native.t_start

    def samples(self, lo: int, hi: int) -> np.ndarray:
        """Grid rows lo..hi-1, 0 <= lo <= hi <= n_samples, interpolated."""
        if not 0 <= lo <= hi <= self.n_samples:
            raise IndexError(
                f"rows [{lo}, {hi}) outside the grid's {self.n_samples}")
        native = self.native
        t0, step, n_native = native.t_start, native.tau, native.n_samples
        # the native rows that bracket the grid times lo * tau..hi * tau,
        # with rows to spare for rounding in the index estimates
        first = max(int(lo * self.tau / step) - 1, 0)
        stop = min(int(hi * self.tau / step) + 3, n_native)
        t_new = np.arange(lo, hi) * self.tau
        # the native sample times relative to t0, as native.times - t0
        t_old = (t0 + np.arange(first, stop) * step) - t0
        return np.column_stack([
            np.interp(t_new, t_old, native.data[first:stop, i])
            for i in range(3)])


@dataclass(frozen=True)
class SpectrumResult:
    """Harmonic magnitudes |s_k| for k = 1..K_max, as `harmonic_spectrum`
    computes them: magnitudes[k - 1] is |s_k|, so K_max is their count."""

    magnitudes: np.ndarray

    @property
    def k_max(self) -> int:
        return self.magnitudes.size

    def magnitude(self, k: int) -> float:
        if not (1 <= k <= self.k_max):
            raise IndexError(f"harmonic {k} outside 1..{self.k_max}")
        return float(self.magnitudes[k - 1])


def min_samples_per_period(k_max: int) -> int:
    """Anti-aliasing floor of a K_max spectrum: 8 K_max samples per period."""
    return 8 * k_max


def check_sampling_exponent(n_exp: int, k_max: int = 1) -> None:
    """Refuse a period grid of 2^n_exp samples a period finer than
    2^MAX_SAMPLING_EXPONENT, whose records would not fit in memory, or
    coarser than the anti-aliasing floor of a K_max spectrum,
    min_samples_per_period(k_max) (ValueError)."""
    if n_exp > MAX_SAMPLING_EXPONENT:
        raise ValueError(
            f"sampling exponent {n_exp} exceeds {MAX_SAMPLING_EXPONENT}"
            f" (at most 2^{MAX_SAMPLING_EXPONENT} samples a period)")
    floor = min_samples_per_period(k_max)
    if 2.0 ** n_exp < floor:
        raise ValueError(
            f"sampling exponent {n_exp} gives {2.0 ** n_exp:g} samples a"
            f" period, under the anti-aliasing floor {floor} for"
            f" K_max = {k_max}")


def harmonic_spectrum(record: ProbeRecord, omega0: float, k_max: int,
                      component: str = "u") -> SpectrumResult:
    """Harmonic magnitudes over an integer number of fundamental periods.

    The M samples are treated as one rectangular window of length M tau
    (periodic continuation), which must equal an integer number >= 1 of
    periods with at least `min_samples_per_period(k_max)` samples per
    period to keep aliasing out of the band of interest. Harmonic k of
    n periods is bin n k of the window's M-point DFT, which that floor
    keeps at or below M/8: the magnitudes are read from one real FFT.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    signal = record.component(component)
    m_samples = signal.size
    period = 2.0 * math.pi / omega0
    n_periods = m_samples * record.tau / period
    if abs(n_periods - round(n_periods)) > 1e-6 or round(n_periods) < 1:
        raise DuctwaveError(
            f"window covers {n_periods:.6f} periods; integer count required"
        )
    floor = min_samples_per_period(k_max)
    if m_samples / n_periods < floor:
        raise DuctwaveError(
            f"{m_samples / n_periods:.0f} samples/period under the"
            f" anti-aliasing floor {floor} for K_max={k_max}"
        )
    bins = round(n_periods) * np.arange(1, k_max + 1)
    return SpectrumResult(
        np.abs(np.fft.rfft(signal)[bins]) * (2.0 / m_samples))


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
        raise DuctwaveError("reference series has zero norm")
    return diff / ref

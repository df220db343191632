"""Probe records, resampling, harmonic spectra, levels, error norms."""

import math

import numpy as np
import pytest

from ductwave.analysis import (
    ProbeRecord,
    harmonic_spectrum,
    level_db,
    relative_error,
)
from ductwave.driver import VELOCITY, Scenario, _resample_on_period_grid
from ductwave.errors import MisalignedWindowError, UndefinedReferenceError
from ductwave.gas import GasModel
from ductwave.scheme import DuctGeometry, Grid
from ductwave.signals import SineSignal

OMEGA0 = 2.0 * math.pi * 100.0
PERIOD = 2.0 * math.pi / OMEGA0


def _sine_record(amplitude=1.0, periods=4, per_period=256, harmonic=1,
                 phase=0.0, dc=0.0, endpoint=False):
    """M = periods*per_period samples (window form for spectra); with
    endpoint=True adds one sample so the span is a whole period count
    (resampling form)."""
    tau = PERIOD / per_period
    t = np.arange(periods * per_period + (1 if endpoint else 0)) * tau
    u = dc + amplitude * np.sin(harmonic * OMEGA0 * t + phase)
    data = np.column_stack([np.full_like(u, 1.2), u, np.full_like(u, 101325.0)])
    return ProbeRecord(station_index=0, x=0.0, tau=tau, data=data)


def _period_grid(record, exponent):
    """The run's resampling of a record onto tau = PERIOD / 2^exponent."""
    scenario = Scenario(
        gas=GasModel(), grid=Grid(length=1.0, cells=4),
        geom=DuctGeometry(h=0.005), inflow_kind=VELOCITY,
        inflow=SineSignal(amplitude=1.0, omega0=OMEGA0), duration_s=1.0,
        sampling_exponent=exponent,
    )
    return _resample_on_period_grid(record, scenario)


class TestProbeRecord:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ProbeRecord(station_index=0, x=0.0, tau=0.1, data=np.zeros((4, 2)))
        with pytest.raises(ValueError):
            ProbeRecord(station_index=0, x=0.0, tau=-1.0, data=np.zeros((4, 3)))

    def test_window_selects_half_open_interval(self):
        rec = _sine_record(periods=4, per_period=8)
        win = rec.window(PERIOD, 3.0 * PERIOD)
        assert win.n_samples == 16
        assert win.t_start == pytest.approx(PERIOD, rel=1e-12)

    def test_empty_window_rejected(self):
        rec = _sine_record(periods=1, per_period=8)
        with pytest.raises(MisalignedWindowError):
            rec.window(10.0, 11.0)


class TestResample:
    def test_identity_at_native_period(self):
        rec = _sine_record(periods=2, per_period=64, endpoint=True)
        out = _period_grid(rec, 6)
        # spans two whole periods, so the resampled record keeps all samples
        np.testing.assert_array_equal(out.data, rec.data)

    def test_constant_stays_constant(self):
        rec = _sine_record(amplitude=0.0, dc=3.3, periods=2, per_period=64,
                           endpoint=True)
        out = _period_grid(rec, 4)
        np.testing.assert_allclose(out.component("u"), 3.3, rtol=1e-14)

    def test_sine_amplitude_retained(self):
        # downsample 4096 -> 1024 per period; linear interpolation keeps
        # the fundamental to better than 1e-4 relative
        rec = _sine_record(amplitude=2.0, periods=4, per_period=4096,
                           endpoint=True)
        out = _period_grid(rec, 10)
        spec = harmonic_spectrum(out.window(0.0, 4.0 * PERIOD), OMEGA0, 1)
        assert spec.magnitude(1) == pytest.approx(2.0, rel=1e-4)

    def test_span_mismatch_rejected(self):
        # a record shorter than one whole period has nothing to resample
        rec = _sine_record(periods=1, per_period=33)
        assert _period_grid(rec, 3) is None


class TestHarmonicSpectrum:
    def test_pure_sine(self):
        rec = _sine_record(amplitude=1.7, periods=4)
        spec = harmonic_spectrum(rec, OMEGA0, 10)
        assert spec.magnitude(1) == pytest.approx(1.7, rel=1e-12)
        for k in range(2, 11):
            assert spec.magnitude(k) <= 1e-10 * 1.7

    def test_constant_signal_is_dark(self):
        rec = _sine_record(amplitude=0.0, dc=5.0, periods=2)
        spec = harmonic_spectrum(rec, OMEGA0, 8)
        assert spec.magnitudes.max() <= 1e-12

    def test_two_tone(self):
        tau = PERIOD / 256
        t = np.arange(4 * 256) * tau
        u = 1.0 * np.sin(OMEGA0 * t) + 0.25 * np.sin(3.0 * OMEGA0 * t)
        data = np.column_stack([np.ones_like(u), u, np.ones_like(u)])
        rec = ProbeRecord(station_index=0, x=0.0, tau=tau, data=data)
        spec = harmonic_spectrum(rec, OMEGA0, 5)
        assert spec.magnitude(1) == pytest.approx(1.0, rel=1e-10)
        assert spec.magnitude(3) == pytest.approx(0.25, rel=1e-10)
        for k in (2, 4, 5):
            assert spec.magnitude(k) <= 1e-10

    def test_phase_invariance_of_magnitudes(self):
        spec_a = harmonic_spectrum(_sine_record(phase=0.0), OMEGA0, 4)
        spec_b = harmonic_spectrum(_sine_record(phase=2.1), OMEGA0, 4)
        np.testing.assert_allclose(spec_a.magnitudes, spec_b.magnitudes,
                                   rtol=0.0, atol=1e-10)

    def test_integer_period_shift_invariance(self):
        rec = _sine_record(periods=5, phase=0.31)
        full = rec.window(0.0, 4.0 * PERIOD)
        shifted = rec.window(PERIOD, 5.0 * PERIOD)
        a = harmonic_spectrum(full, OMEGA0, 6).magnitudes
        b = harmonic_spectrum(shifted, OMEGA0, 6).magnitudes
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    def test_non_integer_window_rejected(self):
        rec = _sine_record(periods=4)
        partial = ProbeRecord(station_index=0, x=0.0, tau=rec.tau,
                              data=rec.data[:-7])
        with pytest.raises(MisalignedWindowError):
            harmonic_spectrum(partial, OMEGA0, 4)

    def test_undersampled_window_rejected(self):
        rec = _sine_record(periods=4, per_period=64)
        with pytest.raises(MisalignedWindowError):
            harmonic_spectrum(rec, OMEGA0, 20)    # needs 160 per period

    def test_parseval_band_limited(self):
        tau = PERIOD / 512
        t = np.arange(8 * 512) * tau
        amps = {1: 1.0, 2: 0.5, 5: 0.2, 11: 0.05}
        u = sum(a * np.sin(k * OMEGA0 * t + 0.1 * k) for k, a in amps.items())
        data = np.column_stack([np.ones_like(u), u, np.ones_like(u)])
        rec = ProbeRecord(station_index=0, x=0.0, tau=tau, data=data)
        spec = harmonic_spectrum(rec, OMEGA0, 12)
        power_spectral = float(np.sum(spec.magnitudes ** 2)) / 2.0
        power_signal = float(np.mean(u ** 2))
        assert power_spectral == pytest.approx(power_signal, rel=1e-9)


class TestLevels:
    def test_reference_is_zero_db(self):
        assert level_db(3.0, 3.0) == 0.0

    def test_factor_ten_is_twenty_db(self):
        assert level_db(10.0, 1.0) == pytest.approx(20.0, rel=1e-14)

    def test_spl_example(self):
        assert level_db(2e-1, 2e-5) == pytest.approx(80.0, rel=1e-14)

    def test_zero_magnitude_sentinel(self):
        assert level_db(0.0, 1.0) == float("-inf")

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            level_db(-1.0, 1.0)
        with pytest.raises(ValueError):
            level_db(1.0, 0.0)


class TestRelativeError:
    def test_identical_series(self):
        a = np.sin(np.linspace(0.0, 5.0, 100))
        assert relative_error(a, a, "l2") == 0.0
        assert relative_error(a, a, "max") == 0.0

    def test_five_percent_scale(self):
        b = np.sin(np.linspace(0.0, 5.0, 100)) + 2.0
        a = 1.05 * b
        assert relative_error(a, b, "l2") == pytest.approx(0.05, rel=1e-12)
        assert relative_error(a, b, "max") == pytest.approx(0.05, rel=1e-12)

    def test_orthogonal_unit_vectors(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert relative_error(a, b, "l2") == pytest.approx(math.sqrt(2.0),
                                                           rel=1e-14)

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedReferenceError):
            relative_error(np.ones(4), np.zeros(4), "l2")

    def test_shape_and_norm_validation(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.ones(3), norm="l7")

"""Probe records, resampling, harmonic spectra, levels, error norms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ductwave.analysis import (
    PeriodGridRecord,
    ProbeRecord,
    _searchsorted,
    check_sampling_exponent,
    harmonic_spectrum,
    level_db,
    relative_error,
)
from ductwave.csvio import _WRITE_BLOCK
from ductwave.driver import VELOCITY, Scenario, run
from ductwave.errors import DuctwaveError
from ductwave.gas import GasModel
from ductwave.scheme import DuctGeometry, Grid
from ductwave.signals import MultiHarmonicSignal

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


def _scenario(exponent, **overrides):
    """A 1 m, 4-cell duct driven at the 100 Hz fundamental."""
    base = dict(
        gas=GasModel(), grid=Grid(length=1.0, cells=4),
        geom=DuctGeometry(h=0.005), inflow_kind=VELOCITY,
        inflow=MultiHarmonicSignal(OMEGA0, ((1, 1.0, 0.0),)), duration_s=1.0,
        sampling_exponent=exponent,
    )
    base.update(overrides)
    return Scenario(**base)


def _period_grid(record, exponent):
    """The record read on tau = PERIOD / 2^exponent, as a run reads it."""
    return PeriodGridRecord(record, PERIOD, exponent)


def _whole(grid):
    """All rows of a period grid, read at once."""
    return grid.samples(0, grid.n_samples)


def _by_chunks(grid):
    """All rows of a period grid, read _WRITE_BLOCK at a time as a run
    streams its series CSVs."""
    n = grid.n_samples
    return np.vstack([grid.samples(lo, min(lo + _WRITE_BLOCK, n))
                      for lo in range(0, n, _WRITE_BLOCK)])


def _one_interpolation(record, exponent):
    """Oracle of the period grid: one np.interp per column over the whole
    grid, then column_stack."""
    tau = PERIOD / 2 ** exponent
    span = (record.n_samples - 1) * record.tau
    n_periods = int(math.floor(span / PERIOD + 1e-9))
    t_new = np.arange(n_periods * 2 ** exponent + 1) * tau
    t_old = record.times - record.t_start
    return np.column_stack([
        np.interp(t_new, t_old, record.data[:, i]) for i in range(3)
    ])


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

    def test_window_slice_equals_the_mask_form(self):
        # bounds on a sample time, and 1e-9 tau (the window's tolerance)
        # to either side of it, select what the per-sample mask selects
        rec = _sine_record(periods=4, per_period=8)
        rec = ProbeRecord(station_index=0, x=0.0, tau=rec.tau, data=rec.data,
                          t_start=0.37 * PERIOD)
        times = rec.times
        eps = 1e-9 * rec.tau
        for lo_index, hi_index in [(0, 32), (3, 17), (8, 24), (31, 32)]:
            for lo_shift in (-eps, 0.0, eps):
                for hi_shift in (-eps, 0.0, eps):
                    t_lo = times[lo_index] + lo_shift
                    t_hi = rec.t_start + hi_index * rec.tau + hi_shift
                    mask = (times >= t_lo - eps) & (times < t_hi - eps)
                    win = rec.window(t_lo, t_hi)
                    np.testing.assert_array_equal(win.data, rec.data[mask])
                    assert win.t_start == times[np.argmax(mask)]

    def test_empty_window_rejected(self):
        rec = _sine_record(periods=1, per_period=8)
        with pytest.raises(DuctwaveError, match="contains no samples"):
            rec.window(10.0, 11.0)

    @given(n=st.integers(1, 5000), t_start=st.floats(-1e3, 1e3),
           tau=st.floats(1e-9, 1e2), index=st.integers(-2, 5002),
           shift=st.sampled_from([-0.5, -1e-9, 0.0, 1e-9, 0.5]))
    def test_bisection_equals_searchsorted(self, n, t_start, tau, index,
                                           shift):
        # values on, beside and between the sample times, and past both
        # ends; a fine tau on a large t_start makes runs of equal times
        times = t_start + np.arange(n) * tau
        value = t_start + index * tau + shift * tau
        found = _searchsorted(n, lambda m: t_start + m * tau, value)
        assert found == np.searchsorted(times, value)


class TestResample:
    def test_identity_at_native_period(self):
        rec = _sine_record(periods=2, per_period=64, endpoint=True)
        out = _period_grid(rec, 6)
        # spans two whole periods, so the resampled record keeps all samples
        np.testing.assert_array_equal(_whole(out), rec.data)

    def test_constant_stays_constant(self):
        rec = _sine_record(amplitude=0.0, dc=3.3, periods=2, per_period=64,
                           endpoint=True)
        out = _period_grid(rec, 4)
        np.testing.assert_allclose(_whole(out)[:, 1], 3.3, rtol=1e-14)

    def test_sine_amplitude_retained(self):
        # downsample 4096 -> 1024 per period; linear interpolation keeps
        # the fundamental to better than 1e-4 relative
        rec = _sine_record(amplitude=2.0, periods=4, per_period=4096,
                           endpoint=True)
        out = _period_grid(rec, 10)
        spec = harmonic_spectrum(out.window(0.0, 4.0 * PERIOD), OMEGA0, 1)
        assert spec.magnitude(1) == pytest.approx(2.0, rel=1e-4)

    # native samples coarser than the grid, finer, and about as fine
    @pytest.mark.parametrize("native_per_period, exponent",
                             [(8, 10), (64, 4), (1000, 10)])
    def test_chunked_grid_equals_one_interpolation(self, rng,
                                                   native_per_period,
                                                   exponent):
        # three whole chunks and a partial one, and the native samples run
        # half a period past the grid's end
        periods = 3 * _WRITE_BLOCK // 2 ** exponent
        n_native = (periods * native_per_period + 1
                    + native_per_period // 2)
        data = rng.standard_normal((n_native, 3)) + [1.2, 0.0, 101325.0]
        rec = ProbeRecord(station_index=0, x=0.0,
                          tau=PERIOD / native_per_period, data=data)
        out = _period_grid(rec, exponent)
        assert 3 * _WRITE_BLOCK < out.n_samples < 4 * _WRITE_BLOCK
        expected = _one_interpolation(rec, exponent)
        np.testing.assert_array_equal(_by_chunks(out), expected)
        np.testing.assert_array_equal(_whole(out), expected)

    def test_resampled_run_equals_one_interpolation(self):
        periods = 3 * _WRITE_BLOCK // 2 ** 10 + 1
        result = run(_scenario(10, duration_s=None, duration_periods=periods,
                               probes=(0.5, 1.0)))
        assert len(result.resampled) == 2
        for native, resampled in zip(result.records, result.resampled):
            assert resampled.native is native
            assert resampled.n_samples == periods * 2 ** 10 + 1
            assert resampled.n_samples % _WRITE_BLOCK != 0
            np.testing.assert_array_equal(_by_chunks(resampled),
                                          _one_interpolation(native, 10))

    def test_span_mismatch_rejected(self):
        # a record shorter than one whole period spans none: its grid is
        # the one sample at its start, and a run keeps no such grid
        rec = _sine_record(periods=1, per_period=33)
        grid = _period_grid(rec, 3)
        assert (grid.n_periods, grid.n_samples) == (0, 1)
        np.testing.assert_array_equal(_whole(grid), rec.data[:1])


class TestPeriodGridRecord:
    @pytest.fixture
    def grid(self, rng):
        """Three whole chunks and a partial one, read from native samples
        that start off zero and run past the grid's end."""
        periods = 3 * _WRITE_BLOCK // 2 ** 8 + 1
        n_native = periods * 100 + 51
        data = rng.standard_normal((n_native, 3)) + [1.2, 0.0, 101325.0]
        native = ProbeRecord(station_index=5, x=0.25, tau=PERIOD / 100,
                             data=data, t_start=0.37 * PERIOD)
        grid = _period_grid(native, 8)
        assert 3 * _WRITE_BLOCK < grid.n_samples < 4 * _WRITE_BLOCK
        return grid

    def test_data_equals_one_interpolation(self, grid):
        expected = _one_interpolation(grid.native, 8)
        np.testing.assert_array_equal(_whole(grid), expected)
        np.testing.assert_array_equal(_by_chunks(grid), expected)
        assert (grid.station_index, grid.x) == (5, 0.25)
        assert grid.t_start == grid.native.t_start

    def test_window_equals_the_mask_form_of_the_grid(self, grid):
        # windows across chunk boundaries and at the first and last
        # sample, bounds on a sample time and 1e-9 tau to either side
        full, times = _whole(grid), grid.times
        n, chunk = grid.n_samples, _WRITE_BLOCK
        eps = 1e-9 * grid.tau
        for lo_index, hi_index in [(0, n), (0, 1), (n - 1, n),
                                   (chunk - 1, chunk + 1),
                                   (chunk, 2 * chunk), (5, 3 * chunk + 7)]:
            for lo_shift in (-eps, 0.0, eps):
                for hi_shift in (-eps, 0.0, eps):
                    t_lo = times[lo_index] + lo_shift
                    t_hi = grid.t_start + hi_index * grid.tau + hi_shift
                    mask = (times >= t_lo - eps) & (times < t_hi - eps)
                    win = grid.window(t_lo, t_hi)
                    assert isinstance(win, ProbeRecord)
                    np.testing.assert_array_equal(win.data, full[mask])
                    assert win.t_start == times[np.argmax(mask)]
                    assert win.tau == grid.tau

    def test_samples_outside_the_grid_rejected(self, grid):
        for period in (0.0, -PERIOD):
            with pytest.raises(ValueError, match="period must be positive"):
                PeriodGridRecord(grid.native, period, 8)
        for exponent in (2, 21):
            with pytest.raises(ValueError, match="sampling exponent"):
                PeriodGridRecord(grid.native, PERIOD, exponent)
        with pytest.raises(IndexError):
            grid.samples(0, grid.n_samples + 1)
        with pytest.raises(IndexError):
            grid.samples(3, 2)

    def test_empty_window_rejected(self, grid):
        with pytest.raises(DuctwaveError, match="contains no samples"):
            grid.window(-2.0 * PERIOD, -PERIOD)

    def test_grid_within_period_grid_slack_accepted(self):
        # a record that falls 1e-10 of a period short of whole periods
        # still gets them, within the grid's 1e-9-period slack, for one
        # period and many
        for periods in (1, 7):
            span = periods * PERIOD * (1.0 - 1e-10)
            native = ProbeRecord(station_index=0, x=0.0, tau=span / 100,
                                 data=np.ones((101, 3)))
            grid = _period_grid(native, 4)
            assert grid.n_periods == periods
            assert grid.n_samples == periods * 2 ** 4 + 1

    @given(n_native=st.integers(2, 5000), periods=st.integers(1, 60),
           short=st.one_of(st.sampled_from([0.0, 1e-10, 0.5]),
                           st.floats(0.0, 1.0, exclude_max=True)),
           exponent=st.integers(3, 12))
    def test_grid_ends_within_the_native_record(self, n_native, periods,
                                                short, exponent):
        # a native record of n_native rows spanning `short` of a period
        # less than a whole count, 1e-10 of a period short among them: the
        # grid ends within 1e-9 of a period (and an ulp) of the record's
        # last time, over the most whole periods that do
        step = (periods - short) * PERIOD / (n_native - 1)
        native = ProbeRecord(station_index=0, x=0.0, tau=step,
                             data=np.ones((n_native, 3)))
        grid = _period_grid(native, exponent)
        span = (native.n_samples - 1) * native.tau
        last = (grid.n_samples - 1) * grid.tau
        slack = 1e-9 * PERIOD
        assert grid.n_samples == grid.n_periods * 2 ** exponent + 1
        assert last - span <= slack + math.ulp(span)
        assert (grid.n_periods + 1) * PERIOD - span > slack - math.ulp(span)


class TestSamplingExponent:
    def test_ceiling_then_anti_aliasing_floor(self):
        # 2^N samples a period lie in [8 K_max, 2^20]
        for n_exp, k_max in ((3, 1), (4, 2), (8, 20), (20, 1), (20, 2 ** 17)):
            check_sampling_exponent(n_exp, k_max)
        check_sampling_exponent(3)
        for n_exp, k_max in ((2, 1), (3, 2), (7, 20), (-1, 1)):
            with pytest.raises(ValueError, match="anti-aliasing floor"):
                check_sampling_exponent(n_exp, k_max)
        # the ceiling is checked first, whatever the K_max
        for k_max in (1, 2 ** 18):
            with pytest.raises(ValueError, match="exceeds 20"):
                check_sampling_exponent(21, k_max)


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

    def test_harmonic_outside_the_band_refused(self):
        spec = harmonic_spectrum(_sine_record(), OMEGA0, 4)
        assert spec.k_max == 4 and spec.magnitudes.shape == (4,)
        for k in (0, spec.k_max + 1):
            with pytest.raises(IndexError, match=f"^harmonic {k} outside"
                                                 " 1..4$"):
                spec.magnitude(k)
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            harmonic_spectrum(_sine_record(), OMEGA0, 0)

    def test_non_integer_window_rejected(self):
        rec = _sine_record(periods=4)
        partial = ProbeRecord(station_index=0, x=0.0, tau=rec.tau,
                              data=rec.data[:-7])
        with pytest.raises(DuctwaveError,
                           match="periods; integer count required"):
            harmonic_spectrum(partial, OMEGA0, 4)

    def test_undersampled_window_rejected(self):
        rec = _sine_record(periods=4, per_period=64)
        with pytest.raises(DuctwaveError,
                           match="^64 samples/period under the anti-aliasing"
                                 " floor 160 for K_max=20$"):
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

    def test_spectrum_matches_the_direct_transform(self):
        """The FFT bins n k against the direct transform, written out here
        as one (k_max, M) phase product: the presets' 4 x 1024 windows
        and a 3 x 1000 one agree within 1e-13 of the largest magnitude
        (measured 6.3e-16 and 5.3e-16)."""
        phase = np.random.default_rng(5).uniform(0.0, 6.0, 24)
        for periods, per_period in ((4, 1024), (3, 1000)):
            tau = PERIOD / per_period
            t = np.arange(periods * per_period) * tau
            u = 0.1 + sum(0.7 / k * np.sin(k * OMEGA0 * t + phase[k - 1])
                          for k in range(1, 25))
            data = np.column_stack([np.full_like(u, 1.2), u,
                                    np.full_like(u, 101325.0)])
            rec = ProbeRecord(station_index=0, x=0.0, tau=tau, data=data)
            k = np.arange(1, 21)
            phases = np.exp(-1j * OMEGA0 * np.outer(k, t))
            direct = np.abs(2.0 / t.size * phases @ u)
            spec = harmonic_spectrum(rec, OMEGA0, 20)
            np.testing.assert_allclose(spec.magnitudes, direct, rtol=0.0,
                                       atol=1e-13 * direct.max())

    def test_long_window_holds_one_chunk(self):
        # 2^17 samples at k_max 20, read as one chunk by one rfft: about
        # the component's own 1 MiB (the direct transform's phase blocks
        # peaked at 12.75 MiB)
        rec = _sine_record(amplitude=0.7, periods=8, per_period=2 ** 14,
                           harmonic=3, dc=0.1)
        tracemalloc.start()
        try:
            spec = harmonic_spectrum(rec, OMEGA0, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
        expected = np.zeros(20)
        expected[2] = 0.7
        np.testing.assert_allclose(spec.magnitudes, expected, rtol=0.0,
                                   atol=1e-12)

    def test_wide_band_block_is_bounded_in_k_max(self):
        # k_max 1024 over one period of 2^13 samples: the FFT holds the
        # window's bins whatever k_max, about 0.09 MiB (the direct
        # transform's phase blocks peaked at about 40 MiB)
        rec = _sine_record(amplitude=0.7, periods=1, per_period=2 ** 13,
                           harmonic=3, dc=0.1)
        tracemalloc.start()
        try:
            spec = harmonic_spectrum(rec, OMEGA0, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        expected = np.zeros(1024)
        expected[2] = 0.7
        np.testing.assert_allclose(spec.magnitudes, expected, rtol=0.0,
                                   atol=1e-12)


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
        with pytest.raises(DuctwaveError,
                           match="^reference series has zero norm$"):
            relative_error(np.ones(4), np.zeros(4), "l2")

    def test_shape_and_norm_validation(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.ones(3), norm="l7")

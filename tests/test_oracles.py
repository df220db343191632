"""Closed-form references: simple waves, shock distance, wide-tube damping."""

import math

import numpy as np
import pytest

from ductwave.errors import DuctwaveError
from ductwave.oracles import (
    CORRECTED,
    KirchhoffModel,
    SimpleWaveProblem,
    kirchhoff_alpha,
    kirchhoff_phase_speed,
    kirchhoff_propagate,
    shock_distance,
)
from ductwave.signals import MultiHarmonicSignal


class TestShockDistance:
    def test_reference_pair(self, air):
        # 2 c0^2 / (2.4 * 2 pi 100 * 1) by hand
        got = shock_distance(1.0, 2.0 * math.pi * 100.0, air)
        assert got == pytest.approx(156.8, abs=0.2)

    def test_inverse_proportionality(self, air):
        base = shock_distance(1.0, 1000.0, air)
        assert shock_distance(2.0, 1000.0, air) == pytest.approx(
            base / 2.0, rel=1e-14)
        assert shock_distance(1.0, 2000.0, air) == pytest.approx(
            base / 2.0, rel=1e-14)


class TestSimpleWave:
    def test_quiescent_signal(self, air):
        prob = SimpleWaveProblem(
            signal=MultiHarmonicSignal(1000.0, ((1, 0.0, 0.0),)), gas=air,
            station=2.0)
        t = 2.0 / air.c0 + 1e-3
        assert prob.velocity(t) == 0.0
        # the emission time solves t - t0 = L/c0 exactly for a quiet signal
        assert prob.emission_time(t) == pytest.approx(t - 2.0 / air.c0,
                                                      abs=1e-15)

    def test_zero_distance_returns_the_signal(self, air):
        sig = MultiHarmonicSignal(2.0 * math.pi * 200.0, ((1, 5.0, 0.0),))
        prob = SimpleWaveProblem(signal=sig, gas=air, station=0.0)
        for t in (0.0, 1e-3, 3.3e-3):
            assert prob.velocity(t) == sig.value(t)

    def test_before_arrival_is_zero(self, air):
        prob = SimpleWaveProblem(
            signal=MultiHarmonicSignal(2000.0, ((1, 5.0, 0.0),)), gas=air,
            station=5.0)
        assert prob.velocity(0.5 * 5.0 / air.c0) == 0.0

    def test_construction_refuses_shock_regime(self, air):
        u0, omega0 = 10.0, 2.0 * math.pi * 440.0
        l_shock = shock_distance(u0, omega0, air)
        with pytest.raises(DuctwaveError, match=r"is at s = 1\.050 >= 1"):
            SimpleWaveProblem(
                signal=MultiHarmonicSignal(omega0, ((1, u0, 0.0),)), gas=air,
                station=1.05 * l_shock)
        SimpleWaveProblem(
            signal=MultiHarmonicSignal(omega0, ((1, u0, 0.0),)), gas=air,
            station=0.95 * l_shock)
        # at 300 m/s the slowest characteristic, c0 - (gamma+1)/2 u0,
        # does not move downstream: refused at any station
        fast = MultiHarmonicSignal(omega0, ((1, 300.0, 0.0),))
        for s in (0.5, 0.0):
            with pytest.raises(DuctwaveError,
                               match=r"slowest characteristic speed .*"
                                     r" = -16\.18 m/s is not positive"):
                SimpleWaveProblem(
                    signal=fast, gas=air,
                    station=s * shock_distance(300.0, omega0, air))
        SimpleWaveProblem(
            signal=MultiHarmonicSignal(omega0, ((1, 280.0, 0.0),)), gas=air,
            station=0.5 * shock_distance(280.0, omega0, air))

    def test_residual_identity(self, air):
        u0, omega0 = 12.0, 2.0 * math.pi * 300.0
        station = 0.7 * shock_distance(u0, omega0, air)
        sig = MultiHarmonicSignal(omega0, ((1, u0, 0.0),))
        prob = SimpleWaveProblem(signal=sig, gas=air, station=station)
        period = 2.0 * math.pi / omega0
        for t in np.linspace(station / air.c0 + 2.0 * period,
                             station / air.c0 + 3.0 * period, 41):
            t0 = prob.emission_time(float(t))
            residual = t - t0 - station / (air.c0 + 1.2 * sig.value(t0))
            assert abs(residual) < 1e-12 * station / air.c0

    def test_matches_characteristic_fan(self, air):
        """Dense fan construction: emit many characteristics, build the
        (arrival time, velocity) curve, and interpolate it in time."""
        u0, omega0 = 10.0, 2.0 * math.pi * 440.0
        station = 0.8 * shock_distance(u0, omega0, air)
        sig = MultiHarmonicSignal(omega0, ((1, u0, 0.0),))
        prob = SimpleWaveProblem(signal=sig, gas=air, station=station)
        period = 2.0 * math.pi / omega0

        t0_fan = np.linspace(0.0, 6.0 * period, 300001)
        u_fan = u0 * np.sin(omega0 * t0_fan)
        arrival = t0_fan + station / (air.c0 + 0.5 * (air.gamma + 1.0) * u_fan)
        order = np.argsort(arrival)    # pre-shock: already monotone

        t_probe = np.linspace(4.0 * period, 5.0 * period, 500)
        u_fan_interp = np.interp(t_probe, arrival[order], u_fan[order])
        u_newton = np.array([prob.velocity(float(t)) for t in t_probe])
        assert np.abs(u_newton - u_fan_interp).max() < 1e-6 * u0

    def test_periodicity_after_transient(self, air):
        u0, omega0 = 15.0, 2.0 * math.pi * 440.0
        station = 0.8 * shock_distance(u0, omega0, air)
        prob = SimpleWaveProblem(
            signal=MultiHarmonicSignal(omega0, ((1, u0, 0.0),)), gas=air,
            station=station)
        period = 2.0 * math.pi / omega0
        base = station / air.c0 + 3.0 * period
        for frac in np.linspace(0.0, 1.0, 37):
            t = base + frac * period
            a = prob.velocity(t)
            b = prob.velocity(t + period)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-9 * u0)

    def test_monotone_steepening(self, air):
        """max |du/dt| grows like 1/(1-s): at s = 0.8 it exceeds 4x the
        near-source slope and stays within 25% of the 5x prediction."""
        u0, omega0 = 15.0, 2.0 * math.pi * 440.0
        l_shock = shock_distance(u0, omega0, air)
        period = 2.0 * math.pi / omega0
        sig = MultiHarmonicSignal(omega0, ((1, u0, 0.0),))

        def max_slope(s):
            prob = SimpleWaveProblem(signal=sig, gas=air, station=s * l_shock)
            start = s * l_shock / air.c0 + 2.0 * period
            t = np.linspace(start, start + period, 4097)
            u = np.array([prob.velocity(float(ti)) for ti in t])
            return np.abs(np.gradient(u, t)).max()

        slopes = [max_slope(s) for s in (0.01, 0.4, 0.8)]
        assert slopes[0] < slopes[1] < slopes[2]
        ratio = slopes[2] / slopes[0]
        assert ratio > 4.0
        assert ratio == pytest.approx(5.0, rel=0.25)


class TestKirchhoff:
    def test_corrected_alpha_reference(self, air):
        # hand evaluation of sqrt(nu omega/2)/(h c0) (1 + (g-1)/sqrt(Pr))
        model = KirchhoffModel(gas=air, h=0.005, mode=CORRECTED)
        omega = 2.0 * math.pi * 1000.0
        nu = air.mu / air.rho0
        prandtl = air.mu * air.cp / air.k_cond
        byhand = math.sqrt(nu * omega / 2.0) / (0.005 * air.c0) \
            * (1.0 + 0.4 / math.sqrt(prandtl))
        alpha = kirchhoff_alpha(model, omega)
        assert alpha == pytest.approx(byhand, rel=1e-12)
        assert alpha == pytest.approx(0.187, abs=0.005)

    def test_alpha_scalings(self, air):
        omega = 2.0 * math.pi * 700.0
        corr = KirchhoffModel(air, 0.004, CORRECTED)
        wide = KirchhoffModel(air, 0.008, CORRECTED)
        assert kirchhoff_alpha(corr, omega) == pytest.approx(
            2.0 * kirchhoff_alpha(wide, omega), rel=1e-12)
        assert kirchhoff_alpha(corr, 4.0 * omega) == pytest.approx(
            2.0 * kirchhoff_alpha(corr, omega), rel=1e-12)

    def test_phase_speed(self, air):
        omega = 2.0 * math.pi * 1000.0
        model = KirchhoffModel(air, 0.005, CORRECTED)
        delta = kirchhoff_alpha(model, omega) * air.c0 / omega
        assert delta == pytest.approx(0.0102, abs=3e-4)
        cprime = kirchhoff_phase_speed(model, omega)
        assert cprime == pytest.approx(air.c0 * (1.0 - delta), rel=1e-12)
        assert cprime < air.c0

    def test_phase_speed_wide_duct_limit(self, air):
        omega = 2.0 * math.pi * 1000.0
        wide = KirchhoffModel(air, 10.0, CORRECTED)
        assert kirchhoff_phase_speed(wide, omega) == pytest.approx(
            air.c0, rel=1e-5)

    def test_out_of_validity(self, air):
        narrow = KirchhoffModel(air, 1e-6, CORRECTED)
        with pytest.raises(DuctwaveError,
                           match="^dispersion correction .* >= 0.5; wide-tube"
                                 " expansion invalid"):
            kirchhoff_phase_speed(narrow, 2.0 * math.pi * 20.0)

    def test_propagate_identity_and_semigroup(self, air):
        model = KirchhoffModel(air, 0.005, CORRECTED)
        omega = 2.0 * math.pi * 1000.0
        amp0, delay0 = kirchhoff_propagate(model, omega, 3.0, 0.0)
        assert amp0 == 3.0
        assert delay0 == 0.0
        a1, d1 = kirchhoff_propagate(model, omega, 3.0, 0.4)
        a2, d2 = kirchhoff_propagate(model, omega, a1, 0.6)
        a_full, d_full = kirchhoff_propagate(model, omega, 3.0, 1.0)
        assert a2 == pytest.approx(a_full, rel=1e-12)
        assert d1 + d2 == pytest.approx(d_full, rel=1e-12)

    def test_propagate_reference_ratio(self, air):
        model = KirchhoffModel(air, 0.005, CORRECTED)
        omega = 2.0 * math.pi * 1000.0
        amp, _ = kirchhoff_propagate(model, omega, 1.0, 1.0)
        assert amp == pytest.approx(0.829, abs=0.005)

    def test_invalid_inputs(self, air):
        model = KirchhoffModel(air, 0.005, CORRECTED)
        with pytest.raises(ValueError):
            kirchhoff_alpha(model, 0.0)
        with pytest.raises(ValueError):
            kirchhoff_propagate(model, 100.0, 1.0, -1.0)
        for mode in ("verbatim", "printed"):
            with pytest.raises(ValueError):
                KirchhoffModel(air, 0.005, mode=mode)

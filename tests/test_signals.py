"""Inflow waveform objects."""

import math

import pytest

from ductwave.errors import DuctwaveError
from ductwave.signals import MultiHarmonicSignal, SampledSignal
from reference_forms import raised_cosine_pulse


def test_sine_value_and_derivative():
    # a sine is the one-component sum; 1*w + 0.0 and 0 + a*sin(w) are
    # exact, so it evaluates bit for bit as a*sin(w t)
    sig = MultiHarmonicSignal(100.0, ((1, 2.0, 0.0),))
    for t in (0.013, 0.3, 7.7):
        assert sig.value(t) == 2.0 * math.sin(100.0 * t)
        assert sig.derivative(t) == 2.0 * 100.0 * math.cos(100.0 * t)
    assert sig.value(0.0) == 0.0
    assert sig.value(math.pi / 200.0) == pytest.approx(2.0, rel=1e-12)
    assert sig.derivative(0.0) == pytest.approx(200.0, rel=1e-12)
    assert sig.peak() == 2.0
    assert sig.max_rate() == pytest.approx(200.0, rel=1e-12)
    assert sig.period == pytest.approx(2.0 * math.pi / 100.0, rel=1e-14)


def test_sine_rejects_bad_pulsation():
    with pytest.raises(ValueError):
        MultiHarmonicSignal(0.0, ((1, 1.0, 0.0),))


def test_multiharmonic_matches_manual_sum():
    comps = ((1, 1.0, 0.0), (3, 0.5, 0.7))
    sig = MultiHarmonicSignal(omega0=50.0, components=comps)
    t = 0.013
    expected = math.sin(50.0 * t) + 0.5 * math.sin(150.0 * t + 0.7)
    assert sig.value(t) == pytest.approx(expected, rel=1e-12)
    d_expected = 50.0 * math.cos(50.0 * t) + 0.5 * 150.0 * math.cos(150.0 * t + 0.7)
    assert sig.derivative(t) == pytest.approx(d_expected, rel=1e-12)
    assert sig.peak() == 1.5
    # the dense-sampled rate bound cannot exceed the analytic bound
    assert sig.max_rate() <= 50.0 + 75.0 + 1e-9


def test_multiharmonic_validates_components():
    with pytest.raises(ValueError):
        MultiHarmonicSignal(omega0=10.0, components=())
    with pytest.raises(ValueError):
        MultiHarmonicSignal(omega0=10.0, components=((0, 1.0, 0.0),))


def test_sampled_interpolates_linearly():
    sig = SampledSignal(dtau=0.5, values=(0.0, 1.0, 0.0))
    assert sig.value(0.25) == pytest.approx(0.5)
    assert sig.value(0.5) == pytest.approx(1.0)
    assert sig.value(1.0) == pytest.approx(0.0)
    assert sig.max_rate() == pytest.approx(2.0)


def test_sampled_rejects_out_of_range():
    sig = SampledSignal(dtau=0.5, values=(0.0, 1.0, 0.0))
    with pytest.raises(DuctwaveError,
                       match=r"^t=1\.5 outside sampled range \[0, 1\.0\]$"):
        sig.value(1.5)
    with pytest.raises(DuctwaveError,
                       match=r"^t=-0\.1 outside sampled range \[0, 1\.0\]$"):
        sig.value(-0.1)


def test_raised_cosine_pulse_shape():
    pulse = raised_cosine_pulse(peak=3.0, width=1.0, dtau=0.01, total=2.0)
    assert pulse.value(0.0) == 0.0
    assert pulse.value(0.5) == pytest.approx(3.0, rel=1e-6)
    assert pulse.value(1.5) == 0.0
    assert max(abs(v) for v in pulse.values) == pytest.approx(3.0, rel=1e-3)

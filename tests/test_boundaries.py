"""Characteristic inflow/outflow boundary updates."""

import math

import numpy as np
import pytest
from scipy import optimize

from ductwave.boundaries import (
    external_from_pressure,
    external_from_velocity,
    foot_point,
    inflow_update_pressure,
    inflow_update_velocity,
    outflow_update,
)
from ductwave.errors import UnsupportedRegimeError
from ductwave.gas import (
    ConservedState,
    PrimitiveState,
    conserved_from_primitive,
    primitive_from_conserved,
    sound_speed,
)

DT = 2e-5
DX = 0.01
J_OUT = 40      # outlet node index passed to outflow_update


def _rest(air):
    return conserved_from_primitive(PrimitiveState(air.rho0, 0.0, air.p0), air)


def _solve_three_conditions(air, r_minus, r_plus):
    """Independent nonlinear solve of the boundary system: match both
    Riemann invariants and the rest entropy in (rho, u, p) variables."""

    def residuals(vars_):
        rho, u, p = vars_
        c = math.sqrt(air.gamma * p / rho)
        return [
            u - 2.0 * c / (air.gamma - 1.0) - r_minus,
            u + 2.0 * c / (air.gamma - 1.0) - r_plus,
            p / rho ** air.gamma - air.s0,
        ]

    start = [air.rho0 * 1.01, 0.1, air.p0 * 1.01]
    sol = optimize.fsolve(residuals, start, full_output=True, xtol=1e-13)
    assert sol[2] == 1, sol[3]
    return sol[0]


class TestExternalState:
    def test_matched_pressure_is_rest(self, air):
        ext = external_from_pressure(air.p0, air)
        assert ext.u_e == 0.0
        assert ext.c_e == air.c0

    def test_unit_velocity_construction(self, air):
        ext = external_from_pressure(air.p0 + air.rho0 * air.c0, air)
        assert ext.u_e == pytest.approx(1.0, rel=1e-14)

    def test_small_overpressure(self, air):
        ext = external_from_pressure(air.p0 + 100.0, air)
        assert ext.u_e == pytest.approx(0.2424, abs=1e-3)
        assert ext.c_e - air.c0 == pytest.approx(0.0485, abs=1e-4)

    def test_velocity_variants(self, air):
        assert external_from_velocity(0.0, air) \
            == external_from_pressure(air.p0, air)
        ext = external_from_velocity(1.0, air)
        assert ext.c_e - air.c0 == pytest.approx(0.2, rel=1e-12)
        neg = external_from_velocity(-1.0, air)
        assert neg.c_e - air.c0 == pytest.approx(-(ext.c_e - air.c0), rel=1e-12)

    def test_invalid_pressure_rejected(self, air):
        with pytest.raises(ValueError):
            external_from_pressure(0.0, air)


class TestFootPoint:
    def test_zero_celerity_keeps_boundary(self, air):
        w_b = np.asarray(_rest(air))
        w_n = np.asarray(conserved_from_primitive(
            PrimitiveState(1.3, 5.0, 1.1e5), air))
        np.testing.assert_array_equal(foot_point((w_b, w_n), 0.0, DT, DX), w_b)

    def test_full_courant_reaches_neighbor(self, air):
        w_b = np.asarray(_rest(air))
        w_n = np.asarray(conserved_from_primitive(
            PrimitiveState(1.3, 5.0, 1.1e5), air))
        out = foot_point((w_b, w_n), DX / DT, DT, DX)
        np.testing.assert_allclose(out, w_n, rtol=1e-15)

    def test_uniform_field_is_interpolation_proof(self, air):
        w = np.asarray(_rest(air))
        for celerity in (0.0, 123.4, -250.0, 1e5):
            np.testing.assert_array_equal(foot_point((w, w), celerity, DT, DX), w)

    def test_weight_clamped(self, air):
        w_b = np.zeros(3) + 1.0
        w_n = np.zeros(3) + 2.0
        out = foot_point((w_b, w_n), 1e9, DT, DX)
        np.testing.assert_array_equal(out, w_n)

    def test_interpolation_weight(self, air):
        w_b = np.array([1.0, 0.0, 10.0])
        w_n = np.array([2.0, 4.0, 30.0])
        lam = 0.25
        out = foot_point((w_b, w_n), lam * DX / DT, DT, DX)
        np.testing.assert_allclose(out, w_b + lam * (w_n - w_b), rtol=1e-14)


class TestInflowUpdates:
    def test_pressure_rest_fixed_point(self, air):
        w = _rest(air)
        out = inflow_update_pressure(air.p0, w, w, air, DT, DX)
        prim = primitive_from_conserved(out, air)
        assert abs(prim.u) < 1e-12
        assert prim.p == pytest.approx(air.p0, rel=1e-13)
        assert prim.rho == pytest.approx(air.rho0, rel=1e-13)

    def test_velocity_rest_fixed_point(self, air):
        w = _rest(air)
        out = inflow_update_velocity(0.0, w, w, air, DT, DX)
        prim = primitive_from_conserved(out, air)
        assert abs(prim.u) < 1e-12

    @pytest.mark.parametrize("pi_extra", [100.0, -150.0, 2000.0])
    def test_entropy_pinned(self, air, pi_extra):
        w = _rest(air)
        out = inflow_update_pressure(air.p0 + pi_extra, w, w, air, DT, DX)
        prim = primitive_from_conserved(out, air)
        assert prim.p / prim.rho ** air.gamma == pytest.approx(air.s0, rel=1e-12)

    def test_pressure_update_matches_root_finder(self, air):
        w = _rest(air)
        pi_val = air.p0 + 100.0
        out = primitive_from_conserved(
            inflow_update_pressure(pi_val, w, w, air, DT, DX), air)
        # independent oracle: foot point of a uniform rest field is rest
        u_e = (pi_val - air.p0) / (air.rho0 * air.c0)
        c_e = air.c0 + 0.2 * u_e
        r_minus = 0.0 - 2.0 * air.c0 / 0.4
        r_plus = u_e + 2.0 * c_e / 0.4
        rho, u, p = _solve_three_conditions(air, r_minus, r_plus)
        assert out.u == pytest.approx(u, rel=1e-9)
        assert out.rho == pytest.approx(rho, rel=1e-9)
        assert out.p == pytest.approx(p, rel=1e-9)
        # linearized expectation: half the external velocity jump appears
        # immediately; against a rest interior the boundary carries u_e/2
        # the incoming invariant raises u by u_e/2 twice (r+ and c_e)
        assert out.u == pytest.approx(u_e, rel=1e-3)

    def test_velocity_update_matches_root_finder(self, air):
        w = _rest(air)
        u_val = 0.1
        out = primitive_from_conserved(
            inflow_update_velocity(u_val, w, w, air, DT, DX), air)
        c_e = air.c0 + 0.2 * u_val
        r_minus = -2.0 * air.c0 / 0.4
        r_plus = u_val + 2.0 * c_e / 0.4
        rho, u, p = _solve_three_conditions(air, r_minus, r_plus)
        assert out.u == pytest.approx(u, rel=1e-9)
        assert out.p == pytest.approx(p, rel=1e-9)
        assert out.u == pytest.approx(u_val, rel=1e-6)

    def test_supersonic_boundary_rejected(self, air):
        fast = conserved_from_primitive(PrimitiveState(1.2, 500.0, 101325.0), air)
        with pytest.raises(UnsupportedRegimeError):
            inflow_update_velocity(0.0, fast, fast, air, DT, DX)


class TestOutflowUpdate:
    def test_rest_fixed_point(self, air):
        w = _rest(air)
        out = outflow_update(w, w, air, DT, DX, J_OUT)
        prim = primitive_from_conserved(out, air)
        assert abs(prim.u) < 1e-12
        assert prim.p == pytest.approx(air.p0, rel=1e-13)

    def test_riemann_invariant_pinned(self, air):
        w_in = conserved_from_primitive(PrimitiveState(1.25, 6.0, 1.08e5), air)
        w_b = conserved_from_primitive(PrimitiveState(1.22, 4.0, 1.05e5), air)
        out = primitive_from_conserved(
            outflow_update(w_in, w_b, air, DT, DX, J_OUT), air)
        c = sound_speed(out, air)
        r_minus = out.u - 2.0 * c / 0.4
        assert r_minus == pytest.approx(-2.0 * air.c0 / 0.4, rel=1e-12)
        assert out.p / out.rho ** air.gamma == pytest.approx(air.s0, rel=1e-12)

    def test_matches_root_finder(self, air):
        w_in = conserved_from_primitive(PrimitiveState(1.21, 3.0, 1.03e5), air)
        w_b = conserved_from_primitive(PrimitiveState(1.2, 2.0, 1.01e5), air)
        out = primitive_from_conserved(
            outflow_update(w_in, w_b, air, DT, DX, J_OUT), air)
        # oracle recomputes the foot state and the invariant transport
        prim_b = primitive_from_conserved(w_b, air)
        lam = abs(prim_b.u + sound_speed(prim_b, air)) * DT / DX
        foot = np.asarray(w_b) + lam * (np.asarray(w_in) - np.asarray(w_b))
        prim_foot = primitive_from_conserved(
            ConservedState(*[float(v) for v in foot]), air)
        r_plus = prim_foot.u + 2.0 * sound_speed(prim_foot, air) / 0.4
        rho, u, p = _solve_three_conditions(air, -2.0 * air.c0 / 0.4, r_plus)
        assert out.u == pytest.approx(u, rel=1e-9)
        assert out.p == pytest.approx(p, rel=1e-9)

    def test_supersonic_rejected(self, air):
        fast = conserved_from_primitive(PrimitiveState(1.2, 400.0, 101325.0), air)
        with pytest.raises(UnsupportedRegimeError, match=f"node {J_OUT}:"):
            outflow_update(fast, fast, air, DT, DX, J_OUT)

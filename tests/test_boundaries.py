"""The characteristic boundary update, at the inlet and at the outlet."""

import math

import numpy as np
import pytest
from scipy import optimize

from ductwave.boundaries import boundary_row, foot_point
from ductwave.errors import DuctwaveError
from ductwave.gas import conserved_array, primitive_arrays

DT = 2e-5
DX = 0.01
J_OUT = 40      # outlet node index passed to the outlet update


def _inlet(u_e, w0, w1, air, dt=DT):
    """Row at the inlet, node 0, from the rows at nodes 0 and 1."""
    return boundary_row(w0, w1, u_e, -1, air, dt, DX, 0)


def _outlet(w_jm1, w_j, air, dt=DT):
    """Nonreflecting row at the outlet, node J_OUT, from the rows at J-1
    and J: the rest external state, u_e = 0, on side +1."""
    return boundary_row(w_j, w_jm1, 0.0, +1, air, dt, DX, J_OUT)


def _pressure_u_e(pi_val, air):
    """External velocity of an imposed total pressure, (pi - p0)/(rho0 c0),
    as the driver forms it."""
    return (pi_val - air.p0) / (air.rho0 * air.c0)


def _rest(air):
    return conserved_array(air.rho0, 0.0, air.p0, air)


def _sound_speed(rho, p, air):
    return math.sqrt(air.gamma * p / rho)


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


def _mirror(w):
    """The row seen from the other end of the duct: u -> -u."""
    return np.array([w[0], -w[1], w[2]])


def _speeds(w, air):
    """(u, c) of a conserved row."""
    rho, u, p = primitive_arrays(w, air)
    return u, _sound_speed(rho, p, air)


class TestExternalState:
    """The linearized external state (u_e, c_e = c0 + (g-1)/2 u_e) enters
    only through u_e. Against a rest interior the rebuilt inlet node takes
    it: u = u_e and c = c_e, up to rounding."""

    def test_matched_pressure_is_rest(self, air):
        # pi = p0 gives u_e = 0 exactly: the u_e = 0 velocity update
        w_b = conserved_array(1.21, 3.0, 1.03e5, air)
        w_n = conserved_array(1.2, 2.0, 1.01e5, air)
        assert _pressure_u_e(air.p0, air) == 0.0
        np.testing.assert_array_equal(
            _inlet(_pressure_u_e(air.p0, air), w_b, w_n, air),
            _inlet(0.0, w_b, w_n, air))

    def test_unit_velocity_construction(self, air):
        w_b = conserved_array(1.21, 3.0, 1.03e5, air)
        w_n = conserved_array(1.2, 2.0, 1.01e5, air)
        u_e = _pressure_u_e(air.p0 + air.rho0 * air.c0, air)
        np.testing.assert_allclose(_inlet(u_e, w_b, w_n, air),
                                   _inlet(1.0, w_b, w_n, air), rtol=1e-12)

    def test_small_overpressure(self, air):
        w = _rest(air)
        u, c = _speeds(_inlet(_pressure_u_e(air.p0 + 100.0, air), w, w, air),
                       air)
        assert u == pytest.approx(0.2424, abs=1e-3)
        assert c - air.c0 == pytest.approx(0.0485, abs=1e-4)

    def test_velocity_variants(self, air):
        w = _rest(air)
        _, c_e = _speeds(_inlet(1.0, w, w, air), air)
        assert c_e - air.c0 == pytest.approx(0.2, rel=1e-9)
        _, c_neg = _speeds(_inlet(-1.0, w, w, air), air)
        assert c_neg - air.c0 == pytest.approx(-(c_e - air.c0), rel=1e-9)

    def test_invalid_external_speed_rejected(self, air):
        # c_e = c0 + (g-1)/2 u_e must stay positive; a non-positive
        # imposed pressure is refused by the driver before u_e is formed
        w = _rest(air)
        with pytest.raises(DuctwaveError,
                           match="^external sound speed must be positive at"
                                 " boundary node 0:"):
            _inlet(-2000.0, w, w, air)


def test_outlet_is_the_mirrored_rest_inlet(air):
    """The nonreflecting outflow is the inflow update with u_e = 0 seen
    from the other end: bitwise, on random subsonic states and steps."""
    rng = np.random.default_rng(8)
    for _ in range(500):
        rho = air.rho0 * rng.uniform(0.8, 1.2, 2)
        u = rng.uniform(-150.0, 150.0, 2)
        p = air.p0 * rng.uniform(0.8, 1.2, 2)
        w_jm1, w_j = (conserved_array(rho[i], u[i], p[i], air)
                      for i in range(2))
        dt = rng.uniform(0.1, 1.0) * DX / air.c0
        inlet = _inlet(0.0, _mirror(w_j), _mirror(w_jm1), air, dt)
        np.testing.assert_array_equal(_outlet(w_jm1, w_j, air, dt),
                                      _mirror(inlet))


class TestFootPoint:
    def test_zero_celerity_keeps_boundary(self, air):
        w_b = _rest(air)
        w_n = conserved_array(1.3, 5.0, 1.1e5, air)
        np.testing.assert_array_equal(foot_point((w_b, w_n), 0.0, DT, DX), w_b)

    def test_full_courant_reaches_neighbor(self, air):
        w_b = _rest(air)
        w_n = conserved_array(1.3, 5.0, 1.1e5, air)
        out = foot_point((w_b, w_n), DX / DT, DT, DX)
        np.testing.assert_allclose(out, w_n, rtol=1e-15)

    def test_uniform_field_is_interpolation_proof(self, air):
        w = _rest(air)
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
        out = _inlet(_pressure_u_e(air.p0, air), w, w, air)
        rho, u, p = primitive_arrays(out, air)
        assert abs(u) < 1e-12
        assert p == pytest.approx(air.p0, rel=1e-13)
        assert rho == pytest.approx(air.rho0, rel=1e-13)

    def test_velocity_rest_fixed_point(self, air):
        w = _rest(air)
        out = _inlet(0.0, w, w, air)
        _, u, _ = primitive_arrays(out, air)
        assert abs(u) < 1e-12

    @pytest.mark.parametrize("pi_extra", [100.0, -150.0, 2000.0])
    def test_entropy_pinned(self, air, pi_extra):
        w = _rest(air)
        out = _inlet(_pressure_u_e(air.p0 + pi_extra, air), w, w, air)
        rho, _, p = primitive_arrays(out, air)
        assert p / rho ** air.gamma == pytest.approx(air.s0, rel=1e-12)

    def test_pressure_update_matches_root_finder(self, air):
        w = _rest(air)
        pi_val = air.p0 + 100.0
        u_e = (pi_val - air.p0) / (air.rho0 * air.c0)
        out_rho, out_u, out_p = primitive_arrays(_inlet(u_e, w, w, air), air)
        # independent oracle: foot point of a uniform rest field is rest
        c_e = air.c0 + 0.2 * u_e
        r_minus = 0.0 - 2.0 * air.c0 / 0.4
        r_plus = u_e + 2.0 * c_e / 0.4
        rho, u, p = _solve_three_conditions(air, r_minus, r_plus)
        assert out_u == pytest.approx(u, rel=1e-9)
        assert out_rho == pytest.approx(rho, rel=1e-9)
        assert out_p == pytest.approx(p, rel=1e-9)
        # linearized expectation: half the external velocity jump appears
        # immediately; against a rest interior the boundary carries u_e/2
        # the incoming invariant raises u by u_e/2 twice (r+ and c_e)
        assert out_u == pytest.approx(u_e, rel=1e-3)

    def test_velocity_update_matches_root_finder(self, air):
        w = _rest(air)
        u_val = 0.1
        out_rho, out_u, out_p = primitive_arrays(
            _inlet(u_val, w, w, air), air)
        c_e = air.c0 + 0.2 * u_val
        r_minus = -2.0 * air.c0 / 0.4
        r_plus = u_val + 2.0 * c_e / 0.4
        rho, u, p = _solve_three_conditions(air, r_minus, r_plus)
        assert out_u == pytest.approx(u, rel=1e-9)
        assert out_p == pytest.approx(p, rel=1e-9)
        assert out_u == pytest.approx(u_val, rel=1e-6)

    def test_supersonic_boundary_rejected(self, air):
        fast = conserved_array(1.2, 500.0, 101325.0, air)
        with pytest.raises(DuctwaveError,
                           match="^supersonic state at boundary node 0:"):
            _inlet(0.0, fast, fast, air)


class TestOutflowUpdate:
    def test_rest_fixed_point(self, air):
        w = _rest(air)
        out = _outlet(w, w, air)
        _, u, p = primitive_arrays(out, air)
        assert abs(u) < 1e-12
        assert p == pytest.approx(air.p0, rel=1e-13)

    def test_riemann_invariant_pinned(self, air):
        w_in = conserved_array(1.25, 6.0, 1.08e5, air)
        w_b = conserved_array(1.22, 4.0, 1.05e5, air)
        out_rho, out_u, out_p = primitive_arrays(
            _outlet(w_in, w_b, air), air)
        c = _sound_speed(out_rho, out_p, air)
        r_minus = out_u - 2.0 * c / 0.4
        assert r_minus == pytest.approx(-2.0 * air.c0 / 0.4, rel=1e-12)
        assert out_p / out_rho ** air.gamma == pytest.approx(air.s0, rel=1e-12)

    def test_matches_root_finder(self, air):
        w_in = conserved_array(1.21, 3.0, 1.03e5, air)
        w_b = conserved_array(1.2, 2.0, 1.01e5, air)
        out_rho, out_u, out_p = primitive_arrays(
            _outlet(w_in, w_b, air), air)
        # oracle recomputes the foot state and the invariant transport
        rho_b, u_b, p_b = primitive_arrays(w_b, air)
        lam = abs(u_b + _sound_speed(rho_b, p_b, air)) * DT / DX
        foot = w_b + lam * (w_in - w_b)
        rho_f, u_f, p_f = primitive_arrays(foot, air)
        r_plus = u_f + 2.0 * _sound_speed(rho_f, p_f, air) / 0.4
        rho, u, p = _solve_three_conditions(air, -2.0 * air.c0 / 0.4, r_plus)
        assert out_u == pytest.approx(u, rel=1e-9)
        assert out_p == pytest.approx(p, rel=1e-9)

    def test_supersonic_rejected(self, air):
        fast = conserved_array(1.2, 400.0, 101325.0, air)
        with pytest.raises(DuctwaveError, match="^supersonic state at"
                                                f" boundary node {J_OUT}:"):
            _outlet(fast, fast, air)


def _inflow(w_b, w_n, air, dt):
    return _inlet(0.0, w_b, w_n, air, dt)


def _outflow(w_b, w_n, air, dt):
    return _outlet(w_n, w_b, air, dt)


@pytest.mark.parametrize("update, node", [(_inflow, 0), (_outflow, J_OUT)])
class TestFailuresNameTheNode:
    """Every boundary check names the node: 0 at the inflow, J at the outflow
    (the supersonic case is checked in the classes above).

    A step of dt = 2 dx/c0 from a rest boundary node clamps the foot point
    onto the interior neighbour, so the neighbour's state is the foot state.
    """

    def test_non_positive_foot_state(self, air, update, node):
        with pytest.raises(DuctwaveError,
                           match=rf"^non-positive density .*\(node {node}\)$"):
            update(_rest(air), np.array([-1.0, 0.0, 1e5]), air, 2 * DX / air.c0)

    def test_crossed_invariants(self, air, update, node):
        # a foot moving away from the boundary at 4000 m/s carries an
        # outgoing invariant beyond the incoming one: r_plus <= r_minus
        u_foot = 4000.0 if node == 0 else -4000.0
        foot = conserved_array(air.rho0, u_foot, air.p0, air)
        with pytest.raises(DuctwaveError,
                           match=rf"must exceed r_minus=.* \(node {node}\)$"):
            update(_rest(air), foot, air, 2 * DX / air.c0)

"""Gas model, state conversions, and characteristic variables."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ductwave.boundaries import boundary_row
from ductwave.errors import DuctwaveError
from ductwave.gas import (
    GasModel,
    conserved_array,
    primitive_arrays,
    primitive_from_characteristics,
)

# Acoustic-regime states: kinetic energy stays below the internal energy,
# so the conversion round trip is well conditioned.
finite_rho = st.floats(min_value=0.1, max_value=5.0)
finite_u = st.floats(min_value=-100.0, max_value=100.0)
finite_p = st.floats(min_value=2e4, max_value=1e6)


class TestGasModel:
    def test_default_derived_quantities(self, air):
        assert air.c0 == pytest.approx(math.sqrt(1.4 * 101325.0 / 1.2), rel=1e-14)
        assert air.c0 ** 2 * air.rho0 == pytest.approx(air.gamma * air.p0, rel=1e-14)
        assert air.s0 == pytest.approx(101325.0 / 1.2 ** 1.4, rel=1e-14)

    def test_viscous_length_order_of_magnitude(self, air):
        # The default air data give a viscous length mu / (rho0 c0) of a
        # few tens of nanometers.
        assert 1e-8 < air.mu / (air.rho0 * air.c0) < 1e-7

    @pytest.mark.parametrize("field,value", [
        ("gamma", 1.0), ("gamma", 0.9), ("mu", 0.0), ("k_cond", -1.0),
        ("cp", 0.0), ("rho0", 0.0), ("p0", -5.0),
    ])
    def test_invalid_constants_rejected(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            GasModel(**kwargs)


def _invariants(rho, u, p, gas):
    """Riemann invariants and entropy of a primitive state, by hand."""
    c = math.sqrt(gas.gamma * p / rho)
    gm1 = gas.gamma - 1.0
    return u + 2.0 * c / gm1, u - 2.0 * c / gm1, p / rho ** gas.gamma


class TestConversions:
    def test_primitive_from_conserved_rest(self, air):
        # etot = p/(gamma-1) = 101325/0.4 by hand
        rho, u, p = primitive_arrays(np.array([1.2, 0.0, 253312.5]), air)
        assert rho == 1.2
        assert u == 0.0
        assert p == pytest.approx(101325.0, rel=1e-14)

    def test_primitive_from_conserved_rest_any_energy(self, air):
        e0 = 1.7e5
        _, u, p = primitive_arrays(np.array([1.0, 0.0, e0]), air)
        assert u == 0.0
        assert p == pytest.approx(0.4 * e0, rel=1e-14)

    def test_primitive_from_conserved_with_kinetic_energy(self, air):
        # add kinetic energy 0.5*1.2*100 = 60 J/m^3 by hand
        _, u, p = primitive_arrays(np.array([1.2, 12.0, 253312.5 + 60.0]), air)
        assert u == pytest.approx(10.0, rel=1e-14)
        assert p == pytest.approx(101325.0, rel=1e-12)

    def test_conserved_from_primitive_examples(self, air):
        w = conserved_array(1.2, 0.0, 101325.0, air)
        assert w[2] == pytest.approx(253312.5, rel=1e-14)
        w = conserved_array(1.2, 10.0, 101325.0, air)
        assert w[1] == pytest.approx(12.0, rel=1e-14)
        assert w[2] == pytest.approx(253372.5, rel=1e-14)

    def test_invalid_states_rejected(self, air):
        # every conserved row a boundary reads: positive density and
        # internal energy
        updates = (
            lambda w: boundary_row(w, w, 0.0, -1, air, 2e-5, 0.01, 0),
            lambda w: boundary_row(w, w, 0.0, +1, air, 2e-5, 0.01, 9),
        )
        for update in updates:
            with pytest.raises(DuctwaveError, match=r"^non-positive density"
                                                    r" .* \(node \d+\)$"):
                update(np.array([-1.0, 0.0, 1e5]))
            with pytest.raises(DuctwaveError,
                               match=r"^non-positive internal energy .*"
                                     r" \(node \d+\)$"):
                update(np.array([1.0, 100.0, 100.0 ** 2 / 2.0]))
        # the characteristic inverse: positive sound speed and density
        with pytest.raises(DuctwaveError,
                           match=r"^r_plus=1\.0 must exceed r_minus=2\.0$"):
            primitive_from_characteristics(1.0, 2.0, air.s0, air)
        with pytest.raises(DuctwaveError, match="^non-positive rebuilt"):
            primitive_from_characteristics(1e-150, 0.0, air.s0, air)

    def test_error_carries_node_context(self, air):
        with pytest.raises(DuctwaveError, match=r"^non-positive rebuilt"
                                                r" .*\(node 7\)$") as err:
            primitive_from_characteristics(1e-150, 0.0, air.s0, air, node=7)
        assert err.value.node == 7
        with pytest.raises(DuctwaveError,
                           match=r"^r_plus=1\.0 must exceed r_minus=1\.0"
                                 r" \(node 7\)$") as err:
            primitive_from_characteristics(1.0, 1.0, air.s0, air, node=7)
        assert err.value.node == 7

    def test_overflowing_state_is_refused_with_its_node(self, air):
        # a sound speed near 1e139 overflows the rebuilt density; near
        # 1e159 its square is already inf, and inf ** x raises nothing
        for r_plus in (1e140, 1e160):
            with pytest.raises(DuctwaveError,
                               match=r"^rebuilt state overflows"
                                     r" .*\(node 3\)$") as err:
                primitive_from_characteristics(r_plus, 0.0, air.s0, air,
                                               node=3)
            assert err.value.node == 3

    @given(rho=finite_rho, u=finite_u, p=finite_p)
    def test_round_trip_primitive_conserved(self, rho, u, p):
        air = GasModel()
        back = primitive_arrays(conserved_array(rho, u, p, air), air)
        assert back[0] == pytest.approx(rho, rel=1e-14)
        assert back[1] == pytest.approx(u, rel=1e-14, abs=1e-12)
        assert back[2] == pytest.approx(p, rel=1e-14)


class TestSoundSpeed:
    """The rest sound speed c0, which also sets the frozen time step."""

    def test_reference_value(self, air):
        assert air.c0 == pytest.approx(343.82, abs=0.01)

    def test_joint_scaling_invariance(self, air):
        for lam in (0.3, 2.0, 17.5):
            scaled = GasModel(rho0=1.2 * lam, p0=101325.0 * lam)
            assert scaled.c0 == pytest.approx(air.c0, rel=1e-14)

    def test_square_root_law(self, air):
        assert GasModel(p0=4.0 * 101325.0).c0 \
            == pytest.approx(2.0 * air.c0, rel=1e-14)


class TestCharacteristics:
    def test_rest_state_invariants(self, air):
        r_plus, r_minus, entropy = _invariants(1.2, 0.0, 101325.0, air)
        assert r_minus == pytest.approx(-1719.1, abs=0.1)
        assert r_plus == pytest.approx(-r_minus, rel=1e-14)
        assert entropy == pytest.approx(air.s0, rel=1e-14)
        rho, u, p = primitive_from_characteristics(r_plus, r_minus, entropy,
                                                   air)
        assert (rho, u, p) == pytest.approx((1.2, 0.0, 101325.0), rel=1e-13)

    def test_spread_is_four_c_over_gm1(self, air):
        r_plus, r_minus = 1780.0, -1650.0
        rho, _, p = primitive_from_characteristics(r_plus, r_minus, air.s0, air)
        c = math.sqrt(air.gamma * p / rho)
        assert r_plus - r_minus == pytest.approx(4.0 * c / 0.4, rel=1e-14)

    def test_round_trip(self, air):
        rho, u, p = 1.05, -7.5, 97000.0
        back = primitive_from_characteristics(*_invariants(rho, u, p, air), air)
        assert back[0] == pytest.approx(rho, rel=1e-12)
        assert back[1] == pytest.approx(u, rel=1e-12)
        assert back[2] == pytest.approx(p, rel=1e-12)

    @given(rho=finite_rho, u=finite_u, p=finite_p)
    def test_round_trip_random(self, rho, u, p):
        air = GasModel()
        back = primitive_from_characteristics(*_invariants(rho, u, p, air), air)
        assert back[0] == pytest.approx(rho, rel=1e-12)
        assert back[2] == pytest.approx(p, rel=1e-12)

    def test_shifted_rest_invariants_give_uniform_velocity(self, air):
        # r_+/- = +/-2c0/(gamma-1) + U solves to u = U, c = c0 by hand.
        big_u = 3.7
        rho, u, p = primitive_from_characteristics(
            2.0 * air.c0 / 0.4 + big_u, -2.0 * air.c0 / 0.4 + big_u,
            air.s0, air)
        assert u == pytest.approx(big_u, rel=1e-13)
        assert math.sqrt(air.gamma * p / rho) == pytest.approx(air.c0,
                                                               rel=1e-13)

    def test_degenerate_triple_rejected(self, air):
        with pytest.raises(DuctwaveError, match="must exceed r_minus"):
            primitive_from_characteristics(1.0, 1.0, 1e5, air)


class TestArrayHelpers:
    def test_matches_scalar_conversions(self, air, rng):
        rho = rng.uniform(0.5, 2.0, size=8)
        u = rng.uniform(-30.0, 30.0, size=8)
        p = rng.uniform(5e4, 2e5, size=8)
        w = conserved_array(rho, u, p, air)
        rho2, u2, p2 = primitive_arrays(w, air)
        np.testing.assert_allclose(rho2, rho, rtol=1e-14)
        np.testing.assert_allclose(u2, u, rtol=1e-14)
        np.testing.assert_allclose(p2, p, rtol=1e-13)
        for i in range(8):
            # per-node reference: W = (rho, rho u, p/(gamma-1) + rho u^2/2)
            etot = p[i] / 0.4 + 0.5 * rho[i] * u[i] ** 2
            np.testing.assert_allclose(
                w[i], [rho[i], rho[i] * u[i], etot], rtol=1e-14)
            np.testing.assert_allclose(
                conserved_array(rho[i], u[i], p[i], air), w[i], rtol=1e-14)

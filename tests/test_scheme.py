"""Interior Euler scheme: fluxes, Jacobians, Taylor expansion, time step."""

import math

import numpy as np
import pytest

from ductwave import driver
from ductwave.errors import BlowUpError
from ductwave.gas import conserved_array, primitive_arrays
from ductwave.scheme import (
    DuctGeometry,
    FieldState,
    Grid,
    compute_dt,
    lax_wendroff_update,
    uniform_field,
)
from ductwave.signals import SineSignal
from reference_forms import flux_jacobian, physical_flux

REST = np.array([1.2, 0.0, 253312.5])
MOVING = np.array([1.2, 12.0, 253372.5])    # u = 10 m/s, p = 101325


class TestGridAndGeometry:
    def test_grid_spacing(self):
        grid = Grid(length=2.0, cells=100)
        assert grid.dx == pytest.approx(0.02, rel=1e-15)
        assert grid.dx * grid.cells == pytest.approx(grid.length, rel=1e-15)
        assert grid.n_nodes == 101
        np.testing.assert_allclose(grid.x[[0, -1]], [0.0, 2.0], atol=1e-15)

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            Grid(length=1.0, cells=3)

    def test_nearest_node(self):
        grid = Grid(length=1.0, cells=10)
        assert grid.nearest_node(0.0) == 0
        assert grid.nearest_node(0.44) == 4
        assert grid.nearest_node(1.0) == 10
        with pytest.raises(ValueError):
            grid.nearest_node(1.5)

    def test_beta_factor(self):
        assert DuctGeometry(h=0.005, symmetry="plane").beta == 1
        assert DuctGeometry(h=0.005, symmetry="axisymmetric").beta == 2
        with pytest.raises(ValueError):
            DuctGeometry(h=0.005, symmetry="spherical")
        with pytest.raises(ValueError):
            DuctGeometry(h=-0.1)


class TestPhysicalFlux:
    def test_rest_state(self, air):
        np.testing.assert_allclose(
            physical_flux(REST, air), [0.0, 101325.0, 0.0], rtol=1e-14)

    def test_moving_state(self, air):
        # third component u*(etot+p) = 10*(253372.5+101325) by hand
        np.testing.assert_allclose(
            physical_flux(MOVING, air), [12.0, 101445.0, 3546975.0], rtol=1e-14)

    def test_uniform_field_has_constant_flux(self, air):
        w = np.tile(MOVING, (12, 1))
        f = physical_flux(w, air)
        assert np.ptp(f, axis=0).max() == 0.0


class TestFluxJacobian:
    def test_eigenvalues_at_rest(self, air):
        eigs = np.sort(np.linalg.eigvals(flux_jacobian(REST, air)))
        np.testing.assert_allclose(eigs, [-343.82, 0.0, 343.82], atol=0.01)

    def test_eigenvalues_moving(self, air):
        eigs = np.sort(np.linalg.eigvals(flux_jacobian(MOVING, air)))
        c = math.sqrt(1.4 * 101325.0 / 1.2)
        np.testing.assert_allclose(eigs, [10.0 - c, 10.0, 10.0 + c], rtol=1e-10)

    def test_first_row(self, air):
        np.testing.assert_array_equal(flux_jacobian(MOVING, air)[0], [0.0, 1.0, 0.0])

    def test_matches_central_differences(self, air, rng):
        # directional derivative oracle: (f(w+h) - f(w-h))/2 vs J h, with
        # perturbations scaled per component so each state entry moves by
        # a fraction eps of its own magnitude
        w = np.array([1.1, 25.0, 2.6e5])
        jac = flux_jacobian(w, air)
        for _ in range(5):
            d = rng.normal(size=3)
            errs = []
            for eps in (1e-4, 1e-5):
                h = eps * np.abs(w) * d
                fd = 0.5 * (physical_flux(w + h, air) - physical_flux(w - h, air))
                errs.append(np.linalg.norm(fd - jac @ h) / np.linalg.norm(jac @ h))
            assert errs[0] < 1e-6
            # central differences are second order: error drops ~100x per
            # tenfold eps reduction (allow roundoff floor)
            assert errs[1] < errs[0] * 0.05 + 1e-10


def _ramp_field(grid, air, slope):
    """Fluid at rest with p = p0 + slope * x."""
    rho = np.full(grid.n_nodes, 1.2)
    u = np.zeros(grid.n_nodes)
    p = 101325.0 + slope * grid.x
    return FieldState(w=conserved_array(rho, u, p, air))


def _increment(field, g, dt_g, gas, grid, dt):
    """Change of the field over one lax_wendroff_update step."""
    return lax_wendroff_update(field, g, dt_g, gas, grid, dt,
                               primitive_arrays(field.w, gas)).w - field.w


class TestTimeDerivatives:
    """The Taylor terms dW/dt and d2W/dt2, read off the runtime update."""

    def test_uniform_rest_zero_source(self, air):
        grid = Grid(1.0, 10)
        field = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        zeros = np.zeros_like(field.w)
        for dt in (1e-6, 1e-4):
            np.testing.assert_array_equal(
                _increment(field, zeros, zeros, air, grid, dt), zeros)

    def test_uniform_field_source_passthrough(self, air):
        # uniform flux: dW/dt = G and d2W/dt2 = dG/dt
        grid = Grid(1.0, 10)
        field = uniform_field(grid, air, 1.2, 3.0, 101325.0)
        g = np.tile([0.0, 4.5e3, -2.0e5], (grid.n_nodes, 1))
        dt_g = np.tile([0.0, -3.0e5, 7.0e6], (grid.n_nodes, 1))
        dt = 1e-3
        inc = _increment(field, g, dt_g, air, grid, dt)
        np.testing.assert_allclose(
            inc[1:-1], (dt * g + 0.5 * dt * dt * dt_g)[1:-1], rtol=1e-9)

    def test_linear_pressure_ramp(self, air):
        # at rest with p = p0 + s x: dW/dt = (0, -s, 0), and the energy row
        # of d2W/dt2 is s^2 gamma / (rho (gamma - 1)) by hand
        grid = Grid(1.0, 8)
        slope = 250.0
        field = _ramp_field(grid, air, slope)
        zeros = np.zeros_like(field.w)
        dt = 1e-3
        inc = _increment(field, zeros, zeros, air, grid, dt)
        g = air.gamma
        expected = [0.0, -slope * dt,
                    0.5 * dt * dt * slope ** 2 * g / (1.2 * (g - 1.0))]
        for j in range(1, grid.cells):
            np.testing.assert_allclose(inc[j], expected, rtol=1e-8, atol=1e-12)

    def test_interior_bounds_enforced(self, air):
        # only nodes 1..J-1 are written; the boundary rows pass through
        grid = Grid(1.0, 8)
        field = _ramp_field(grid, air, 250.0)
        g = np.tile([0.0, 10.0, -50.0], (grid.n_nodes, 1))
        new = lax_wendroff_update(field, g, g, air, grid, 1e-4,
                                  primitive_arrays(field.w, air))
        np.testing.assert_array_equal(new.w[[0, -1]], field.w[[0, -1]])
        assert np.all(np.any(new.w[1:-1] != field.w[1:-1], axis=1))

    def test_second_derivative_zero_cases(self, air):
        # uniform field and uniform source with zero source rate: the
        # constant Jacobian annihilates the uniform midpoint rate, so the
        # step is first order in dt exactly
        grid = Grid(1.0, 8)
        field = uniform_field(grid, air, 1.2, 3.0, 101325.0)
        zeros = np.zeros_like(field.w)
        g = np.tile([0.0, 4.5e3, -2.0e5], (grid.n_nodes, 1))
        dt = 1e-3
        inc = _increment(field, g, zeros, air, grid, dt)
        np.testing.assert_allclose(inc[1:-1], dt * g[1:-1], rtol=1e-9)

    def test_second_derivative_hand_case(self, air, rng):
        # nonuniform field with nonuniform sources and source rates on a
        # 3-interior-node stencil, against the per-node loop reference
        grid = Grid(0.04, 4)
        x = grid.x
        u = 2.0 * np.sin(40.0 * x)
        p = 101325.0 + 300.0 * np.cos(60.0 * x)
        rho = 1.2 + 0.002 * np.sin(50.0 * x)
        field = FieldState(w=conserved_array(rho, u, p, air))
        g = np.zeros_like(field.w)
        g[:, 1:] = rng.normal(scale=[50.0, 2e4], size=(grid.n_nodes, 2))
        dt_g = np.zeros_like(field.w)
        dt_g[:, 1:] = rng.normal(scale=[5e6, 2e9], size=(grid.n_nodes, 2))
        dt = 0.8 * grid.dx / air.c0 / 1.1
        ours = lax_wendroff_update(field, g, dt_g, air, grid, dt,
                                   primitive_arrays(field.w, air))
        ref = _classical_lax_wendroff(field.w, air, grid.dx, dt, g, dt_g)
        np.testing.assert_allclose(ours.w, ref, rtol=1e-12)


def _classical_lax_wendroff(w, gas, dx, dt, g=None, dt_g=None):
    """Reference single-step Lax-Wendroff in flux form, written
    independently of the library implementation. With sources G and their
    rate, the Taylor terms gain dt G and dt^2/2 (dG/dt - d(A G)/dx)."""
    f = physical_flux(w, gas)
    jac = flux_jacobian(w, gas)
    out = w.copy()
    for j in range(1, w.shape[0] - 1):
        a_plus = 0.5 * (jac[j] + jac[j + 1])
        a_minus = 0.5 * (jac[j - 1] + jac[j])
        out[j] = (w[j]
                  - dt / (2.0 * dx) * (f[j + 1] - f[j - 1])
                  + dt * dt / (2.0 * dx * dx)
                  * (a_plus @ (f[j + 1] - f[j]) - a_minus @ (f[j] - f[j - 1])))
        if g is not None:
            g_plus = 0.5 * (g[j] + g[j + 1])
            g_minus = 0.5 * (g[j - 1] + g[j])
            out[j] += dt * g[j] + 0.5 * dt * dt * (
                dt_g[j] - (a_plus @ g_plus - a_minus @ g_minus) / dx)
    return out


class TestLaxWendroffUpdate:
    def test_uniform_rest_is_fixed_point(self, air):
        grid = Grid(1.0, 12)
        field = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        zeros = np.zeros_like(field.w)
        new = lax_wendroff_update(field, zeros, zeros, air, grid, 1e-5,
                                  primitive_arrays(field.w, air))
        np.testing.assert_array_equal(new.w, field.w)
        assert new.n == 1

    def test_any_uniform_state_is_fixed_point(self, air):
        grid = Grid(1.0, 12)
        field = uniform_field(grid, air, 1.05, 37.0, 94000.0)
        zeros = np.zeros_like(field.w)
        new = lax_wendroff_update(field, zeros, zeros, air, grid, 1e-5,
                                  primitive_arrays(field.w, air))
        np.testing.assert_array_equal(new.w, field.w)

    def test_matches_classical_flux_form(self, air):
        grid = Grid(1.0, 40)
        x = grid.x
        u = 0.5 * np.sin(2.0 * np.pi * x)
        c = air.c0 + 0.2 * u
        rho = air.rho0 * (c / air.c0) ** 5.0
        p = air.s0 * rho ** 1.4
        field = FieldState(w=conserved_array(rho, u, p, air))
        dt = 0.8 * grid.dx / float((np.abs(u) + c).max())
        zeros = np.zeros_like(field.w)
        ours = lax_wendroff_update(field, zeros, zeros, air, grid, dt,
                                   primitive_arrays(field.w, air))
        ref = _classical_lax_wendroff(field.w, air, grid.dx, dt)
        np.testing.assert_allclose(ours.w, ref, rtol=1e-12)

    def test_blow_up_detected_with_context(self, air):
        # the update returns its field unchecked; the run's state check
        # finds the fault and names an interior node
        grid = Grid(1.0, 12)
        field = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        zeros = np.zeros_like(field.w)
        g = zeros.copy()
        g[:, 2] = -1e12    # drain energy violently
        new = lax_wendroff_update(field, g, zeros, air, grid, 1e-3,
                                  primitive_arrays(field.w, air))
        with pytest.raises(BlowUpError) as err:
            driver._checked_primitives(new.w, air)
        assert 1 <= err.value.node <= 11

    @pytest.mark.parametrize("component, value", [
        (0, -7.2e10),          # rho <= 0
        (2, -1.2e16),          # internal energy <= 0
        (0, np.nan),
        (1, np.nan),
        (2, np.nan),
        (2, np.inf),           # e_int = +inf passes a min-only check
    ])
    def test_blow_up_names_step_and_node(self, air, component, value,
                                         monkeypatch):
        # a source rate reaches only its own node (the midpoint averages
        # take the sources, not their rate), so a fault put into the rate
        # of step 7 at node 7 makes the run fail there
        tables = driver._source_tables

        def faulty(history, n, *args):
            g, dt_g = tables(history, n, *args)
            if n == 6:
                dt_g = dt_g.copy()
                dt_g[7, component] = value
            return g, dt_g

        monkeypatch.setattr(driver, "_source_tables", faulty)
        period = 2e-3
        sc = driver.Scenario(
            gas=air, grid=Grid(1.0, 12), geom=DuctGeometry(h=0.005),
            inflow_kind=driver.VELOCITY,
            inflow=SineSignal(amplitude=0.0, omega0=2.0 * math.pi / period),
            losses=False, duration_periods=1.0)
        dt = driver.frozen_dt(sc)
        with pytest.raises(BlowUpError) as err:
            driver.run(sc)
        assert err.value.node == 7
        assert str(err.value).endswith(
            f"(node 7) (step 7, t/T0 = {7 * dt / period:.3f})")

    def test_sources_required_for_all_nodes(self, air):
        grid = Grid(1.0, 12)
        field = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        with pytest.raises(ValueError):
            lax_wendroff_update(field, np.zeros((3, 3)),
                                np.zeros_like(field.w), air, grid, 1e-5,
                                primitive_arrays(field.w, air))


class TestComputeDt:
    def test_rest_value(self, air):
        grid = Grid(0.1, 10)    # dx = 0.01
        field = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        dt = compute_dt(field, grid, air, 0.8)
        assert dt == pytest.approx(2.327e-5, abs=1e-8)

    def test_linear_in_dx(self, air):
        f1 = uniform_field(Grid(0.1, 10), air, 1.2, 0.0, 101325.0)
        f2 = uniform_field(Grid(0.2, 10), air, 1.2, 0.0, 101325.0)
        dt1 = compute_dt(f1, Grid(0.1, 10), air, 0.8)
        dt2 = compute_dt(f2, Grid(0.2, 10), air, 0.8)
        assert dt2 == pytest.approx(2.0 * dt1, rel=1e-14)

    def test_velocity_decreases_dt(self, air):
        grid = Grid(0.1, 10)
        still = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        moving = uniform_field(grid, air, 1.2, 30.0, 101325.0)
        assert compute_dt(moving, grid, air, 0.8) \
            < compute_dt(still, grid, air, 0.8)

    def test_cfl_bounds(self, air):
        grid = Grid(0.1, 10)
        field = uniform_field(grid, air, 1.2, 0.0, 101325.0)
        for cfl in (0.0, 1.5):
            with pytest.raises(ValueError, match="cfl"):
                compute_dt(field, grid, air, cfl)


class TestConservation:
    def test_interior_totals_match_stencil_bookkeeping(self, air):
        """With G = 0 the interior totals change only by the stencil's
        boundary flux terms; discrepancies are normalized by the
        amplitude-free rest scales (mass, mass*c0, energy)."""
        grid = Grid(1.0, 64)
        x = grid.x
        u = 0.01 * np.sin(2.0 * np.pi * x)
        c = air.c0 + 0.2 * u
        rho = air.rho0 * (c / air.c0) ** 5.0
        p = air.s0 * rho ** 1.4
        state = FieldState(w=conserved_array(rho, u, p, air))
        dt = 0.8 * grid.dx / float((np.abs(u) + c).max())
        zeros = np.zeros_like(state.w)

        predicted = state.w[1:-1].sum(axis=0)
        for _ in range(300):
            f = physical_flux(state.w, air)
            jac = flux_jacobian(state.w, air)
            jac_mid = 0.5 * (jac[:-1] + jac[1:])
            rate_mid = -(f[1:] - f[:-1]) / grid.dx
            predicted += (
                -dt / (2.0 * grid.dx) * (f[-1] + f[-2] - f[1] - f[0])
                - dt * dt / (2.0 * grid.dx)
                * (jac_mid[-1] @ rate_mid[-1] - jac_mid[0] @ rate_mid[0])
            )
            state = lax_wendroff_update(state, zeros, zeros, air, grid, dt,
                                        primitive_arrays(state.w, air))
        totals = state.w[1:-1].sum(axis=0)
        n_int = grid.n_nodes - 2
        scales = np.array([
            air.rho0 * n_int,
            air.rho0 * air.c0 * n_int,
            air.p0 / 0.4 * n_int,
        ])
        assert (np.abs(totals - predicted) / scales).max() < 1e-12

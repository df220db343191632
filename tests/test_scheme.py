"""Interior Euler scheme: fluxes, Jacobians, Taylor expansion, time step."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ductwave import driver
from ductwave.errors import DuctwaveError
from ductwave.gas import conserved_array, primitive_arrays
from ductwave.scheme import DuctGeometry, Grid, Level, lax_wendroff_update
from ductwave.signals import MultiHarmonicSignal
from reference_forms import (
    flux_jacobian,
    interior_step,
    physical_flux,
    source_increments,
)

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


def _uniform(grid, gas, rho, u, p):
    """A spatially uniform (J+1, 3) field."""
    return np.tile(conserved_array(rho, u, p, gas), (grid.n_nodes, 1))


def _ramp_field(grid, air, slope):
    """Fluid at rest with p = p0 + slope * x."""
    rho = np.full(grid.n_nodes, 1.2)
    u = np.zeros(grid.n_nodes)
    p = 101325.0 + slope * grid.x
    return conserved_array(rho, u, p, air)


def _step(field, g, dt_g, gas, grid, dt):
    """One lax_wendroff_update step of field under sources G and their
    rate dG/dt at the nodes, its boundary rows held."""
    return interior_step(field, g, dt_g, gas, grid, dt)


def _levels(field, gas):
    """Two Levels on the field's nodes, the first holding field and its
    primitive rows."""
    cur, nxt = Level(field.shape[0]), Level(field.shape[0])
    cur.w[:] = field
    primitive_arrays(cur.w, gas, cur.prim)
    return cur, nxt


def _increment(field, g, dt_g, gas, grid, dt):
    """Change of the field over one lax_wendroff_update step."""
    return _step(field, g, dt_g, gas, grid, dt) - field


class TestTimeDerivatives:
    """The Taylor terms dW/dt and d2W/dt2, read off the runtime update."""

    def test_uniform_rest_zero_source(self, air):
        grid = Grid(1.0, 10)
        field = _uniform(grid, air, 1.2, 0.0, 101325.0)
        zeros = np.zeros_like(field)
        for dt in (1e-6, 1e-4):
            np.testing.assert_array_equal(
                _increment(field, zeros, zeros, air, grid, dt), zeros)

    def test_uniform_field_source_passthrough(self, air):
        # uniform flux: dW/dt = G and d2W/dt2 = dG/dt
        grid = Grid(1.0, 10)
        field = _uniform(grid, air, 1.2, 3.0, 101325.0)
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
        zeros = np.zeros_like(field)
        dt = 1e-3
        inc = _increment(field, zeros, zeros, air, grid, dt)
        g = air.gamma
        expected = [0.0, -slope * dt,
                    0.5 * dt * dt * slope ** 2 * g / (1.2 * (g - 1.0))]
        for j in range(1, grid.cells):
            np.testing.assert_allclose(inc[j], expected, rtol=1e-8, atol=1e-12)

    def test_interior_bounds_enforced(self, air):
        # the update writes nodes 1..J-1 from the stencil; the boundary
        # columns of the new field are the boundary update's, and what
        # they held before never reaches the interior
        grid = Grid(1.0, 8)
        field = _ramp_field(grid, air, 250.0)
        g = np.tile([0.0, 10.0, -50.0], (grid.n_nodes, 1))
        increments = source_increments(g[:, 1:].T, g[:, 1:].T, 1e-4)
        news = []
        for junk in (0.0, np.nan):
            cur, nxt = _levels(field, air)
            nxt.q[:] = junk
            new = lax_wendroff_update(cur, nxt, *increments, air, grid, 1e-4)
            assert new is nxt.q
            news.append(new.T.copy())
        np.testing.assert_array_equal(news[0][1:-1], news[1][1:-1])
        assert np.all(np.isnan(news[1][[0, -1]]).any(axis=1))
        assert np.all(np.any(news[0][1:-1] != field[1:-1], axis=1))

    def test_second_derivative_zero_cases(self, air):
        # uniform field and uniform source with zero source rate: the
        # constant Jacobian annihilates the uniform midpoint rate, so the
        # step is first order in dt exactly
        grid = Grid(1.0, 8)
        field = _uniform(grid, air, 1.2, 3.0, 101325.0)
        zeros = np.zeros_like(field)
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
        field = conserved_array(rho, u, p, air)
        g = np.zeros_like(field)
        g[:, 1:] = rng.normal(scale=[50.0, 2e4], size=(grid.n_nodes, 2))
        dt_g = np.zeros_like(field)
        dt_g[:, 1:] = rng.normal(scale=[5e6, 2e9], size=(grid.n_nodes, 2))
        dt = 0.8 * grid.dx / air.c0 / 1.1
        ours = _step(field, g, dt_g, air, grid, dt)
        ref = _classical_lax_wendroff(field, air, grid.dx, dt, g, dt_g)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(cells=st.integers(4, 40), length=st.floats(0.04, 2.0),
           u_amp=st.floats(0.0, 30.0), p_amp=st.floats(0.0, 2000.0),
           rho_amp=st.floats(0.0, 0.02), phase=st.floats(0.0, 6.3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_classical_with_nonuniform_sources(
            self, air, cells, length, u_amp, p_amp, rho_amp, phase, seed):
        # a smooth wave of any size on any grid, under sources and source
        # rates drawn independently at every node
        grid = Grid(length, cells)
        kx = 2.0 * np.pi * grid.x / length
        u = u_amp * np.sin(kx + phase)
        p = 101325.0 + p_amp * np.cos(2.0 * kx + phase)
        rho = 1.2 + rho_amp * np.sin(3.0 * kx)
        field = conserved_array(rho, u, p, air)
        rng = np.random.default_rng(seed)
        g = np.zeros_like(field)
        g[:, 1:] = rng.normal(scale=[50.0, 2e4], size=(grid.n_nodes, 2))
        dt_g = np.zeros_like(field)
        dt_g[:, 1:] = rng.normal(scale=[5e6, 2e9], size=(grid.n_nodes, 2))
        dt = 0.8 * grid.dx / (air.c0 + 40.0)
        ours = _step(field, g, dt_g, air, grid, dt)
        ref = _classical_lax_wendroff(field, air, grid.dx, dt, g, dt_g)
        # a momentum entry can be far smaller than the terms it is summed
        # from (where u crosses zero, or between two pressure differences
        # of opposite sign), so rounding is also allowed at 1e-12 of the
        # largest entry or scaled flux difference of its column
        flux_step = dt / grid.dx * np.abs(np.diff(physical_flux(field, air),
                                                  axis=0))
        for col in range(3):
            scale = max(np.abs(ref[:, col]).max(), flux_step[:, col].max())
            np.testing.assert_allclose(ours[:, col], ref[:, col],
                                       rtol=1e-12, atol=1e-12 * scale)


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
        field = _uniform(grid, air, 1.2, 0.0, 101325.0)
        zeros = np.zeros_like(field)
        new = _step(field, zeros, zeros, air, grid, 1e-5)
        assert isinstance(new, np.ndarray)
        np.testing.assert_array_equal(new, field)

    def test_any_uniform_state_is_fixed_point(self, air):
        grid = Grid(1.0, 12)
        field = _uniform(grid, air, 1.05, 37.0, 94000.0)
        zeros = np.zeros_like(field)
        new = _step(field, zeros, zeros, air, grid, 1e-5)
        np.testing.assert_array_equal(new, field)

    def test_matches_classical_flux_form(self, air):
        grid = Grid(1.0, 40)
        x = grid.x
        u = 0.5 * np.sin(2.0 * np.pi * x)
        c = air.c0 + 0.2 * u
        rho = air.rho0 * (c / air.c0) ** 5.0
        p = air.s0 * rho ** 1.4
        field = conserved_array(rho, u, p, air)
        dt = 0.8 * grid.dx / float((np.abs(u) + c).max())
        zeros = np.zeros_like(field)
        ours = _step(field, zeros, zeros, air, grid, dt)
        ref = _classical_lax_wendroff(field, air, grid.dx, dt)
        np.testing.assert_allclose(ours, ref, rtol=1e-12)

    def test_blow_up_detected_with_context(self, air):
        # the update returns its field unchecked; the run's state check
        # finds the fault and names an interior node
        grid = Grid(1.0, 12)
        field = _uniform(grid, air, 1.2, 0.0, 101325.0)
        zeros = np.zeros_like(field)
        g = zeros.copy()
        g[:, 2] = -1e12    # drain energy violently
        new = _step(field, g, zeros, air, grid, 1e-3)
        with pytest.raises(DuctwaveError, match=r"^state lost positivity"
                                                r" \(node \d+\)$") as err:
            driver._checked_primitives(new, air)
        assert 1 <= err.value.node <= 11

    @pytest.mark.parametrize("component, value", [
        (0, -7.2e10),          # rho <= 0
        (2, -1.2e16),          # internal energy <= 0
        (0, np.nan),
        (1, np.nan),
        (2, np.nan),
        (2, np.inf),           # e_int = +inf passes a min-only check
        (0, np.inf),           # so does rho = +inf, with u = 0 and finite p
        (1, np.inf),
        (1, -np.inf),
    ])
    def test_blow_up_names_step_and_node(self, air, component, value,
                                         monkeypatch):
        # a fault added to one entry of the field that step 7's interior
        # update writes, at node 7, makes the run fail there
        calls = []

        def faulty(cur, nxt, *args):
            calls.append(None)
            new = lax_wendroff_update(cur, nxt, *args)
            if len(calls) == 7:
                new[component, 7] += value
            return new

        period = 2e-3
        sc = driver.Scenario(
            gas=air, grid=Grid(1.0, 12), geom=DuctGeometry(h=0.005),
            inflow_kind=driver.VELOCITY,
            inflow=MultiHarmonicSignal(2.0 * math.pi / period,
                                       ((1, 0.0, 0.0),)),
            losses=False, duration_periods=1.0)
        dt = driver.frozen_dt(sc)
        # the last good level, and its max (|u| + c) dt/dx
        sim = driver.Simulation(sc)
        for _ in range(6):
            sim.advance()
        rho, u, p = primitive_arrays(sim.w, air)
        speed = np.abs(u) + np.sqrt(air.gamma * p / rho)
        node = int(np.argmax(speed))
        courant = speed[node] * dt / sc.grid.dx
        monkeypatch.setattr(driver, "lax_wendroff_update", faulty)
        with pytest.raises(DuctwaveError,
                           match="^state lost positivity") as err:
            driver.run(sc)
        assert err.value.node == 7
        assert str(err.value).endswith(
            f"(node 7) (step 7, t/T0 = {7 * dt / period:.3f},"
            f" Courant number {courant:.3f} at node {node})")

    def test_a_healthy_field_of_huge_entries_passes(self, air):
        # entries near the float ceiling, each finite, whose sum would
        # overflow: the state check passes the field and hands back its
        # primitive rows
        field = np.tile([1.0, 0.0, 1e308], (13, 1))
        field[4, 1] = 1e150
        prim = driver._checked_primitives(field, air)
        np.testing.assert_array_equal(prim, primitive_arrays(field, air))
        assert np.isfinite(prim).all() and (prim[2] > 0.0).all()

    def test_sources_required_for_all_nodes(self, air):
        grid = Grid(1.0, 12)
        field = _uniform(grid, air, 1.2, 0.0, 101325.0)
        cur, nxt = _levels(field, air)
        rows = np.zeros((2, grid.n_nodes))
        with pytest.raises(ValueError):
            lax_wendroff_update(cur, nxt, np.zeros((3, 3)), rows, air, grid,
                                1e-5)
        # a table of the J midpoints, or with a mass row, is refused, not
        # broadcast
        with pytest.raises(ValueError):
            lax_wendroff_update(cur, nxt, rows, np.zeros((2, grid.cells)),
                                air, grid, 1e-5)
        with pytest.raises(ValueError):
            lax_wendroff_update(cur, nxt, np.zeros((3, grid.n_nodes)), rows,
                                air, grid, 1e-5)
        # and so is a level on another grid
        with pytest.raises(ValueError):
            lax_wendroff_update(cur, Level(grid.cells), rows, rows, air,
                                grid, 1e-5)
        # the shapes are read by attribute: nested lists of the right
        # shape, or one increment without the other, are refused alike
        for s_node, s_mid in ((rows.tolist(), rows), (rows, rows.tolist()),
                              (rows, None), (None, rows)):
            with pytest.raises(ValueError, match="source increments"):
                lax_wendroff_update(cur, nxt, s_node, s_mid, air, grid, 1e-5)

    def test_rest_maps_to_itself_bit_for_bit(self, air):
        # with zero sources the raveled-row update maps a uniform rest
        # field to itself at every interior node, whatever the width of
        # the grid, so no entry that straddles two rows reaches one
        for cells in (4, 5, 73, 180):
            grid = Grid(1.0, cells)
            field = _uniform(grid, air, air.rho0, 0.0, air.p0)
            cur, nxt = _levels(field, air)
            zeros = np.zeros((2, grid.n_nodes))
            new = lax_wendroff_update(cur, nxt, zeros, zeros, air, grid,
                                      0.8 * grid.dx / air.c0)
            np.testing.assert_array_equal(new.T[1:-1], field[1:-1])


class TestLevel:
    def test_field_is_one_row_major_array_and_w_its_view(self):
        level = Level(6)
        assert level.q.shape == (3, 6) and level.q.flags.c_contiguous
        assert level.w.shape == (6, 3) and level.w.base is level.q
        level.w[2] = (1.0, 2.0, 3.0)
        np.testing.assert_array_equal(level.q[:, 2], [1.0, 2.0, 3.0])
        assert level.prim.base is level.rows
        assert np.all(level.rows[-1] == 1.0)

    def test_a_paired_level_shares_only_the_work_rows(self, air):
        # the two levels of a run hold their own fields and rows, and one
        # set of work rows: an update leaves nothing in them that the next
        # one reads
        first = Level(9)
        second = Level(9, first)
        assert not np.shares_memory(first.q, second.q)
        assert not np.shares_memory(first.rows, second.rows)
        assert first.flux is second.flux and first.a_mid is second.a_mid
        grid = Grid(0.08, 8)
        field = _ramp_field(grid, air, 250.0)
        zeros = np.zeros((2, 9))
        dt = 0.8 * grid.dx / air.c0
        for w in (_uniform(grid, air, 1.1, 30.0, 9e4), field):
            first.w[:] = w
            primitive_arrays(first.w, air, first.prim)
            lax_wendroff_update(first, second, zeros, zeros, air, grid, dt)
        np.testing.assert_array_equal(
            second.w[1:-1], _step(field, np.zeros((9, 3)), np.zeros((9, 3)),
                                  air, grid, dt)[1:-1])


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
        state = conserved_array(rho, u, p, air)
        dt = 0.8 * grid.dx / float((np.abs(u) + c).max())
        zeros = np.zeros_like(state)

        predicted = state[1:-1].sum(axis=0)
        for _ in range(300):
            f = physical_flux(state, air)
            jac = flux_jacobian(state, air)
            jac_mid = 0.5 * (jac[:-1] + jac[1:])
            rate_mid = -(f[1:] - f[:-1]) / grid.dx
            predicted += (
                -dt / (2.0 * grid.dx) * (f[-1] + f[-2] - f[1] - f[0])
                - dt * dt / (2.0 * grid.dx)
                * (jac_mid[-1] @ rate_mid[-1] - jac_mid[0] @ rate_mid[0])
            )
            state = _step(state, zeros, zeros, air, grid, dt)
        totals = state[1:-1].sum(axis=0)
        n_int = grid.n_nodes - 2
        scales = np.array([
            air.rho0 * n_int,
            air.rho0 * air.c0 * n_int,
            air.p0 / 0.4 * n_int,
        ])
        assert (np.abs(totals - predicted) / scales).max() < 1e-12

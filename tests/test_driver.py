"""Coupled time loop: initialization, stepping, runs, degenerate modes."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ductwave import driver
from ductwave.driver import (
    PRESSURE,
    VELOCITY,
    Scenario,
    Simulation,
    frozen_dt,
    run,
)
from ductwave.errors import BlowUpError, UnsupportedRegimeError
from ductwave.gas import GasModel, conserved_array, primitive_arrays
from ductwave.scheme import DuctGeometry, FieldState, Grid, lax_wendroff_update
from ductwave.boundaries import inflow_update_velocity, outflow_update
from ductwave.signals import SineSignal
from ductwave.wall import K0
from exact_history import ExactHistory


def _small_scenario(air, **overrides):
    base = dict(
        gas=air,
        grid=Grid(length=0.1, cells=4),
        geom=DuctGeometry(h=0.005, symmetry="axisymmetric"),
        inflow_kind=PRESSURE,
        inflow=SineSignal(amplitude=80.0, omega0=2.0 * math.pi * 500.0),
        losses=True,
        cfl=0.8,
        duration_s=1e-3,
        probes=(),
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_duration_forms(self, air):
        sc = _small_scenario(air)
        assert sc.duration == 1e-3
        sc2 = _small_scenario(air, duration_s=None, duration_periods=3.0)
        assert sc2.duration == pytest.approx(3.0 / 500.0, rel=1e-12)
        with pytest.raises(ValueError):
            _small_scenario(air, duration_periods=2.0)   # both given

    def test_validation(self, air):
        with pytest.raises(ValueError):
            _small_scenario(air, inflow_kind="piston")
        with pytest.raises(ValueError):
            _small_scenario(air, probes=(0.5,))   # outside the 0.1 m duct
        with pytest.raises(ValueError):
            _small_scenario(air, kernel_mode="best-effort")

    def test_velocity_bound_converts_pressure(self, air):
        sc = _small_scenario(air)
        assert sc.velocity_bound() == pytest.approx(
            80.0 / (air.rho0 * air.c0), rel=1e-12)


class TestInitialize:
    def test_rest_everywhere(self, air):
        sc = _small_scenario(air)
        sim = Simulation(sc)
        state, history = sim.state, sim.history
        rho, u, p = primitive_arrays(state.w, air)
        assert np.all(u == 0.0)
        np.testing.assert_allclose(p / rho ** air.gamma, air.s0, rtol=1e-13)
        # trapezoid mass per unit area: rho0 * L
        mass = np.trapezoid(rho, dx=sc.grid.dx)
        assert mass == pytest.approx(air.rho0 * sc.grid.length, rel=1e-13)
        # the wall memory holds the initial pressures as its first level
        assert history.n_levels == 1
        np.testing.assert_allclose(p, air.p0, rtol=1e-13)
        np.testing.assert_array_equal(history.p0, p)

    def test_frozen_dt_is_rest_cfl(self, air):
        sc = _small_scenario(air)
        assert frozen_dt(sc) == pytest.approx(
            0.8 * sc.grid.dx / air.c0, rel=1e-12)

    def test_courant_warning_issued_once_per_run(self, air):
        sc = _small_scenario(
            air, cfl=0.99, duration_s=None, duration_periods=0.5,
            inflow=SineSignal(amplitude=5e3, omega0=2.0 * math.pi * 500.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(sc)
        courant = [w for w in caught if "Courant" in str(w.message)]
        assert len(courant) == 1

    def test_aggressive_cfl_warns(self, air):
        sc = _small_scenario(
            air, cfl=0.99,
            inflow=SineSignal(amplitude=5e3, omega0=2.0 * math.pi * 500.0))
        with pytest.warns(UserWarning, match="Courant"):
            frozen_dt(sc)


class TestFixedPoints:
    def test_lossless_rest_state_unchanged(self, air):
        sc = _small_scenario(
            air, losses=False,
            inflow=SineSignal(amplitude=0.0, omega0=2.0 * math.pi * 500.0))
        sim = Simulation(sc)
        w0 = sim.state.w.copy()
        sim.advance()
        # the interior stencil sees exact rest data: bitwise fixed point;
        # boundary reconstruction carries at most rounding-level jitter
        np.testing.assert_array_equal(sim.state.w[1:-1], w0[1:-1])
        for _ in range(49):
            sim.advance()
        rho, u, p = primitive_arrays(sim.state.w, air)
        assert np.abs(u).max() < 1e-12
        assert np.abs(rho - air.rho0).max() / air.rho0 < 1e-13
        assert np.abs(p - air.p0).max() / air.p0 < 1e-13

    def test_lossy_rest_state_unchanged(self, air):
        # constant history means G = 0, so losses change nothing at rest
        sc = _small_scenario(
            air, losses=True, inflow_kind=VELOCITY,
            inflow=SineSignal(amplitude=0.0, omega0=2.0 * math.pi * 500.0))
        sim = Simulation(sc)
        for _ in range(50):
            sim.advance()
        rho, u, p = primitive_arrays(sim.state.w, air)
        assert np.abs(u).max() < 1e-12
        assert np.abs(p - air.p0).max() / air.p0 < 1e-13


# ---------------------------------------------------------------------------
# Straight-line re-implementation of the full coupled cycle on a 5-node
# grid: plain Python floats, explicit loops, no library calls. Used to
# check the production step wiring end to end.
# ---------------------------------------------------------------------------

def _oracle_steps(air, scenario, n_steps):
    gamma = air.gamma
    gm1 = gamma - 1.0
    rho0, p0 = air.rho0, air.p0
    c0 = math.sqrt(gamma * p0 / rho0)
    s0 = p0 / rho0 ** gamma
    grid = scenario.grid
    geom = scenario.geom
    dx = grid.dx
    n_nodes = grid.n_nodes
    dt = scenario.cfl * dx / c0
    beta_h = geom.beta / geom.h
    c2 = beta_h * math.sqrt(air.mu / (rho0 * math.pi)) * math.sqrt(dt) / (2 * dx)
    c3 = -2.0 * beta_h * math.sqrt(air.k_cond / (rho0 * air.cp * math.pi)) \
        / math.sqrt(dt)

    def prim(w):
        rho, mom, etot = w
        u = mom / rho
        p = gm1 * (etot - 0.5 * mom * u)
        return rho, u, p

    def flux(w):
        rho, u, p = prim(w)
        return [w[1], w[1] * u + p, u * (w[2] + p)]

    def jac(w):
        rho, mom, etot = w
        u = mom / rho
        return [
            [0.0, 1.0, 0.0],
            [0.5 * (gamma - 3.0) * u * u, (3.0 - gamma) * u, gm1],
            [gm1 * u ** 3 - gamma * u * etot / rho,
             gamma * etot / rho - 1.5 * gm1 * u * u, gamma * u],
        ]

    def matvec(a, v):
        return [sum(a[i][k] * v[k] for k in range(3)) for i in range(3)]

    def reconstruct(r_plus, r_minus):
        u = 0.5 * (r_plus + r_minus)
        c = gm1 * (r_plus - r_minus) / 4.0
        rho = (c * c / (gamma * s0)) ** (1.0 / gm1)
        p = s0 * rho ** gamma
        return [rho, rho * u, p / gm1 + 0.5 * rho * u * u]

    etot0 = p0 / gm1
    field = [[rho0, 0.0, etot0] for _ in range(n_nodes)]
    p_hist = [[p0] * n_nodes]
    g_prev = None
    states = []
    t = 0.0

    for n in range(n_steps):
        # wall sources from the full pressure history
        g = [[0.0, 0.0, 0.0] for _ in range(n_nodes)]
        if scenario.losses and n > 0:
            for j in range(n_nodes):
                acc3 = 0.0
                for m in range(n):
                    w_m = 1.0 / (math.sqrt(m) + math.sqrt(m + 1))
                    acc3 += (p_hist[n - m][j] - p_hist[n - m - 1][j]) * w_m
                g[j][2] = c3 * acc3
            for j in range(1, n_nodes - 1):
                acc2 = 0.0
                for m in range(n):
                    w_m = 1.0 / (math.sqrt(m) + math.sqrt(m + 1))
                    bracket = (p_hist[n - m - 1][j + 1] + p_hist[n - m][j + 1]) \
                        - (p_hist[n - m - 1][j - 1] + p_hist[n - m][j - 1])
                    acc2 += bracket * w_m
                g[j][1] = c2 * acc2
            g[0][1] = g[1][1]
            g[-1][1] = g[-2][1]
        if scenario.losses and n > 0 and g_prev is not None:
            dt_g = [[(g[j][i] - g_prev[j][i]) / dt for i in range(3)]
                    for j in range(n_nodes)]
        else:
            dt_g = [[0.0] * 3 for _ in range(n_nodes)]

        fluxes = [flux(w) for w in field]
        jacs = [jac(w) for w in field]
        new_field = [list(w) for w in field]
        for j in range(1, n_nodes - 1):
            dt_w = [g[j][i] - (fluxes[j + 1][i] - fluxes[j - 1][i]) / (2 * dx)
                    for i in range(3)]
            a_plus = [[0.5 * (jacs[j][r][cc] + jacs[j + 1][r][cc])
                       for cc in range(3)] for r in range(3)]
            a_minus = [[0.5 * (jacs[j - 1][r][cc] + jacs[j][r][cc])
                        for cc in range(3)] for r in range(3)]
            rate_plus = [0.5 * (g[j][i] + g[j + 1][i])
                         - (fluxes[j + 1][i] - fluxes[j][i]) / dx
                         for i in range(3)]
            rate_minus = [0.5 * (g[j - 1][i] + g[j][i])
                          - (fluxes[j][i] - fluxes[j - 1][i]) / dx
                          for i in range(3)]
            mv_p = matvec(a_plus, rate_plus)
            mv_m = matvec(a_minus, rate_minus)
            d2t_w = [dt_g[j][i] - (mv_p[i] - mv_m[i]) / dx for i in range(3)]
            for i in range(3):
                new_field[j][i] = field[j][i] + dt * dt_w[i] \
                    + 0.5 * dt * dt * d2t_w[i]

        # inflow (pressure datum at the new level)
        pi_val = p0 + scenario.inflow.value(t + dt)
        u_e = (pi_val - p0) / (rho0 * c0)
        c_e = c0 + 0.5 * gm1 * u_e
        rho_b, u_b, p_b = prim(field[0])
        c_b = math.sqrt(gamma * p_b / rho_b)
        lam = min(max(abs(u_b - c_b) * dt / dx, 0.0), 1.0)
        foot = [field[0][i] + lam * (field[1][i] - field[0][i])
                for i in range(3)]
        rho_f, u_f, p_f = prim(foot)
        c_f = math.sqrt(gamma * p_f / rho_f)
        new_field[0] = reconstruct(u_e + 2.0 * c_e / gm1,
                                   u_f - 2.0 * c_f / gm1)

        # nonreflecting outflow
        rho_b, u_b, p_b = prim(field[-1])
        c_b = math.sqrt(gamma * p_b / rho_b)
        lam = min(max(abs(u_b + c_b) * dt / dx, 0.0), 1.0)
        foot = [field[-1][i] + lam * (field[-2][i] - field[-1][i])
                for i in range(3)]
        rho_f, u_f, p_f = prim(foot)
        c_f = math.sqrt(gamma * p_f / rho_f)
        new_field[-1] = reconstruct(u_f + 2.0 * c_f / gm1,
                                    -2.0 * c0 / gm1)

        field = new_field
        p_hist.append([prim(w)[2] for w in field])
        g_prev = g
        t += dt
        states.append([list(w) for w in field])
    return states


class TestStepAgainstOracle:
    def test_three_coupled_steps_match_straight_line_oracle(self, air):
        sc = _small_scenario(air)
        sim = Simulation(sc)
        oracle = _oracle_steps(air, sc, 3)
        scales = np.array([air.rho0, air.rho0 * air.c0, air.p0 / 0.4])
        for n in range(3):
            sim.advance()
            got = sim.state.w
            want = np.asarray(oracle[n])
            assert np.max(np.abs(got - want) / scales) < 1e-13, f"step {n}"

    def test_rest_initial_field_matches_default_start(self, air):
        # an explicit rest field takes the same construction path
        sc = _small_scenario(air)
        sim = Simulation(sc)
        explicit = Simulation(sc, initial_field=Simulation(sc).state)
        for _ in range(4):
            sim.advance()
            explicit.advance()
        np.testing.assert_array_equal(explicit.state.w, sim.state.w)
        assert explicit.state.t == sim.state.t
        # the level the wall memory took last is the pressure of that state
        assert explicit.history.n_levels == sim.history.n_levels == 5
        np.testing.assert_array_equal(
            primitive_arrays(explicit.state.w, air)[2],
            primitive_arrays(sim.state.w, air)[2])
        np.testing.assert_array_equal(
            explicit.history.sums(4), sim.history.sums(4))

    def test_each_step_validates_the_field_once(self, air, monkeypatch):
        # every state is checked where its primitive arrays are computed:
        # the initial field once, then each completed field once; the
        # interior update checks nothing and the boundary rebuilds check
        # only their own nodes
        fields = []
        check = driver._checked_primitives

        def counting(w, gas):
            fields.append(w)
            return check(w, gas)

        monkeypatch.setattr(driver, "_checked_primitives", counting)
        sim = Simulation(_small_scenario(air))
        for _ in range(3):
            sim.advance()
        assert len(fields) == 4
        assert fields[-1] is sim.state.w

    @pytest.mark.parametrize("row", [
        (1.2, 0.0, -25.0),     # p = -10 Pa
        (0.0, 0.0, 253312.5),  # rho = 0: u = 0/0 must not end as a warning
    ])
    def test_invalid_initial_field_fails_before_any_step(self, air, row):
        # the constructor checks the field, so no step and no step context
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=8))
        state = Simulation(sc).state
        state.w[5] = row
        with pytest.raises(BlowUpError, match=r"\(node 5\)$") as info:
            Simulation(sc, initial_field=state)
        assert info.value.node == 5
        with pytest.raises(BlowUpError, match=r"\(node 5\)$"):
            run(sc, initial_field=state)

    @pytest.mark.parametrize("kind, amplitude", [(PRESSURE, 80.0),
                                                 (VELOCITY, 0.2)])
    def test_held_primitives_are_those_of_the_state(self, air, kind,
                                                    amplitude):
        # the (rho, u, p) a step hands to the wall memory, the probes and
        # the next update must be taken after both boundary rows are written
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=8),
                             inflow_kind=kind, probes=(0.0, 0.1),
                             inflow=SineSignal(amplitude, 2.0 * math.pi * 500.0))
        sim = Simulation(sc)
        for _ in range(K0 + 8):
            sim.advance()
            for held, fresh in zip(sim.prim, primitive_arrays(sim.state.w, air)):
                np.testing.assert_array_equal(held, fresh)


class TestWallMemoryInTheLoop:
    def test_lossy_run_matches_exact_history(self, air):
        """Past K0 steps the wall memory sums its older levels through the
        exponential modes; the run agrees with the same run summing the
        exact full history."""
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=12),
                             probes=(0.05,))
        fast = Simulation(sc)
        exact = Simulation(sc)
        exact.history = ExactHistory(n_nodes=sc.grid.n_nodes, dt=exact.dt)
        exact.history.append(primitive_arrays(exact.state.w, air)[2])
        n_steps = 4 * K0
        for _ in range(n_steps):
            fast.advance()
            exact.advance()
        assert fast.history.n_levels == exact.history.n_levels == n_steps + 1
        np.testing.assert_allclose(fast.state.w, exact.state.w, rtol=1e-9)
        _, u_fast, p_fast = primitive_arrays(fast.state.w, air)
        _, u_exact, p_exact = primitive_arrays(exact.state.w, air)
        # the acoustic part alone, against its own scale
        np.testing.assert_allclose(u_fast, u_exact, rtol=0.0,
                                   atol=1e-9 * np.abs(u_exact).max())
        np.testing.assert_allclose(p_fast - air.p0, p_exact - air.p0,
                                   rtol=0.0,
                                   atol=1e-9 * np.abs(p_exact - air.p0).max())
        rec_fast = fast.native_records()[0].data
        rec_exact = exact.native_records()[0].data
        for col, ref in ((0, air.rho0), (1, 0.0), (2, air.p0)):
            dev = rec_exact[:, col] - ref
            np.testing.assert_allclose(rec_fast[:, col] - ref, dev, rtol=0.0,
                                       atol=1e-9 * np.abs(dev).max())

    def test_lossless_run_leaves_one_level(self, air):
        sc = _small_scenario(air, losses=False, probes=(0.05,),
                             duration_s=None, duration_periods=1.0)
        result = run(sc)
        assert result.report.n_steps > K0
        assert result.history.n_levels == 1
        assert result.records[0].n_samples == result.report.n_steps + 1

    def test_lossy_run_feeds_every_level(self, air):
        sc = _small_scenario(air, duration_s=None, duration_periods=1.0)
        result = run(sc)
        assert result.history.n_levels == result.report.n_steps + 1


class TestBoundaryErrors:
    def test_supersonic_outlet_names_node_j(self, air):
        sc = _small_scenario(air, losses=False)
        state = Simulation(sc).state
        state.w[-1] = conserved_array(air.rho0, 400.0, air.p0, air)
        sim = Simulation(sc, initial_field=state)
        with pytest.raises(UnsupportedRegimeError,
                           match=f"node {sc.grid.cells}:"):
            sim.advance()


def _first_failure(sc, error):
    """Step a Simulation of sc until it raises error; return the error and
    the (step, t) it failed at."""
    sim = Simulation(sc)
    with pytest.raises(error) as info:
        while True:
            sim.advance()
    return info.value, sim.state.n + 1, sim.state.t + sim.dt


@pytest.mark.filterwarnings("ignore:effective Courant")
class TestRunFailures:
    def test_failure_names_the_step_and_the_period(self, air):
        # a -400 m/s velocity swing drives the inlet supersonic within the
        # first quarter period
        sc = _small_scenario(
            air, inflow_kind=VELOCITY, duration_s=None, duration_periods=1.0,
            inflow=SineSignal(amplitude=-400.0, omega0=2.0 * math.pi * 500.0))
        _, step, t = _first_failure(sc, UnsupportedRegimeError)
        period = sc.fundamental_period
        assert step > 1 and t < period
        with pytest.raises(UnsupportedRegimeError, match="node 0:") as info:
            run(sc)
        assert str(info.value).endswith(
            f" (step {step}, t/T0 = {t / period:.3f})")

    def test_blow_up_keeps_its_step_and_node(self, air):
        # a blow-up takes the same path out of the loop as every other
        # failure: its node, then the step and the period
        sc = _small_scenario(
            air, inflow_kind=VELOCITY, duration_s=None, duration_periods=1.0,
            inflow=SineSignal(amplitude=300.0, omega0=2.0 * math.pi * 500.0))
        error, step, t = _first_failure(sc, BlowUpError)
        node = error.node
        assert str(error) == f"state lost positivity (node {node})"
        with pytest.raises(BlowUpError) as info:
            run(sc)
        assert info.value.node == node
        assert str(info.value) == (
            f"state lost positivity (node {node})"
            f" (step {step}, t/T0 = {t / sc.fundamental_period:.3f})")


class TestRun:
    def test_zero_amplitude_probes_flat(self, air):
        sc = _small_scenario(
            air, inflow=SineSignal(amplitude=0.0, omega0=2.0 * math.pi * 500.0),
            probes=(0.05,), duration_s=None, duration_periods=2.0)
        result = run(sc)
        rec = result.records[0]
        assert np.abs(rec.component("u")).max() < 1e-12
        assert np.abs(rec.component("p") - air.p0).max() / air.p0 < 1e-13

    def test_bit_identical_reruns(self, air):
        sc = _small_scenario(air, probes=(0.05, 0.1), duration_s=None,
                             duration_periods=3.0)
        r1 = run(sc)
        r2 = run(sc)
        np.testing.assert_array_equal(r1.state.w, r2.state.w)
        for a, b in zip(r1.records, r2.records):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(r1.resampled, r2.resampled):
            np.testing.assert_array_equal(a.data, b.data)

    def test_report_contents(self, air):
        sc = _small_scenario(air, duration_s=None, duration_periods=2.0)
        result = run(sc)
        rep = result.report
        assert rep.dt == pytest.approx(frozen_dt(sc), rel=1e-15)
        assert rep.n_steps == math.ceil(sc.duration / rep.dt - 1e-9)
        assert rep.cells == 4
        assert rep.kernel_mode == "consistent"
        assert rep.wall_clock_s >= 0.0

    def test_resampled_grid_shape(self, air):
        sc = _small_scenario(air, probes=(0.1,), duration_s=None,
                             duration_periods=3.0, sampling_exponent=6)
        result = run(sc)
        rec = result.resampled[0]
        assert rec.n_samples == 3 * 64 + 1
        assert rec.tau == pytest.approx((1.0 / 500.0) / 64.0, rel=1e-12)


class TestDegenerateCoupling:
    def test_losses_off_equals_manual_lossless_stepping(self, air):
        sc = _small_scenario(air, losses=False, duration_s=None,
                             duration_periods=2.0, inflow_kind=VELOCITY,
                             inflow=SineSignal(0.05, 2.0 * math.pi * 500.0))
        sim = Simulation(sc)
        state = Simulation(sc).state
        zeros = np.zeros_like(state.w)
        dt = frozen_dt(sc)
        for _ in range(30):
            sim.advance()
            new = lax_wendroff_update(state, zeros, zeros, air, sc.grid, dt,
                                      primitive_arrays(state.w, air))
            u_val = sc.inflow.value(state.t + dt)
            new.w[0] = np.asarray(inflow_update_velocity(
                u_val, state.w[0], state.w[1], air, dt, sc.grid.dx))
            new.w[-1] = np.asarray(outflow_update(
                state.w[-2], state.w[-1], air, dt, sc.grid.dx, sc.grid.cells))
            state = new
        np.testing.assert_array_equal(sim.state.w, state.w)

    def test_lossless_steps_share_one_read_only_zero_table(self, air,
                                                          monkeypatch):
        seen = []
        update = driver.lax_wendroff_update

        def recording(field, sources, dt_sources, *args):
            seen.append((sources, dt_sources))
            return update(field, sources, dt_sources, *args)

        monkeypatch.setattr(driver, "lax_wendroff_update", recording)
        sim = Simulation(_small_scenario(air, losses=False))
        for _ in range(3):
            sim.advance()
        assert len({id(table) for pair in seen for table in pair}) == 1
        zero = seen[0][0]
        assert zero.shape == (sim.scenario.grid.n_nodes, 3)
        assert not zero.any()
        with pytest.raises(ValueError):
            zero[1, 2] = 1.0

    def test_vanishing_transport_coefficients_kill_the_sources(self, air):
        gas_thin = GasModel(mu=1e-300, k_cond=1e-300)
        sc_on = _small_scenario(gas_thin, losses=True, duration_s=None,
                                duration_periods=2.0)
        sc_off = replace(sc_on, losses=False)
        r_on = run(sc_on)
        r_off = run(sc_off)
        np.testing.assert_allclose(r_on.state.w, r_off.state.w,
                                   rtol=1e-12, atol=1e-12)


class TestCoupledPhysics:
    def test_losses_damp_and_smooth(self, air):
        freq = 600.0
        omega = 2.0 * math.pi * freq
        sc = Scenario(
            gas=air, grid=Grid(length=0.9, cells=120),
            geom=DuctGeometry(h=0.004, symmetry="axisymmetric"),
            inflow_kind=VELOCITY, inflow=SineSignal(8.0, omega),
            losses=True, cfl=0.8, duration_periods=7.0, probes=(0.9,),
            sampling_exponent=8,
        )
        period = 1.0 / freq

        def measure(scenario):
            rec = run(scenario).resampled[0]
            win = rec.window(5.0 * period, 7.0 * period)
            u = win.component("u")
            from ductwave.analysis import harmonic_spectrum
            fund = harmonic_spectrum(win, omega, 1).magnitude(1)
            return fund, np.abs(np.gradient(u, win.tau)).max()

        fund_on, slope_on = measure(sc)
        fund_off, slope_off = measure(replace(sc, losses=False))
        assert fund_on < fund_off
        assert slope_on < slope_off

    def test_long_run_stays_bounded(self, air):
        """50 periods of a small sine at cfl 0.8: no blow-up, max-norm
        growth under 1%."""
        freq = 1000.0
        lam = air.c0 / freq
        sc = Scenario(
            gas=air, grid=Grid(length=5.0 * lam, cells=100),
            geom=DuctGeometry(h=0.005), inflow_kind=VELOCITY,
            inflow=SineSignal(0.01, 2.0 * math.pi * freq), losses=False,
            cfl=0.8, duration_periods=50.0, probes=(2.5 * lam,),
        )
        result = run(sc)
        rec = result.records[0]
        period = 1.0 / freq
        early = rec.window(8.0 * period, 10.0 * period)
        late = rec.window(48.0 * period, 50.0 * period)
        peak_early = np.abs(early.component("u")).max()
        peak_late = np.abs(late.component("u")).max()
        assert peak_late <= 1.01 * peak_early

    def test_inflow_transparent_to_outgoing_waves(self, air):
        """A left-going pulse exits through the pressure-driven inlet held
        at p0, leaving less than 2% residual velocity."""
        grid = Grid(length=1.0, cells=160)
        x = grid.x
        amp = 1.5
        u = -amp * np.exp(-((x - 0.5) / 0.06) ** 2)
        c = air.c0 - 0.2 * u          # r_plus pinned at its rest value
        rho = air.rho0 * (c / air.c0) ** 5.0
        p = air.s0 * rho ** air.gamma
        init = FieldState(w=conserved_array(rho, u, p, air))
        sc = Scenario(
            gas=air, grid=grid, geom=DuctGeometry(h=0.007),
            inflow_kind=PRESSURE,
            inflow=SineSignal(0.0, 2.0 * math.pi * 100.0),
            losses=False, cfl=0.8, duration_s=0.8 / air.c0, probes=(),
        )
        result = run(sc, initial_field=init)
        _, u_final, _ = primitive_arrays(result.state.w, air)
        assert np.abs(u_final).max() < 0.02 * amp

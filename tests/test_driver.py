"""Coupled time loop: initialization, stepping, runs, degenerate modes."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ductwave import config, driver, wall
from ductwave.driver import (
    PRESSURE,
    VELOCITY,
    Scenario,
    Simulation,
    frozen_dt,
    run,
)
from ductwave.errors import DuctwaveError
from ductwave.gas import GasModel, conserved_array, primitive_arrays
from ductwave.scheme import DuctGeometry, Grid, Level, lax_wendroff_update
from ductwave.boundaries import boundary_row
from ductwave.signals import MultiHarmonicSignal
from ductwave.wall import K0
from exact_history import ExactHistory
from reference_forms import source_increments


OMEGA0 = 2.0 * math.pi * 500.0   # the 500 Hz fundamental of _small_scenario


def _small_scenario(air, **overrides):
    base = dict(
        gas=air,
        grid=Grid(length=0.1, cells=4),
        geom=DuctGeometry(h=0.005, symmetry="axisymmetric"),
        inflow_kind=PRESSURE,
        inflow=MultiHarmonicSignal(OMEGA0, ((1, 80.0, 0.0),)),
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

    def test_sampling_exponent_ceiling(self, air):
        assert _small_scenario(air, sampling_exponent=20).sampling_exponent \
            == 20
        with pytest.raises(ValueError, match="exceeds 20"):
            _small_scenario(air, sampling_exponent=21)
        with pytest.raises(ValueError, match="anti-aliasing floor"):
            _small_scenario(air, sampling_exponent=-1)


class TestInitialize:
    def test_rest_everywhere(self, air):
        sc = _small_scenario(air)
        sim = Simulation(sc)
        w, history = sim.w, sim.history
        rho, u, p = primitive_arrays(w, air)
        assert np.all(u == 0.0)
        np.testing.assert_allclose(p / rho ** air.gamma, air.s0, rtol=1e-13)
        # trapezoid mass per unit area: rho0 * L
        mass = np.trapezoid(rho, dx=sc.grid.dx)
        assert mass == pytest.approx(air.rho0 * sc.grid.length, rel=1e-13)
        # the wall memory holds the initial pressures as its first level
        assert history.n_levels == 1
        np.testing.assert_allclose(p, air.p0, rtol=1e-13)
        np.testing.assert_array_equal(history.p0, p)

    def test_initial_field_is_a_copied_array(self, air, monkeypatch):
        # a plain (J+1, 3) array; Simulation and run copy it, so what the
        # caller writes into it after construction never reaches the run
        sc = _small_scenario(air, probes=(0.05,))
        ref = run(sc)
        w = np.tile(conserved_array(air.rho0, 0.0, air.p0, air),
                    (sc.grid.n_nodes, 1))
        sim = Simulation(sc, initial_field=w)
        w[:] = 0.0
        for _ in range(ref.report.n_steps):
            sim.advance()
        np.testing.assert_array_equal(sim.w, ref.w)
        assert sim.n == ref.report.n_steps

        w = np.tile(conserved_array(air.rho0, 0.0, air.p0, air),
                    (sc.grid.n_nodes, 1))
        advance = Simulation.advance

        def meddling(self):
            w[:] = 0.0
            advance(self)

        monkeypatch.setattr(Simulation, "advance", meddling)
        result = run(sc, initial_field=w)
        np.testing.assert_array_equal(result.w, ref.w)
        np.testing.assert_array_equal(result.records[0].data,
                                      ref.records[0].data)

    def test_initial_field_round_trips_bit_for_bit(self, air, rng):
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=8))
        w = conserved_array(1.2 + 0.01 * rng.random(9),
                            rng.standard_normal(9),
                            air.p0 + 100.0 * rng.standard_normal(9), air)
        sim = Simulation(sc, initial_field=w)
        np.testing.assert_array_equal(sim.w, w)
        for got, want in zip(sim.prim, primitive_arrays(w, air)):
            np.testing.assert_array_equal(got, want)

    def test_w_is_the_transposed_view_of_the_state(self, air):
        # the state is one C-contiguous (3, J+1) array of rows; the field
        # a caller sees, of the stepper and of the result, is its (J+1, 3)
        # view, and the steps alternate two such arrays
        sc = _small_scenario(air, probes=(0.05,))
        sim = Simulation(sc)
        shape = (sc.grid.n_nodes, 3)
        bases = []
        for _ in range(4):
            assert sim.w.shape == shape
            assert sim.w.base.shape == (3, sc.grid.n_nodes)
            assert sim.w.base.flags.c_contiguous
            np.testing.assert_array_equal(sim.w.base, sim.w.T)
            assert sim.prim.shape == (3, sc.grid.n_nodes)
            bases.append(sim.w.base)
            sim.advance()
        assert bases[0] is bases[2] and bases[1] is bases[3]
        assert bases[0] is not bases[1]
        result = run(sc)
        assert result.w.shape == shape
        assert result.w.base.flags.c_contiguous
        np.testing.assert_array_equal(result.w.base.T, result.w)

    @pytest.mark.parametrize("shape", [(4, 3), (6, 3), (5, 2), (15,)],
                             ids=["short", "long", "two-columns", "flat"])
    def test_initial_field_of_the_wrong_shape(self, air, shape):
        sc = _small_scenario(air)   # 5 nodes
        w = np.ones(shape)
        with pytest.raises(ValueError, match=r"\(5, 3\)"):
            Simulation(sc, initial_field=w)
        with pytest.raises(ValueError, match=r"\(5, 3\)"):
            run(sc, initial_field=w)

    def test_frozen_dt_is_rest_cfl(self, air):
        sc = _small_scenario(air)
        assert frozen_dt(sc) == 0.8 * sc.grid.dx / air.c0


class TestFixedPoints:
    def test_lossless_rest_state_unchanged(self, air):
        sc = _small_scenario(
            air, losses=False,
            inflow=MultiHarmonicSignal(OMEGA0, ((1, 0.0, 0.0),)))
        sim = Simulation(sc)
        w0 = sim.w.copy()
        sim.advance()
        # the interior stencil sees exact rest data: bitwise fixed point;
        # boundary reconstruction carries at most rounding-level jitter
        np.testing.assert_array_equal(sim.w[1:-1], w0[1:-1])
        for _ in range(49):
            sim.advance()
        rho, u, p = primitive_arrays(sim.w, air)
        assert np.abs(u).max() < 1e-12
        assert np.abs(rho - air.rho0).max() / air.rho0 < 1e-13
        assert np.abs(p - air.p0).max() / air.p0 < 1e-13

    def test_lossy_rest_state_unchanged(self, air):
        # constant history means G = 0, so losses change nothing at rest
        sc = _small_scenario(
            air, losses=True, inflow_kind=VELOCITY,
            inflow=MultiHarmonicSignal(OMEGA0, ((1, 0.0, 0.0),)))
        sim = Simulation(sc)
        for _ in range(50):
            sim.advance()
        rho, u, p = primitive_arrays(sim.w, air)
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
            got = sim.w
            want = np.asarray(oracle[n])
            assert np.max(np.abs(got - want) / scales) < 1e-13, f"step {n}"

    def test_rest_initial_field_matches_default_start(self, air):
        # an explicit rest field takes the same construction path
        sc = _small_scenario(air)
        sim = Simulation(sc)
        explicit = Simulation(sc, initial_field=Simulation(sc).w)
        for _ in range(4):
            sim.advance()
            explicit.advance()
        np.testing.assert_array_equal(explicit.w, sim.w)
        assert explicit.n * explicit.dt == sim.n * sim.dt
        # the level the wall memory took last is the pressure of that state
        assert explicit.history.n_levels == sim.history.n_levels == 5
        np.testing.assert_array_equal(
            primitive_arrays(explicit.w, air)[2],
            primitive_arrays(sim.w, air)[2])
        np.testing.assert_array_equal(
            explicit.history.sums(4), sim.history.sums(4))

    def test_each_step_validates_the_field_once(self, air, monkeypatch):
        # every state is checked where its primitive arrays are computed:
        # the initial field once, then each completed field once; the
        # interior update checks nothing and the boundary rebuilds check
        # only their own nodes
        fields = []
        check = driver._checked_primitives

        def counting(w, gas, *out):
            fields.append(w)
            return check(w, gas, *out)

        monkeypatch.setattr(driver, "_checked_primitives", counting)
        sim = Simulation(_small_scenario(air))
        for _ in range(3):
            sim.advance()
        assert len(fields) == 4
        assert fields[-1] is sim.w

    @pytest.mark.parametrize("row", [
        (1.2, 0.0, -25.0),     # p = -10 Pa
        (0.0, 0.0, 253312.5),  # rho = 0: u = 0/0 must not end as a warning
    ])
    def test_invalid_initial_field_fails_before_any_step(self, air, row):
        # the constructor checks the field, so no step and no step context
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=8))
        w = Simulation(sc).w
        w[5] = row
        failure = r"^state lost positivity \(node 5\)$"
        with pytest.raises(DuctwaveError, match=failure) as info:
            Simulation(sc, initial_field=w)
        assert info.value.node == 5
        with pytest.raises(DuctwaveError, match=failure):
            run(sc, initial_field=w)

    @pytest.mark.parametrize("kind, amplitude", [(PRESSURE, 80.0),
                                                 (VELOCITY, 0.2)])
    def test_held_primitives_are_those_of_the_state(self, air, kind,
                                                    amplitude):
        # the (rho, u, p) a step hands to the wall memory, the probes and
        # the next update must be taken after both boundary rows are written
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=8),
                             inflow_kind=kind, probes=(0.0, 0.1),
                             inflow=MultiHarmonicSignal(
                                 OMEGA0, ((1, amplitude, 0.0),)))
        sim = Simulation(sc)
        for _ in range(K0 + 8):
            sim.advance()
            for held, fresh in zip(sim.prim, primitive_arrays(sim.w, air)):
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
        # the run's wall memory carries the prefactors times dt
        exact.history = ExactHistory(
            sc.grid.n_nodes, *(exact.dt * c for c in wall.source_coefficients(
                air, sc.geom, sc.grid, exact.dt)))
        exact.history.append(primitive_arrays(exact.w, air)[2])
        # the (rho, u, p) rows of the probe node at every level
        node = sc.grid.nearest_node(sc.probes[0])
        rows_fast, rows_exact = [], []
        n_steps = 4 * K0
        for step in range(n_steps + 1):
            if step:
                fast.advance()
                exact.advance()
            rows_fast.append([a[node] for a in fast.prim])
            rows_exact.append([a[node] for a in exact.prim])
        assert fast.history.n_levels == exact.history.n_levels == n_steps + 1
        np.testing.assert_allclose(fast.w, exact.w, rtol=1e-9)
        _, u_fast, p_fast = primitive_arrays(fast.w, air)
        _, u_exact, p_exact = primitive_arrays(exact.w, air)
        # the acoustic part alone, against its own scale
        np.testing.assert_allclose(u_fast, u_exact, rtol=0.0,
                                   atol=1e-9 * np.abs(u_exact).max())
        np.testing.assert_allclose(p_fast - air.p0, p_exact - air.p0,
                                   rtol=0.0,
                                   atol=1e-9 * np.abs(p_exact - air.p0).max())
        rec_fast, rec_exact = np.array(rows_fast), np.array(rows_exact)
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

    def test_steps_hand_in_source_increments(self, air, monkeypatch):
        # steps 1 and 2 (the tables of steps 0 and 1 and their zero
        # predecessor) and steps past K0, where the exponential modes
        # carry the older levels: each step's increments are those of
        # source_table at its own level and the level before. The run's
        # wall memory carries dt, so its tables are dt G
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=12))
        sim = Simulation(sc)
        tables, handed = [np.zeros((2, sc.grid.n_nodes))], []
        update = driver.lax_wendroff_update

        def recording(cur, nxt, s_node, s_mid, *args):
            tables.append(wall.source_table(sim.history, sim.n))
            handed.append((s_node.copy(), s_mid.copy()))
            return update(cur, nxt, s_node, s_mid, *args)

        monkeypatch.setattr(driver, "lax_wendroff_update", recording)
        for _ in range(K0 + 3):
            sim.advance()
        dt = sim.dt
        for step in (1, 2, K0 + 2, K0 + 3):
            g_prev, g_now = tables[step - 1], tables[step]
            want_node, want_mid = source_increments(
                g_now / dt, (g_now - g_prev) / (dt * dt), dt)
            s_node, s_mid = handed[step - 1]
            assert s_node.shape == s_mid.shape == (2, sc.grid.n_nodes)
            np.testing.assert_allclose(s_node, want_node, rtol=1e-12)
            np.testing.assert_allclose(s_mid[:, :-1], want_mid[:, :-1],
                                       rtol=1e-12)
        assert np.abs(tables[2]).max() > 0.0

    def test_lossy_run_feeds_every_level(self, air):
        sc = _small_scenario(air, duration_s=None, duration_periods=1.0)
        result = run(sc)
        assert result.history.n_levels == result.report.n_steps + 1

    def test_prefactors_are_derived_once_per_run(self, air, monkeypatch):
        calls = []
        coefficients = wall.source_coefficients

        def counting(*args):
            calls.append(args)
            return coefficients(*args)

        monkeypatch.setattr(wall, "source_coefficients", counting)
        result = run(_small_scenario(air, duration_s=None,
                                     duration_periods=1.0))
        assert result.report.n_steps > K0
        assert len(calls) == 1


class _ConstantInflow:
    """An inflow datum that holds one value and has no period."""

    period = None

    def __init__(self, datum):
        self.datum = datum

    def value(self, t):
        return self.datum


class TestBoundaryErrors:
    @pytest.mark.parametrize("datum", [-101325.0, -3e5])
    def test_non_positive_imposed_pressure_refused(self, air, datum):
        # pi = p0 + datum at or below zero is refused before the inlet's
        # external velocity is formed from it; the level is kept
        sim = Simulation(_small_scenario(air, inflow=_ConstantInflow(datum)))
        w = sim.w.copy()
        pi_val = air.p0 + datum
        assert pi_val <= 0.0
        with pytest.raises(DuctwaveError,
                           match="^imposed pressure must be positive:"
                                 f" pi={re.escape(f'{pi_val:.3f}')} Pa"
                                 r" \(node 0\)$") as info:
            sim.advance()
        assert info.value.node == 0
        assert sim.n == 0
        np.testing.assert_array_equal(sim.w, w)

    def test_a_refused_step_leaves_the_stepper_as_it_was(self, air):
        # a step refused at its inflow datum keeps the last good level and
        # everything the next step reads: stepping on after it matches a
        # stepper that never tried it
        class Refusing:
            period = None
            refuse = False

            def value(self, t):
                return -3e5 if self.refuse else 80.0 * math.sin(OMEGA0 * t)

        inflow = Refusing()
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=8),
                             inflow=inflow)
        tried, clean = Simulation(sc), Simulation(sc)
        for _ in range(5):
            tried.advance()
            clean.advance()
        inflow.refuse = True
        with pytest.raises(DuctwaveError, match="^imposed pressure"):
            tried.advance()
        inflow.refuse = False
        for _ in range(3):
            tried.advance()
            clean.advance()
        assert tried.n == clean.n == 8
        np.testing.assert_array_equal(tried.w, clean.w)

    def test_supersonic_outlet_names_node_j(self, air):
        sc = _small_scenario(air, losses=False)
        w = Simulation(sc).w
        w[-1] = conserved_array(air.rho0, 400.0, air.p0, air)
        sim = Simulation(sc, initial_field=w)
        with pytest.raises(DuctwaveError,
                           match="^supersonic state: .*"
                                 rf" \(node {sc.grid.cells}\)$") as info:
            sim.advance()
        assert info.value.node == sc.grid.cells


def _first_failure(sc, match):
    """Step a Simulation of sc until it raises a DuctwaveError matching
    match; return the error, the (step, t) it failed at, and the
    ", Courant number C at node j" ending that max (|u| + c) dt/dx of the
    last good level gives."""
    sim = Simulation(sc)
    with pytest.raises(DuctwaveError, match=match) as info:
        while True:
            sim.advance()
    rho, u, p = primitive_arrays(sim.w, sc.gas)
    speed = np.abs(u) + np.sqrt(sc.gas.gamma * p / rho)
    node = int(np.argmax(speed))
    courant = speed[node] * sim.dt / sc.grid.dx
    return (info.value, sim.n + 1, (sim.n + 1) * sim.dt,
            f", Courant number {courant:.3f} at node {node}")


class _RecordingInflow:
    """An inflow signal that records each time it is read at and, from
    its fail_at-th read on, has no datum and names the time asked for."""

    def __init__(self, signal=None, fail_at=None):
        self.signal, self.fail_at, self.times = signal, fail_at, []

    @property
    def period(self):
        return getattr(self.signal, "period", None)

    def value(self, t):
        self.times.append(t)
        if len(self.times) == self.fail_at:
            raise DuctwaveError(f"no datum at t = {t!r} s")
        return 0.0 if self.signal is None else self.signal.value(t)


class TestOneClock:
    @pytest.mark.parametrize("kind, amplitude", [(PRESSURE, 80.0),
                                                 (VELOCITY, 0.05)])
    def test_inflow_of_step_k_is_read_at_k_dt(self, air, kind, amplitude):
        # a running sum of dt parts from k * dt within these 50 steps
        inflow = _RecordingInflow(
            MultiHarmonicSignal(OMEGA0, ((1, amplitude, 0.0),)))
        sim = Simulation(_small_scenario(air, inflow_kind=kind,
                                         inflow=inflow))
        for _ in range(50):
            sim.advance()
        assert inflow.times == [k * sim.dt for k in range(1, 51)]
        assert not hasattr(sim, "t")

    def test_failure_names_the_time_of_its_step(self, air):
        inflow = _RecordingInflow(fail_at=40)
        sc = _small_scenario(air, inflow=inflow, losses=False,
                             duration_s=1e-2)
        with pytest.raises(DuctwaveError, match="^no datum") as info:
            run(sc)
        t = 40 * frozen_dt(sc)
        assert str(info.value).startswith(
            f"no datum at t = {t!r} s (step 40, t = {t:.6g} s,"
            " Courant number")


class TestRunFailures:
    def test_failure_names_the_step_and_the_period(self, air):
        # a -400 m/s velocity swing drives the inlet supersonic within the
        # first quarter period
        sc = _small_scenario(
            air, inflow_kind=VELOCITY, duration_s=None, duration_periods=1.0,
            inflow=MultiHarmonicSignal(OMEGA0, ((1, -400.0, 0.0),)))
        supersonic = r"^supersonic state: .* \(node 0\)"
        error, step, t, courant = _first_failure(sc, supersonic + "$")
        assert error.node == 0
        period = sc.fundamental_period
        assert step > 1 and t < period
        with pytest.raises(DuctwaveError, match=supersonic) as info:
            run(sc)
        assert info.value.node == 0
        assert str(info.value).endswith(
            f" (step {step}, t/T0 = {t / period:.3f}{courant})")

    def test_blow_up_keeps_its_step_and_node(self, air):
        # a blow-up takes the same path out of the loop as every other
        # failure: its node, then the step and the period
        sc = _small_scenario(
            air, inflow_kind=VELOCITY, duration_s=None, duration_periods=1.0,
            inflow=MultiHarmonicSignal(OMEGA0, ((1, 300.0, 0.0),)))
        lost = "^state lost positivity"
        error, step, t, courant = _first_failure(sc, lost)
        node = error.node
        assert str(error) == f"state lost positivity (node {node})"
        with pytest.raises(DuctwaveError, match=lost) as info:
            run(sc)
        assert info.value.node == node
        assert str(info.value) == (
            f"state lost positivity (node {node})"
            f" (step {step}, t/T0 = {t / sc.fundamental_period:.3f}{courant})")


class TestRun:
    def test_zero_amplitude_probes_flat(self, air):
        sc = _small_scenario(
            air, inflow=MultiHarmonicSignal(OMEGA0, ((1, 0.0, 0.0),)),
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
        np.testing.assert_array_equal(r1.w, r2.w)
        for a, b in zip(r1.records, r2.records):
            np.testing.assert_array_equal(a.data, b.data)
        for a, b in zip(r1.resampled, r2.resampled):
            np.testing.assert_array_equal(a.samples(0, a.n_samples),
                                          b.samples(0, b.n_samples))

    def test_report_contents(self, air):
        sc = _small_scenario(air, duration_s=None, duration_periods=2.0)
        result = run(sc)
        rep = result.report
        assert rep.dt == pytest.approx(frozen_dt(sc), rel=1e-15)
        assert rep.n_steps == math.ceil(sc.duration / rep.dt - 1e-9)
        assert result.scenario is sc
        assert result.scenario.grid.cells == 4
        assert rep.wall_clock_s >= 0.0

    def test_resampled_grid_shape(self, air):
        sc = _small_scenario(air, probes=(0.1,), duration_s=None,
                             duration_periods=3.0, sampling_exponent=6)
        result = run(sc)
        rec = result.resampled[0]
        assert rec.n_samples == 3 * 64 + 1
        assert rec.tau == pytest.approx((1.0 / 500.0) / 64.0, rel=1e-12)


class TestProbeStorage:
    def test_native_records_are_the_probed_primitive_rows(self, air):
        # stations 0.05 and 0.051 round to node 2, recorded once after
        # node 4, in first-seen order; the records are, bit for bit, the
        # checked primitive columns of a stepper run by hand, and views of
        # one step-major (n_steps + 1, 3, P) float64 array
        sc = _small_scenario(air, probes=(0.1, 0.05, 0.051))
        result = run(sc)
        nodes = (4, 2)
        sim = Simulation(sc)
        expected = [[] for _ in nodes]
        for step in range(result.report.n_steps + 1):
            if step:
                sim.advance()
            for rows, j in zip(expected, nodes):
                rows.append(sim.prim[:, j].copy())
        records = result.records
        assert [r.station_index for r in records] == list(nodes)
        for rec, rows in zip(records, expected):
            assert rec.data.dtype == np.float64
            assert rec.data.shape == (result.report.n_steps + 1, 3)
            assert rec.data.tobytes() == np.array(rows).tobytes()
        buffer = records[0].data.base
        assert buffer.shape == (result.report.n_steps + 1, 3, len(nodes))
        assert buffer.flags.c_contiguous
        for i, rec in enumerate(records):
            assert rec.data.base is buffer
            assert np.shares_memory(rec.data, buffer)
            assert rec.data.tobytes() == buffer[:, :, i].tobytes()

    def test_run_memory_grows_only_with_its_native_rows(self):
        # the tracemalloc peaks of a 60- and a 25-period lossy run: the
        # longer run may add at most twice the native-record bytes it adds
        # (an eagerly built period grid added 1.7 MiB against 0.10 MiB;
        # probe rows held as tuples, folded into blocks every 2048 steps,
        # added 0.35 MiB)
        values = dict(config.builtin_scenarios()["kirchhoff"].values)
        peaks, native = [], []
        for periods in (25.0, 60.0):
            values["run.duration_periods"] = periods
            sc = config.scenario_from_config(config.ConfigDocument(values))
            tracemalloc.start()
            try:
                result = run(sc)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            native.append(sum(r.data.nbytes for r in result.records))
            del result
        assert peaks[1] - peaks[0] <= 2 * (native[1] - native[0])


class TestStepStorage:
    @pytest.mark.parametrize("losses", [True, False])
    def test_a_step_allocates_no_array(self, air, losses):
        # past a warm-up, 64 steps, across a fold of the wall memory (one
        # every K0 = 8 levels) when losses are on, trace a peak below one
        # node row: every array a step writes was made with the stepper
        sc = _small_scenario(air, grid=Grid(length=0.1, cells=400),
                             losses=losses)
        sim = Simulation(sc)
        for _ in range(K0 + 3):
            sim.advance()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for _ in range(64):
                sim.advance()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * sc.grid.n_nodes


class TestDegenerateCoupling:
    def test_losses_off_equals_manual_lossless_stepping(self, air):
        sc = _small_scenario(air, losses=False, duration_s=None,
                             duration_periods=2.0, inflow_kind=VELOCITY,
                             inflow=MultiHarmonicSignal(OMEGA0, ((1, 0.05, 0.0),)))
        sim = Simulation(sc)
        cur, nxt = Level(sc.grid.n_nodes), Level(sc.grid.n_nodes)
        cur.w[:] = Simulation(sc).w
        zeros = np.zeros((2, sc.grid.n_nodes))
        dt = frozen_dt(sc)
        for k in range(30):
            sim.advance()
            primitive_arrays(cur.w, air, cur.prim)
            new = lax_wendroff_update(cur, nxt, zeros, zeros, air, sc.grid,
                                      dt)
            t = (k + 1) * dt
            new[:, 0] = boundary_row(cur.q[:, 0], cur.q[:, 1],
                                     sc.inflow.value(t), -1, air, dt,
                                     sc.grid.dx, 0)
            new[:, -1] = boundary_row(cur.q[:, -1], cur.q[:, -2], 0.0, +1,
                                      air, dt, sc.grid.dx, sc.grid.cells)
            cur, nxt = nxt, cur
        np.testing.assert_array_equal(sim.w, cur.w)
        assert sim.n * sim.dt == t

    def test_lossless_steps_hand_in_no_source_increments(self, air,
                                                         monkeypatch):
        # a lossless step does no source arithmetic: it hands the update
        # no increments, and the interior it gets is bit for bit the one
        # zero increments give, signed zeros included (0 - F differs from
        # -F only in the sign of a zero, which the later sums do not keep)
        seen, twins = [], []
        update = driver.lax_wendroff_update

        def recording(cur, nxt, s_node, s_mid, *args):
            seen.append((s_node, s_mid))
            new = update(cur, nxt, s_node, s_mid, *args).copy()
            zeros = np.zeros((2, cur.n))
            twin = update(cur, Level(cur.n, cur), zeros, zeros, *args)
            twins.append((new[:, 1:-1].tobytes(), twin[:, 1:-1].tobytes()))
            return nxt.q

        monkeypatch.setattr(driver, "lax_wendroff_update", recording)
        sc = _small_scenario(air, losses=False,
                             grid=Grid(length=0.1, cells=12))
        sim = Simulation(sc)
        for _ in range(40):
            sim.advance()
        assert seen == [(None, None)] * 40
        assert all(new == twin for new, twin in twins)
        assert np.abs(sim.prim[1]).max() > 0.0

    def test_vanishing_transport_coefficients_kill_the_sources(self, air):
        gas_thin = GasModel(mu=1e-300, k_cond=1e-300)
        sc_on = _small_scenario(gas_thin, losses=True, duration_s=None,
                                duration_periods=2.0)
        sc_off = replace(sc_on, losses=False)
        r_on = run(sc_on)
        r_off = run(sc_off)
        np.testing.assert_allclose(r_on.w, r_off.w,
                                   rtol=1e-12, atol=1e-12)


class TestCoupledPhysics:
    def test_losses_damp_and_smooth(self, air):
        freq = 600.0
        omega = 2.0 * math.pi * freq
        sc = Scenario(
            gas=air, grid=Grid(length=0.9, cells=120),
            geom=DuctGeometry(h=0.004, symmetry="axisymmetric"),
            inflow_kind=VELOCITY,
            inflow=MultiHarmonicSignal(omega, ((1, 8.0, 0.0),)),
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
            inflow=MultiHarmonicSignal(2.0 * math.pi * freq, ((1, 0.01, 0.0),)),
            losses=False,
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
        init = conserved_array(rho, u, p, air)
        sc = Scenario(
            gas=air, grid=grid, geom=DuctGeometry(h=0.007),
            inflow_kind=PRESSURE,
            inflow=MultiHarmonicSignal(2.0 * math.pi * 100.0, ((1, 0.0, 0.0),)),
            losses=False, cfl=0.8, duration_s=0.8 / air.c0, probes=(),
        )
        result = run(sc, initial_field=init)
        _, u_final, _ = primitive_arrays(result.w, air)
        assert np.abs(u_final).max() < 0.02 * amp

"""Memory-kernel wall sources: weights, quadratures, sums, erf profiles."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy.special import erf

from ductwave import driver
from ductwave.driver import MEMORY_MARGIN, Scenario, Simulation
from ductwave.scheme import DuctGeometry, Grid, Level, lax_wendroff_update
from ductwave.signals import MultiHarmonicSignal
from ductwave.wall import (
    _BLOCKS,
    _SOE_C,
    _SOE_S,
    _sized_nodes,
    EM_K,
    K0,
    KAPPA,
    PressureHistory,
    kernel_weights,
    source_coefficients,
    source_table,
)
from exact_history import ExactHistory
from reference_forms import (
    EULER_MACLAURIN_K,
    bl_temperature_profile,
    bl_velocity_profile,
    endpoint_correction,
    heat_kernel_constant,
    quad_one_point,
    quad_two_point,
    source_increments,
)

GEOM = DuctGeometry(h=0.005, symmetry="axisymmetric")
GRID = Grid(length=0.1, cells=4)


def _coef(gas, dt, grid=GRID, geom=GEOM):
    """Prefactors (c2, c3) of a run on dt."""
    return source_coefficients(gas, geom, grid, dt)


def _history(levels, n_nodes=5, kind=PressureHistory, coef=(1.0, 1.0),
              steps=None):
    """kind fed levels: the wall memory, sized for steps (by default as
    many as levels), or the exact oracle."""
    if kind is ExactHistory:
        hist = kind(n_nodes, *coef)
    else:
        hist = kind(n_nodes, *coef, len(levels) if steps is None else steps)
    for row in levels:
        hist.append(np.asarray(row, dtype=float))
    return hist


def _table(levels, n, gas, grid=GRID, geom=GEOM, dt=1e-5):
    """Runtime source table at step n of the series levels[0..n]; the wall
    memory only answers for its latest level, so it is refilled up to n."""
    hist = _history(levels[:n + 1], n_nodes=grid.n_nodes,
                    coef=_coef(gas, dt, grid, geom))
    return source_table(hist, n)[0]


def _g2(levels, j, n, gas, grid=GRID, geom=GEOM, dt=1e-5):
    """Shear source G2 at node j from the runtime source table."""
    return _table(levels, n, gas, grid, geom, dt=dt)[0, j]


def _g3(levels, j, n, gas, geom=GEOM, dt=1e-5):
    """Heat source G3 at node j from the runtime source table."""
    return _table(levels, n, gas, GRID, geom, dt=dt)[1, j]


def _scenario(gas, **overrides):
    """Lossy 5-node scenario on GRID/GEOM for a short Simulation."""
    base = dict(gas=gas, grid=GRID, geom=GEOM, inflow_kind="pressure",
                inflow=MultiHarmonicSignal(2000.0, ((1, 50.0, 0.0),)),
                duration_s=1e-3)
    base.update(overrides)
    return Scenario(**base)


def _step_sources(sim, n_steps, monkeypatch):
    """(s_node, s_mid, table) of each of n_steps steps of sim: copies of
    the source increments the step hands the interior update, and with
    losses on source_table of the wall memory at that step, dt G, since
    a run's memory carries dt. With losses off a step hands in no
    increments, and all three are None."""
    sc = sim.scenario
    seen = []

    def record(cur, nxt, s_node, s_mid, *args):
        if sc.losses:
            seen.append((s_node.copy(), s_mid.copy(),
                         source_table(sim.history, sim.n)[0]))
        else:
            seen.append((s_node, s_mid, None))
        return lax_wendroff_update(cur, nxt, s_node, s_mid, *args)

    monkeypatch.setattr(driver, "lax_wendroff_update", record)
    for _ in range(n_steps):
        sim.advance()
    return seen


def _brute_force_g2(p, j, n, dt, dx, gas, geom):
    """Straight-line re-evaluation of the shear sum: two-point quadrature
    of the 1/sqrt kernel against centered pressure-gradient differences,
    with the endpoint correction of the pair sums."""
    total = 0.0
    for m in range(n):
        bracket = (p[n - m - 1][j + 1] + p[n - m][j + 1]) \
            - (p[n - m - 1][j - 1] + p[n - m][j - 1])
        total += bracket / (math.sqrt(m) + math.sqrt(m + 1))
    total += endpoint_correction([row[j + 1] for row in p], n)[0] \
        - endpoint_correction([row[j - 1] for row in p], n)[0]
    return (geom.beta / geom.h) * math.sqrt(gas.mu / (gas.rho0 * math.pi)) \
        * math.sqrt(dt) / (2.0 * dx) * total


def _brute_force_g3(p, j, n, dt, gas, geom, kappa):
    total = 0.0
    for m in range(n):
        total += (p[n - m][j] - p[n - m - 1][j]) \
            / (math.sqrt(m) + math.sqrt(m + 1))
    total += endpoint_correction([row[j] for row in p], n)[1]
    return -(2.0 * geom.beta / geom.h) * kappa / math.sqrt(dt) * total


class TestKernelWeights:
    def test_first_weight_is_one(self):
        assert kernel_weights(1)[0] == 1.0

    def test_strictly_decreasing_in_unit_interval(self):
        w = kernel_weights(500)
        assert np.all(np.diff(w) < 0.0)
        assert np.all(w > 0.0)
        assert np.all(w <= 1.0)

    def test_closed_form(self):
        w = kernel_weights(5001)
        for m in (0, 1, 7, 1000, 5000):
            assert w[m] == pytest.approx(
                1.0 / (math.sqrt(m) + math.sqrt(m + 1)), rel=1e-15)


class TestQuadratures:
    def test_two_point_exact_for_constants(self):
        # integral of dz/sqrt(z) over [1,4] is 2
        assert quad_two_point(1.0, 1.0, 1.0, 4.0) == pytest.approx(2.0, rel=1e-15)

    def test_two_point_scales_linearly(self):
        base = quad_two_point(1.0, 1.0, 0.5, 2.5)
        assert quad_two_point(3.0, 3.0, 0.5, 2.5) == pytest.approx(
            3.0 * base, rel=1e-15)

    def test_two_point_linear_integrand_error(self):
        # phi(z) = z on [1,4]: rule gives 5, exact is 14/3 (7.1% high)
        approx = quad_two_point(1.0, 4.0, 1.0, 4.0)
        assert approx == pytest.approx(5.0, rel=1e-15)
        exact = 14.0 / 3.0
        assert abs(approx - exact) / exact == pytest.approx(0.0714, abs=0.001)

    def test_one_point_exact_for_constants_at_origin(self):
        # integral of dz/sqrt(z) over [0,1] is 2
        assert quad_one_point(1.0, 0.0, 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_one_point_zero_integrand(self):
        assert quad_one_point(0.0, 0.0, 1.0) == 0.0

    def test_one_point_linear_integrand_error(self):
        # phi(z) = z on [0,1]: rule gives 1, exact is 2/3
        assert quad_one_point(0.5, 0.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    @given(c=st.floats(-1e6, 1e6),
           a=st.floats(0.0, 100.0),
           width=st.floats(1e-9, 100.0))
    def test_exact_for_constants_everywhere(self, c, a, width):
        # reference integral evaluated in 50-digit decimals; the naive
        # float form sqrt(b)-sqrt(a) cancels badly for thin intervals
        b = a + width
        with localcontext() as ctx:
            ctx.prec = 50
            exact = float(2 * (Decimal(b).sqrt() - Decimal(a).sqrt())) * c
        assert quad_two_point(c, c, a, b) == pytest.approx(exact, rel=1e-12,
                                                           abs=1e-15)
        assert quad_one_point(c, a, b) == pytest.approx(exact, rel=1e-12,
                                                        abs=1e-15)

    def test_degenerate_intervals_rejected(self):
        with pytest.raises(ValueError):
            quad_two_point(1.0, 1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            quad_one_point(1.0, -1.0, 1.0)


class TestPressureHistory:
    """The exact-history oracle of the tests, and the window both share."""

    def test_append_and_series(self):
        hist = _history([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6]], kind=ExactHistory)
        assert hist.n_levels == 2
        np.testing.assert_array_equal(hist.series(1), [2.0, 3.0])
        np.testing.assert_array_equal(hist.level(0), [1, 2, 3, 4, 5])

    def test_rejects_bad_rows(self):
        for kind in (ExactHistory, PressureHistory):
            hist = _history([[1, 2, 3, 4, 5]], kind=kind)
            with pytest.raises(ValueError):
                hist.append(np.zeros(3))
        # a row of the wrong shape is refused in any form
        hist = PressureHistory(5, 0.3, -0.7, 100)
        for row in (np.zeros(4), np.zeros((1, 5)), np.zeros((5, 1)),
                    [0.0] * 6, np.zeros(5, dtype=np.float32)[:4]):
            with pytest.raises(ValueError):
                hist.append(row)
        assert hist.n_levels == 0

    @pytest.mark.parametrize("form", ["list", "int", "strided", "read-only"])
    def test_append_stores_what_asarray_would(self, rng, form):
        # 70 levels cross a fold of the ring into the modes; a row in
        # each form gives the sums, bit for bit, that the contiguous
        # float64 row np.asarray(row, float) gives
        levels = rng.normal(1e5, 50.0, (70, 5))
        if form == "int":
            levels = np.rint(levels).astype(np.int64)
        ref, got = (PressureHistory(5, 0.3, -0.7, 70) for _ in range(2))
        for n, row in enumerate(levels):
            if form == "list":
                given_row = row.tolist()
            elif form == "strided":
                wide = np.zeros((5, 3))
                wide[:, 1] = row
                given_row = wide[:, 1]
                assert not given_row.flags.c_contiguous
            elif form == "read-only":
                given_row = row.copy()
                given_row.flags.writeable = False
            else:
                given_row = row
            ref.append(np.asarray(row, dtype=float))
            got.append(given_row)
            assert got.sums(n).tobytes() == ref.sums(n).tobytes()
        assert got.p0.tobytes() == ref.p0.tobytes()

    def test_growth_preserves_rows(self):
        hist = ExactHistory(n_nodes=2, capacity=2)
        for i in range(40):
            hist.append([float(i), float(2 * i)])
        np.testing.assert_array_equal(hist.series(0), np.arange(40.0))

    def test_window_truncation(self):
        levels = [np.full(5, float(i)) for i in range(10)]
        for kind in (ExactHistory, PressureHistory):
            hist = _history(levels, kind=kind)
            assert hist.window(9) == (0, 9)
            assert hist.window(4) == (0, 4)
            with pytest.raises(IndexError):
                hist.window(10)

    def test_oracle_matches_brute_force(self, air):
        rng = np.random.default_rng(7)
        dt = 5e-6
        levels = [101325.0 + 40.0 * rng.standard_normal(5) for _ in range(9)]
        hist = _history(levels, kind=ExactHistory, coef=_coef(air, dt))
        kappa = heat_kernel_constant(air)
        for n in (1, 4, 8):
            table = source_table(hist, n)[0]
            for j in (1, 2, 3):
                assert table[0, j] == pytest.approx(
                    _brute_force_g2(levels, j, n, dt, GRID.dx, air, GEOM),
                    rel=1e-9)
            for j in range(5):
                assert table[1, j] == pytest.approx(
                    _brute_force_g3(levels, j, n, dt, air, GEOM, kappa),
                    rel=1e-9)


class TestWallMemory:
    """The runtime wall memory: a ring of recent levels and exponential
    modes for the older ones, in storage fixed at construction."""

    def test_storage_does_not_grow(self):
        rng = np.random.default_rng(3)
        hist = PressureHistory(5, 0.3, -0.7, 10_000)
        for _ in range(100):
            hist.append(101325.0 + rng.standard_normal(5))
        early = hist.nbytes
        for _ in range(10_000 - 100):
            hist.append(101325.0 + rng.standard_normal(5))
        assert hist.n_levels == 10_000
        assert hist.nbytes == early

    def test_only_the_latest_level_is_summed(self):
        hist = _history([np.full(5, 101325.0)] * 4)
        with pytest.raises(IndexError):
            hist.sums(2)
        with pytest.raises(IndexError):
            hist.sums(4)

    def test_soe_tables_match_exact_oracle(self, air):
        """10^4 levels of random pressures about p0: the exponential tail
        reproduces the exact sums to 1e-6 relative (the trapezoid nodes
        measure near 1e-8 on G2 and 1e-11 on G3)."""
        rng = np.random.default_rng(11)
        dt = 2e-6
        fast = PressureHistory(5, *_coef(air, dt), 10_000)
        exact = ExactHistory(5, *_coef(air, dt))
        for _ in range(10_000):
            row = air.p0 + 30.0 * rng.standard_normal(5)
            fast.append(row)
            exact.append(row)
        n = 9999
        got = source_table(fast, n)     # [G, node increment][G2, G3]
        want = source_table(exact, n)
        for half in (0, 1):
            for row in (0, 1):
                rel = (np.abs(got[half, row] - want[half, row]).max()
                       / np.abs(want[half, row]).max())
                assert rel <= 1e-6, (half, row, rel)

    def test_no_two_modes_share_a_decay(self):
        # a decay repeated by another mode would keep a second copy of
        # the same running sum
        assert np.unique(np.exp(-_SOE_S)).size == _SOE_S.size

    def test_folded_weights_match_exact_over_long_lags(self):
        """sum_q c_q e^(-s_q m) against w_m = sqrt(m+1) - sqrt(m) on the
        lags the modes serve, far past the 10^4 levels summed above, and
        to 2e-11 on every lag from the ring's edge to 100 (measured
        1.3e-11), the lags the ring-edge test below steps through."""
        for m, bound in ((np.unique(np.round(np.geomspace(K0 - 1, 1e6, 4000))),
                          1e-8),
                         (np.arange(K0 - 1, 101), 2e-11)):
            exact = 1.0 / (np.sqrt(m) + np.sqrt(m + 1.0))
            approx = np.exp(-np.outer(m, _SOE_S)) @ _SOE_C
            assert np.abs(approx / exact - 1.0).max() <= bound, bound

    def test_matches_oracle_through_the_ring_edge(self, air):
        """Step by step across the first 3 K0 + 5 levels: the ring fills
        both its halves and two folds move levels into the modes. Until
        the first fold, at step 2 K0 - 1, the ring sums every lag with
        the exact weights and the match is relative alone. Once the modes
        hold levels, their weights (2e-11 relative on these lags) leave
        about 1e-11 of each column's scale, which an entry that cancels
        to a small fraction of its column cannot meet relatively: from
        then on atol is 1e-10 of the column's scale."""
        rng = np.random.default_rng(9)
        dt = 4e-6
        fast = PressureHistory(5, *_coef(air, dt), 10**6)
        exact = ExactHistory(5, *_coef(air, dt))
        for n in range(3 * K0 + 5):
            row = air.p0 + 25.0 * rng.standard_normal(5)
            fast.append(row)
            exact.append(row)
            got, want = source_table(fast, n), source_table(exact, n)
            folded = n >= 2 * K0 - 1
            for half in range(2):       # G, then the node increment
                for row in range(2):
                    scale = np.abs(want[half, row]).max()
                    atol = 1e-10 * scale if folded else 0.0
                    np.testing.assert_allclose(got[half, row],
                                               want[half, row],
                                               rtol=1e-9, atol=atol)

    def test_phase_blocks_weigh_each_slot_by_its_lag(self):
        """At every phase r = n mod 2 K0 the ring carries the
        L = K0 + (r + 1) mod K0 newest levels: the block gives them the
        exact lag weights, with the endpoint correction on lags 0..2, and
        the slots already folded zero. A sized memory weighs its node q
        at cycle position k, L = K0 + k, by
        c_q e^(-s_q L) (e^(s_q) +- 1) times (c2, c3); a fold weighs the
        i-th oldest level e^(-s_q (K0-1-i)) and decays the node by
        e^(-s_q K0). The running sum, s = 0, takes 2 c c2 and 0, a fold
        row of ones and a decay of 1."""
        m = np.arange(2 * K0)
        w = 1.0 / (np.sqrt(m) + np.sqrt(m + 1.0))
        w_prev = np.append(0.0, w[:-1])
        # the correction's weight on each lag: level n - k is the unit
        # vector of lag k, at n = 2
        pair_k, diff_k = endpoint_correction(np.eye(2 * K0)[2::-1], 2)
        for r in range(2 * K0):
            held = K0 + (r + 1) % K0
            lag = (r - m) % (2 * K0)
            near = lag < held
            ring = _BLOCKS[r]
            np.testing.assert_allclose(ring[0, near],
                                       (w_prev + w + pair_k)[lag[near]],
                                       rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(ring[1, near],
                                       (w - w_prev + diff_k)[lag[near]],
                                       rtol=1e-15, atol=1e-17)
            assert np.all(ring[:, ~near] == 0.0)
        c2, c3 = 0.3, -0.7
        for n in (40, 4_002, 15_688):
            hist = PressureHistory(3, c2, c3, n)
            s, c = _sized_nodes(n)
            coef = hist._share_coef.reshape(K0, 2, s.size + 1)[:, :, :-1]
            scale = c * np.exp(-np.outer(K0 + np.arange(K0), s))
            np.testing.assert_allclose(coef[:, 0], c2 * scale * (np.exp(s) + 1.0),
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(coef[:, 1], -c3 * scale * np.expm1(s),
                                       rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(
                hist._fold, np.exp(-np.outer(s, K0 - 1 - np.arange(K0))),
                rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(
                hist._decay, np.repeat(np.exp(-K0 * s)[:, None], 3, 1),
                rtol=1e-13, atol=0.0)
            assert s[-1] == 0.0
            assert np.all(coef[:, 0, -1] == 2.0 * c[-1] * c2)
            assert np.all(coef[:, 1, -1] == 0.0)
            assert np.all(hist._fold[-1] == 1.0)
            assert np.all(hist._decay[-1] == 1.0)


class TestEndpointCorrection:
    """The z^(-1/2) term of the generalized Euler-Maclaurin expansion,
    added on the newest lags, leaves the sums second order in dt."""

    def test_constant_is_minus_twice_zeta_of_minus_half(self):
        assert abs(EM_K - EULER_MACLAURIN_K) <= 1e-15

    def test_sums_converge_at_second_order(self):
        """q = t^3 e^(-t) summed to t = 5.25 on n and 2n steps: the pair
        sum times sqrt(dt) tends to integral_0^t q(t-s) s^(-1/2) ds, and
        the difference sum times 2/sqrt(dt) to the same integral of q'.
        Each error falls at least 3.5-fold from n = 1024 to 2048 (the
        uncorrected rule's dt^1.5 gives 2.8)."""
        t = 5.25

        def q(z):
            return z ** 3 * math.exp(-z)

        def dq(z):
            return (3.0 - z) * z * z * math.exp(-z)

        want = [integrate.quad(lambda s, f=f: f(t - s), 0.0, t, weight="alg",
                               wvar=(-0.5, 0.0), epsabs=1e-14,
                               epsrel=1e-13)[0] for f in (q, dq)]
        errors = []
        for n in (1024, 2048):
            dt = t / n
            hist = PressureHistory(3, 1.0, 1.0, 10**6)
            for m in range(n + 1):
                hist.append(np.full(3, q(m * dt)))
            pair, diff = hist.sums(n)[0, :, 1]
            errors.append([abs(pair * math.sqrt(dt) - want[0]),
                           abs(2.0 * diff / math.sqrt(dt) - want[1])])
        ratios = np.divide(*errors)
        assert np.all(ratios >= 3.5), ratios


class TestRunSizedMemory:
    """A memory sized by the N steps it sums folds the modes below
    s*(N) = KAPPA / N into its running sum M0."""

    @staticmethod
    def _relative_error(s, c, lags):
        exact = 1.0 / (np.sqrt(lags) + np.sqrt(lags + 1.0))
        return np.abs(np.exp(-np.outer(lags, s)) @ c / exact - 1.0)

    @pytest.mark.parametrize("n, q", [(2_000, 66), (8_000, 70), (25_000, 73),
                                      (100_000, 77)])
    def test_kappa_keeps_the_fewest_modes_that_meet_the_bound(self, n, q):
        # Q counts M0; the next larger threshold (one mode fewer) would
        # miss 1.2e-9 on some lag up to N
        s, c = _sized_nodes(n)
        assert s.size == q
        lags = np.arange(K0 - 1, n + 1, dtype=float)
        assert self._relative_error(s, c, lags).max() <= 1.2e-9
        fewer_s, fewer_c = _sized_nodes(KAPPA / (1.0000001 * s[-2]))
        assert fewer_s.size == q - 1
        assert self._relative_error(fewer_s, fewer_c, lags).max() > 1.2e-9

    @pytest.mark.parametrize("n_steps", [2_001, 7_844])
    def test_run_sized_weights_match_exact(self, n_steps):
        """The `trombone` and `lossy-linear-long` runs, with the margin a
        Simulation gives its memory: 1.2e-9 on every lag it serves, and
        2e-11 on lags up to 100, those the ring-edge test steps through."""
        sized = MEMORY_MARGIN * n_steps
        s, c = _sized_nodes(sized)
        assert s.size < _SOE_S.size
        for top, bound in ((sized, 1.2e-9), (100, 2e-11)):
            lags = np.arange(K0 - 1, top + 1, dtype=float)
            assert self._relative_error(s, c, lags).max() <= bound, top

    @pytest.mark.parametrize("n", [40, 4_002])
    def test_past_its_steps_the_error_grows_as_the_folded_modes_decay(self, n):
        """Past N the memory keeps summing: the folded modes' decay
        e^(-s m) ~ 1 - s m then leaves an error that grows like
        (m / N)^(3/2), to 16 N within that growth of the 1.2e-9."""
        s, c = _sized_nodes(n)
        lags = np.unique(np.geomspace(n, 16 * n, 400).round())
        err = self._relative_error(s, c, lags)
        assert np.all(err <= 1.2e-9 * (lags / n) ** 1.5)
        assert err[-1] > 1.2e-9     # the bound is not met there for nothing

    def test_memory_sums_past_its_steps(self, air):
        # built for 40 steps and fed 100 levels, it still sums, within
        # the grown weight error of the lags it holds
        rng = np.random.default_rng(5)
        fast = PressureHistory(5, *_coef(air, 4e-6), steps=40)
        exact = ExactHistory(5, *_coef(air, 4e-6))
        for n in range(100):
            row = air.p0 + 25.0 * rng.standard_normal(5)
            fast.append(row)
            exact.append(row)
        got, want = source_table(fast, 99)[0], source_table(exact, 99)[0]
        for row in range(2):
            np.testing.assert_allclose(got[row], want[row], rtol=0.0,
                                       atol=1e-8 * np.abs(want[row]).max())

    def test_a_memory_for_no_steps_keeps_no_modes(self):
        hist = PressureHistory(398, 0.3, -0.7, 0)
        hist.append(np.full(398, 101325.0))
        assert hist.n_levels == 1
        assert hist.nbytes == (2 * K0 + 2) * 398 * 8      # ring, p0 row, p0
        with pytest.raises(IndexError, match="sums no step"):
            hist.sums(0)

    def test_simulation_sizes_its_memory_by_its_run(self, air):
        lossy = Simulation(_scenario(air))
        assert lossy.history.steps == MEMORY_MARGIN * driver.step_count(
            lossy.scenario)
        lossless = Simulation(_scenario(air, losses=False))
        assert lossless.history.steps == 0
        assert lossless.history.nbytes < lossy.history.nbytes


class TestWallShearSum:
    def test_uniform_pressure_is_silent(self, air):
        levels = [np.full(5, 101325.0)] * 6
        for n in range(6):
            assert _g2(levels, 2, n, air) == 0.0

    def test_empty_history_is_zero(self, air):
        assert _g2([np.full(5, 101325.0)], 1, 0, air) == 0.0

    def test_standing_ramp_single_term(self, air):
        # p_j^m = a x_j for all m; at n = 1 the bracket telescopes to
        # 4 a dx and the closed form is (beta/h) sqrt(mu/(rho0 pi)) sqrt(dt) 2a
        a = 1.0e4
        dt = 2e-6
        row = a * GRID.x
        got = _g2([row, row], 2, 1, air, dt=dt)
        closed = (GEOM.beta / GEOM.h) * math.sqrt(air.mu / (air.rho0 * math.pi)) \
            * math.sqrt(dt) * 2.0 * a
        assert got == pytest.approx(closed, rel=1e-13)
        brute = _brute_force_g2([row, row], 2, 1, dt, GRID.dx, air, GEOM)
        assert got == pytest.approx(brute, rel=1e-13)

    def test_matches_brute_force_on_random_history(self, air, rng):
        dt = 5e-6
        levels = [101325.0 + 40.0 * rng.standard_normal(5) for _ in range(9)]
        for n in (1, 4, 8):
            for j in (1, 2, 3):
                got = _g2(levels, j, n, air, dt=dt)
                brute = _brute_force_g2(levels, j, n, dt, GRID.dx, air, GEOM)
                # rounding against p0 in the table's reassociated sums
                assert got == pytest.approx(brute, rel=1e-9)


class TestWallHeatSum:
    def test_constant_in_time_is_silent(self, air):
        levels = [np.full(5, 90000.0)] * 7
        for n in range(7):
            assert _g3(levels, 2, n, air) == 0.0

    def test_single_step_jump(self, air):
        # w_0 = 1 and the correction's K/2 (the level before 0 counts as
        # level 0) weigh the jump
        dp = 250.0
        dt = 4e-6
        got = _g3([np.full(5, 101325.0), np.full(5, 101325.0 + dp)], 2, 1,
                  air, dt=dt)
        kappa = math.sqrt(air.k_cond / (air.rho0 * air.cp * math.pi))
        assert got == pytest.approx(
            -2.0 * GEOM.beta / GEOM.h * kappa * dp / math.sqrt(dt)
            * (1.0 + 0.5 * EULER_MACLAURIN_K), rel=1e-13)

    def test_matches_brute_force(self, air, rng):
        dt = 5e-6
        levels = [101325.0 + 10.0 * rng.standard_normal(5) for _ in range(8)]
        kappa = heat_kernel_constant(air)
        for n in (1, 3, 7):
            got = _g3(levels, 0, n, air, dt=dt)
            brute = _brute_force_g3(levels, 0, n, dt, air, GEOM, kappa)
            # rounding against p0 in the table's reassociated sums
            assert got == pytest.approx(brute, rel=1e-9)

    def test_sine_matches_continuous_integral(self, air):
        """Discrete sum vs adaptive quadrature of the continuous
        convolution with the self-consistent kernel, after 10 periods."""
        amp, freq = 120.0, 500.0
        omega = 2.0 * math.pi * freq
        spp = 256
        dt = 1.0 / freq / spp
        n = 10 * spp
        t_end = n * dt
        rows = [np.full(5, air.p0 + amp * math.sin(omega * m * dt))
                for m in range(n + 1)]
        got = _g3(rows, 2, n, air, dt=dt)
        kappa = heat_kernel_constant(air)
        integral, _ = integrate.quad(
            lambda z: amp * omega * math.cos(omega * (t_end - z)),
            0.0, t_end, weight="alg", wvar=(-0.5, 0.0), limit=400)
        expected = -(GEOM.beta / GEOM.h) * kappa * integral
        assert got == pytest.approx(expected, rel=0.01)


class TestSourceAssembly:
    def test_zero_history_gives_zero_vector(self, air):
        hist = _history([np.full(5, 101325.0)] * 4, coef=_coef(air, 1e-5))
        table = source_table(hist, 3)[0]
        np.testing.assert_array_equal(table, np.zeros((2, 5)))

    def test_components_match_the_sums(self, air, rng):
        levels = [101325.0 + 25.0 * rng.standard_normal(5) for _ in range(6)]
        dt = 3e-6
        hist = _history(levels, coef=_coef(air, dt))
        g2, g3 = source_table(hist, 5)[0][:, 2]
        kappa = heat_kernel_constant(air)
        assert g2 == pytest.approx(
            _brute_force_g2(levels, 2, 5, dt, GRID.dx, air, GEOM), rel=1e-9)
        assert g3 == pytest.approx(
            _brute_force_g3(levels, 2, 5, dt, air, GEOM, kappa), rel=1e-9)

    def test_mass_component_must_vanish(self, air, rng, monkeypatch):
        # the table holds the momentum and energy sources only, and a
        # lossy step's node increments reach the momentum and energy rows
        # only: without them the mass row comes out the same
        levels = [101325.0 + 25.0 * rng.standard_normal(5) for _ in range(6)]
        hist = PressureHistory(5, *_coef(air, 3e-6), len(levels))
        for n, row in enumerate(levels):
            hist.append(row)
            assert source_table(hist, n)[0].shape == (2, 5)
        seen = []

        def unsourced(cur, nxt, s_node, s_mid, *args):
            bare = lax_wendroff_update(cur, Level(cur.n),
                                       np.zeros_like(s_node), s_mid,
                                       *args)[:, 1:-1].copy()
            new = lax_wendroff_update(cur, nxt, s_node, s_mid, *args)
            seen.append((new[:, 1:-1].copy(), bare, s_node[:, 1:-1].copy()))
            return new

        monkeypatch.setattr(driver, "lax_wendroff_update", unsourced)
        sim = Simulation(_scenario(air))
        for _ in range(6):
            sim.advance()
        for got, bare, s_node in seen:
            np.testing.assert_array_equal(got[0], bare[0])
            for new, old, inc in zip(got[1:], bare[1:], s_node):
                # to the rounding of one sum at the scale of the row
                ulp = np.spacing(np.abs(new).max())
                np.testing.assert_allclose(new - old, inc, rtol=0.0,
                                           atol=2 * ulp)
        assert np.abs(seen[-1][2]).max() > 0.0

    def test_source_time_derivative(self, air, monkeypatch):
        # each step hands the interior update the increments of the wall
        # memory's table G and of its first-order rate (G - G_prev)/dt,
        # G_prev the previous step's table
        sim = Simulation(_scenario(air))
        seen = _step_sources(sim, 6, monkeypatch)
        dt = sim.dt
        for (_, _, g_prev), (s_node, s_mid, g_now) in zip(seen, seen[1:]):
            want_node, want_mid = source_increments(
                g_now / dt, (g_now - g_prev) / (dt * dt), dt)
            np.testing.assert_allclose(s_node, want_node, rtol=1e-12)
            np.testing.assert_allclose(s_mid[:, :-1], want_mid[:, :-1],
                                       rtol=1e-12)
        # the last step's increment and its rate part are not zero
        assert np.abs(seen[-1][0]).max() > 0.0
        assert np.abs(seen[-1][0] - seen[-1][2]).max() > 0.0
        off = Simulation(_scenario(air, losses=False))
        assert _step_sources(off, 6, monkeypatch) == [(None, None, None)] * 6

    def test_first_step_has_zero_rate(self, air, monkeypatch):
        # the first step's previous table is the zero table, and the table
        # of step 0 is itself zero, so both increments are
        [(s_node, s_mid, table)] = _step_sources(Simulation(_scenario(air)),
                                                 1, monkeypatch)
        np.testing.assert_array_equal(table, np.zeros((2, 5)))
        np.testing.assert_array_equal(s_node, np.zeros((2, 5)))
        np.testing.assert_array_equal(s_mid, np.zeros((2, 5)))

    def test_table_matches_per_node_ops(self, air, rng):
        levels = [101325.0 + 30.0 * rng.standard_normal(7) for _ in range(7)]
        dt = 2e-6
        grid = Grid(length=0.06, cells=6)
        hist = _history(levels, n_nodes=7, coef=_coef(air, dt, grid))
        table = source_table(hist, 6)[0]
        kappa = heat_kernel_constant(air)
        # summation by parts reassociates the sums, so agreement with the
        # per-node oracles is to rounding against the absolute pressures
        for j in range(1, 6):
            assert table[0, j] == pytest.approx(
                _brute_force_g2(levels, j, 6, dt, grid.dx, air, GEOM),
                rel=1e-9)
        for j in range(7):
            assert table[1, j] == pytest.approx(
                _brute_force_g3(levels, j, 6, dt, air, GEOM, kappa), rel=1e-9)
        # boundary shear entries copy the adjacent interior values
        assert table[0, 0] == table[0, 1]
        assert table[0, 6] == table[0, 5]
        assert table.shape == (2, 7)

    def test_long_history_matches_brute_force(self, air):
        """2,000 levels near p0: the summation-by-parts coefficients cancel
        the large constant part over the whole window."""
        omega = 2.0 * math.pi * 300.0
        dt = 1.0 / 300.0 / 64
        n = 1999
        x = GRID.x
        levels = [air.p0 + 50.0 * np.sin(omega * m * dt + 3.0 * x)
                  * (1.0 + x / GRID.length) for m in range(n + 1)]
        kappa = heat_kernel_constant(air)
        hist = _history(levels, coef=_coef(air, dt), steps=10**6)
        table = source_table(hist, n)[0]
        for j in range(1, 4):
            assert table[0, j] == pytest.approx(
                _brute_force_g2(levels, j, n, dt, GRID.dx, air, GEOM),
                rel=1e-9)
        for j in range(5):
            assert table[1, j] == pytest.approx(
                _brute_force_g3(levels, j, n, dt, air, GEOM, kappa),
                rel=1e-9)

    def test_linearity_in_history(self, air, rng):
        base = [101325.0 + 20.0 * rng.standard_normal(5) for _ in range(6)]
        bump = [15.0 * rng.standard_normal(5) for _ in range(6)]

        def g_of(levels):
            hist = _history([np.asarray(lv) for lv in levels],
                            coef=_coef(air, 2e-6))
            return source_table(hist, 5)[0]

        g_base = g_of(base)
        g_sum = g_of([b + d for b, d in zip(base, bump)])
        g_bump = g_of([np.full(5, 101325.0) + d for d in bump])
        np.testing.assert_allclose(g_sum, g_base + g_bump, rtol=1e-10,
                                   atol=1e-18)

class TestErf:
    def test_origin_and_oddness(self):
        assert erf(0.0) == 0.0
        for x in (0.3, 1.7, 4.0):
            assert erf(-x) == pytest.approx(-erf(x), rel=1e-15)

    def test_against_taylor_series_oracle(self):
        # erf(x) = 2/sqrt(pi) sum (-1)^n x^(2n+1)/(n!(2n+1)), summed to
        # convergence in double precision
        def taylor(x):
            total, term, n = 0.0, x, 0
            while abs(term / (2 * n + 1)) > 1e-18:
                total += term / (2 * n + 1)
                n += 1
                term *= -x * x / n
            return 2.0 / math.sqrt(math.pi) * total

        for x in (0.1, 0.5, 1.0, 2.0):
            assert erf(x) == pytest.approx(taylor(x), abs=1e-12)
        assert erf(1.0) == pytest.approx(0.8427008, abs=1e-6)

    def test_monotone(self):
        xs = np.linspace(-4.0, 4.0, 101)
        assert np.all(np.diff(erf(xs)) > 0.0)


class TestBoundaryLayerProfiles:
    def test_wall_values_are_exact(self, air):
        gradient = np.sin(np.linspace(0.0, 3.0, 50))
        assert bl_velocity_profile(gradient, 1e-4, 0.0, air) == 0.0
        assert bl_temperature_profile(gradient, 1e-4, 0.0, air) == 0.0

    def test_zero_history_is_quiet(self, air):
        zeros = np.zeros(64)
        assert bl_velocity_profile(zeros, 1e-4, 1e-4, air) == 0.0
        assert bl_temperature_profile(zeros, 1e-4, 1e-4, air) == 0.0

    def test_far_field_limits(self, air):
        # kernel -> 1 far from the wall: xi -> -a t / rho0 and
        # theta' -> b t / (rho0 cp)
        n, dt = 200, 1e-5
        t_end = n * dt
        a = 40.0
        xi = bl_velocity_profile(np.full(n + 1, a), dt, 1.0, air)
        assert xi == pytest.approx(-a * t_end / air.rho0, rel=1e-9)
        b = 3e5
        theta = bl_temperature_profile(np.full(n + 1, b), dt, 1.0, air)
        assert theta == pytest.approx(
            b * t_end / (air.rho0 * air.cp), rel=1e-9)

    def test_wall_slope_consistent_with_discrete_shear(self, air):
        """The eta-slope of the velocity profile near the wall approaches
        the continuous wall-gradient integral, which the discrete G2 sum
        also approximates: all three agree as dt is refined."""
        omega = 2.0 * math.pi * 50.0
        amp = 1.0e3    # dp/dx amplitude
        nu = air.mu / air.rho0
        delta = math.sqrt(nu / omega)
        periods = 2.25

        # continuous reference: dxi/deta(0) = -(1/mu) int dp/dx(t-z)
        # sqrt(mu/(rho0 pi z)) dz  by adaptive quadrature
        t_end = periods * 2.0 * math.pi / omega
        integral, _ = integrate.quad(
            lambda z: amp * math.sin(omega * (t_end - z)) / math.sqrt(z),
            0.0, t_end, limit=800, points=[0.0])
        slope_ref = -integral * math.sqrt(1.0 / (air.mu * air.rho0 * math.pi))

        errs = []
        for spp in (512, 2048):
            dt = 2.0 * math.pi / omega / spp
            n = int(round(periods * spp))
            hist = amp * np.sin(omega * np.arange(n + 1) * dt)
            eta = 0.04 * delta
            slope_fd = (bl_velocity_profile(hist, dt, eta, air)
                        - bl_velocity_profile(hist, dt, 0.0, air)) / eta
            errs.append(abs(slope_fd - slope_ref) / abs(slope_ref))
        assert errs[1] < errs[0]
        assert errs[1] < 0.05

        # the discrete shear sum approximates the same quantity via
        # G2 = -(beta mu / h) * slope
        spp = 2048
        dt = 2.0 * math.pi / omega / spp
        n = int(round(periods * spp))
        grid = Grid(length=0.4, cells=4)
        rows = [air.p0 + amp * math.sin(omega * m * dt) * grid.x
                for m in range(n + 1)]
        g2 = _g2(rows, 2, n, air, grid=grid, dt=dt)
        g2_ref = -(GEOM.beta * air.mu / GEOM.h) * slope_ref
        assert g2 == pytest.approx(g2_ref, rel=0.01)

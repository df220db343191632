"""Visco-thermal wall sources via memory-kernel convolution.

The linear boundary layer turns the wall shear stress and heat flux into
time convolutions of the nodal pressure history against a 1/sqrt(z)
kernel. Per interior node j at step n, with w_m = 1/(sqrt(m)+sqrt(m+1)):

  G2 = (beta/h) sqrt(mu/(rho0 pi)) (sqrt(dt)/(2 dx))
        * sum_m [(p_{j+1}^{n-m-1}+p_{j+1}^{n-m}) - (p_{j-1}^{n-m-1}+p_{j-1}^{n-m})] w_m

  G3 = -(2 beta/h) kappa / sqrt(dt) * sum_m (p_j^{n-m} - p_j^{n-m-1}) w_m

where the heat-kernel constant kappa = sqrt(k/(rho0 cp pi)) is the
eta-derivative of the closed-form erf temperature profile: the paper
prints mu where that profile gives k, and the package uses k.
The two quadrature rules underlying the sums integrate phi(z) dz/sqrt(z)
over one step and are exact for constant phi; they and the erf profiles
are kept as test oracles in `tests/reference_forms.py`. Alone the rules
are of order dt^1.5. The sums add the z^(-1/2) term of the generalized
Euler-Maclaurin expansion (Navot 1961), K = -2 zeta(-1/2) =
zeta(3/2)/(2 pi) = EM_K: K (p^n - p^(n-1)) in each pair sum, and
(K/2) (p_j^n - 2 p_j^(n-1) + p_j^(n-2)) in the difference sum, levels
before 0 counting as level 0. That makes them second order in dt for
smooth histories. The terms sit on the ring's three newest lags, which
it always holds for K0 >= 3. The start of a run, where the inflow's
slope jumps and the continuum sums have t^(1/2)-type terms, is not
corrected.

The sums run over the full pressure history, summed by parts on the
stored levels. `PressureHistory` keeps them in fixed storage: the K0 to
2 K0 - 1 newest levels exactly, in a ring of 2 K0 rows, and the older
ones folded into Q exponential modes per node, from a sum-of-exponentials
form of w_m (the diffusive representation of the kernel). The memory is
sized by the number of steps N it sums: the modes whose decay rate lies
below s*(N) = KAPPA / N hardly decay over N lags and fold into one
running sum M0, which leaves on lag m a relative error that grows like
(s* m)^(3/2). KAPPA is fitted so that every lag from K0 - 1 to N keeps
the relative accuracy of the weights, 1.2e-9 (and 2e-11 on lags up to
100 for the runs' N); past N the memory keeps summing, within 1.2e-9
(m / N)^(3/2). Each memory computes every coefficient of its nodes,
M0 (s = 0) among them, from the node by one formula. Built for N = 0,
it keeps no modes and sums nothing. Uniform dt is required by the
weights.

A step reads no mode. The modes change only when K0 levels fold into
them, every K0 steps, and that fold forms, with one product, their share
(with that of the first level) of each of the next K0 steps' sums into
share rows that follow the ring. A step's sums are then one product over
the ring and the share rows up to its own, and the same product gives
the node increment dt G + dt^2/2 dG/dt = dt (1.5 G^n - 0.5 G^(n-1)): it
is linear in the memory, so it weighs the ring by 1.5 times the step's
block less 0.5 times the previous step's, and the share rows by 1.5 and
-0.5. The previous step's share is kept across a fold as its own rows,
so that block holds for every step.

The memory holds pressures only: dt enters through the prefactors of the
sums, which `source_coefficients` computes once per run and the run's
`PressureHistory` folds into its blocks. A run hands it the prefactors
times dt, so that its table is dt G, the source increment of one step.
The table forms from it both increments the interior update adds: the
node increment beside it, and half the midpoint one, dt (G_j + G_j+1)/4.
"""

from __future__ import annotations

import math

import numpy as np

from .gas import GasModel
from .scheme import DuctGeometry, Grid


def kernel_weights(n: int) -> np.ndarray:
    """Convolution weights w_m = 1/(sqrt(m)+sqrt(m+1)), m = 0..n-1.

    w_0 = 1 and the sequence decreases strictly toward zero.
    """
    m = np.arange(n, dtype=float)
    return 1.0 / (np.sqrt(m) + np.sqrt(m + 1.0))


def _soe_nodes(k0: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s_q and weights c_q with w_m ~ sum_q c_q exp(-s_q m), m >= k0 - 1.

    w_m = sqrt(m+1) - sqrt(m) = (1/(2 sqrt(pi))) integral_0^inf
    s^(-3/2) (1 - e^(-s)) e^(-s m) ds, integrated by the trapezoid rule in
    ln s with step 0.35 from s = 40/(k0-1), where e^(-s m) < 5e-18 on every
    lag it serves, down to s = e^-55, which leaves out sqrt(s/pi) < 1e-12.
    Below s = 1e-13 the decays e^(-s) lie within 1e-13 of 1 (most of them
    round to exactly 1), so those nodes fold into one running-sum node
    s = 0 that carries their summed weight. Relative error on the lags
    served at k0 = 8: below 1.2e-9 up to m = 10^6, and 1.3e-11 up to
    m = 100.
    """
    step = 0.35
    ln_s = np.arange(math.log(40.0 / (k0 - 1)), -55.0, -step)
    s = np.exp(ln_s)
    c = step / (2.0 * math.sqrt(math.pi)) * np.exp(-0.5 * ln_s) * -np.expm1(-s)
    slow = s < 1e-13
    return np.append(s[~slow], 0.0), np.append(c[~slow], c[slow].sum())


def _phase_blocks(k0: int) -> np.ndarray:
    """Weights of the pair and difference sums on the ring's 2 k0 slots,
    one (2, 2 k0) block per phase r = n mod 2 k0 of step n.

    At step n the ring carries the L = k0 + (n + 1) mod k0 newest levels
    (ring slots not yet written hold zeros). Ring slot i holds the level
    at lag k = (r - i) mod 2 k0. For k < L that level weighs w_{k-1} + w_k
    in the pair sum and w_k - w_{k-1} in the difference sum (w_{-1} = 0),
    plus the correction EM_K (1, -1) on lags 0, 1 of the pair sum and
    EM_K (1, -2, 1) / 2 on lags 0..2 of the difference sum (k0 >= 3 keeps
    them in the ring); for k >= L it is already in the modes and weighs 0.
    """
    ring = 2 * k0
    w = kernel_weights(ring)
    w_prev = np.append(0.0, w[:-1])
    by_lag = np.stack([w_prev + w, w - w_prev])                 # (2, 2k0)
    by_lag[0, :2] += EM_K * np.array([1.0, -1.0])
    by_lag[1, :3] += 0.5 * EM_K * np.array([1.0, -2.0, 1.0])
    phase = np.arange(ring)
    lag = (phase[:, None] - phase) % ring                       # [r, i]
    held = k0 + (phase + 1) % k0                                # L of phase r
    near = np.where(lag < held[:, None], by_lag[:, lag], 0.0)   # [2, r, i]
    return near.transpose(1, 0, 2)


K0 = 8                              # near lags summed exactly from the ring
EM_K = 0.4157724499547092           # -2 zeta(-1/2) = zeta(3/2) / (2 pi)
_SOE_S, _SOE_C = _soe_nodes(K0)     # 92 nodes; a memory keeps a prefix
_BLOCKS = _phase_blocks(K0)
KAPPA = 1.7e-6                      # s*(N) N: modes below s* fold into M0


def _sized_nodes(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a memory that sums N = steps steps: the nodes
    of _SOE_S at or above s*(N) = KAPPA / N, which lead it, and the
    running sum s = 0 that carries the weight of the rest."""
    q = np.count_nonzero(_SOE_S >= KAPPA / steps)
    return np.append(_SOE_S[:q], 0.0), np.append(_SOE_C[:q], _SOE_C[q:].sum())


class PressureHistory:
    """Wall memory of the nodal pressure series p_j^m on a uniform time step.

    The storage is fixed at construction by `steps`, the number of steps
    the memory is sized to sum at the weights' full accuracy: one
    (2 K0 + 2 K0 + 2 + Q + 1, nodes) store and (Q, nodes) work rows.
    The deviations q = p - p^0 from the first level p^0 sit in its first
    2 K0 rows, a ring that carries the near lags exactly. Every K0-th
    level appended, the K0 oldest levels of the ring fold into the Q
    exponential modes, which carry the older lags through the
    sum-of-exponentials form of the weights; the ring then holds K0 to
    2 K0 - 1 levels. The last row carries the share of p^0 in the pair
    sums. At the same appends the modes and that row are summed once, by
    one (2 K0, Q + 1) product, into the share rows of the next K0 steps,
    which follow the ring, behind the two rows of the share of the step
    before them. A step costs one row write and one (4, at most 4 K0 + 2)
    product over the ring and the share rows up to its own, which gives
    the sums and the increments of the step. The sums come out scaled by
    the prefactors (c2, c3) given here, folded into the blocks. Only the
    latest level can be summed.
    Built for steps = 0 the memory keeps the ring and the p^0 row alone,
    and sums nothing.
    """

    def __init__(self, n_nodes: int, c2: float, c3: float, steps: int):
        ring = 2 * K0
        self.n_nodes = n_nodes
        self.steps = steps
        self._c2 = c2
        self.p0 = np.zeros(n_nodes)
        self._levels = 0
        if steps == 0:
            self._store = np.zeros((ring + 1, n_nodes))
            self._ring, self._pair_p0 = self._store[:ring], self._store[-1]
            self._slots = list(self._ring)
            self._shares = None
            return
        s, c = _sized_nodes(steps)
        q = s.size
        self._store = np.zeros((2 * ring + 2 + q + 1, n_nodes))
        self._ring = self._store[:ring]
        self._slots = list(self._ring)      # a row view each, made once
        # the previous step's share (2 rows), then those of cycle positions
        # k = 0 .. K0 - 1; step n sits at k = (n + 1) mod K0
        self._prev = self._store[ring:ring + 2]
        self._shares = self._store[ring + 2:2 * ring + 2]
        self._last = self._shares[-2:]
        self._modes = self._store[2 * ring + 2:-1]
        self._tail = self._store[2 * ring + 2:]             # modes and p^0 row
        self._pair_p0 = self._store[-1]
        scale = np.array([[c2], [c3]])
        # each coefficient of node q is one formula of s_q and c_q, M0's
        # (s = 0) too. Node q carries the lags L + i, i >= 0, as sum_i e^(-s_q i)
        # q^{n-L-i}, so share rows 2k, 2k+1 of position k, L = K0 + k,
        # weigh it c_q e^(-s_q L) (e^(s_q) +- 1) (M0: 2 c and 0), and the
        # p^0 row sqrt(n). A fold (see _next_cycle) weighs the i-th oldest
        # level e^(-s_q (K0-1-i)) and decays the node by e^(-s_q K0)
        # (M0: ones).
        held = c * np.exp(-np.outer(K0 + np.arange(K0), s))     # [k, q]
        self._share_coef = np.zeros((ring, q + 1))
        np.multiply(np.stack([held * (np.exp(s) + 1.0),
                              -held * np.expm1(s)], 1), scale,
                    self._share_coef.reshape(K0, 2, q + 1)[:, :, :q])
        self._roots = self._share_coef[0::2, -1]
        self._k = np.arange(K0, dtype=float)
        self._fold = np.exp(-np.outer(s, np.arange(K0 - 1, -1, -1)))
        # whole rows: a broadcast column multiplies slower
        self._decay = np.empty((q, n_nodes))
        self._decay[...] = np.exp(-K0 * s)[:, None]
        self._work = np.empty((q, n_nodes))
        # per phase r: rows [G pair, G diff, increment pair, increment diff]
        # over the ring, the previous share and the shares through its
        # position k, whose last four columns hold those of k - 1 and k
        near = _BLOCKS * scale
        blocks = np.zeros((ring, 4, 2 * ring + 2))
        blocks[:, :2, :ring] = near
        before = near[np.arange(-1, ring - 1)]          # phase r - 1's
        np.subtract(1.5 * near, 0.5 * before, blocks[:, 2:, :ring])
        phase = np.arange(ring)
        width = ring + 2 * ((phase + 1) % K0) + 4
        last4 = width[:, None] - np.arange(4, 0, -1)
        blocks[phase[:, None], :, last4] = np.array(     # [column, row]
            [[0.0, 0.0, -0.5, 0.0], [0.0, 0.0, 0.0, -0.5],
             [1.0, 0.0, 1.5, 0.0], [0.0, 1.0, 0.0, 1.5]])
        # contiguous: a product copies a block it reads through strides
        self._phases = [(blocks[r, :, :w].copy(), self._store[:w])
                        for r, w in enumerate(width.tolist())]
        self._sums = np.empty((2, 2, n_nodes))
        self._sums_rows = self._sums.reshape(4, n_nodes)

    @property
    def n_levels(self) -> int:
        """Number of levels appended (last level index plus one)."""
        return self._levels

    @property
    def nbytes(self) -> int:
        arrays = [self._store, self.p0]
        if self._shares is not None:
            arrays += [self._share_coef, self._decay, self._fold,
                       self._work, self._sums]
            arrays += [block for block, _ in self._phases]
        return sum(a.nbytes for a in arrays)

    def append(self, pressures: np.ndarray):
        row = np.asarray(pressures, dtype=float)
        if row.shape != (self.n_nodes,):
            raise ValueError(f"expected {self.n_nodes} nodal pressures")
        n = self._levels
        if n == 0:
            self.p0[:] = row
            np.subtract(row, row[0], out=self._pair_p0)
            self._pair_p0 *= 2.0 * self._c2
        np.subtract(row, self.p0, out=self._slots[n % (2 * K0)])
        self._levels = levels = n + 1
        if (levels % K0 == 0 or levels == 1) and self._shares is not None:
            self._next_cycle(levels)

    def _next_cycle(self, levels: int):
        """Fold and share once level levels - 1 is in: the next K0 steps,
        cycle positions 0 .. K0 - 1, are steps levels - 1 - levels % K0 on."""
        if levels >= 2 * K0:
            # the K0 oldest levels of the ring fill the half the next
            # level starts
            lo = levels % (2 * K0)
            np.multiply(self._modes, self._decay, self._modes)
            np.dot(self._fold, self._ring[lo:lo + K0], self._work)
            np.add(self._modes, self._work, self._modes)
        self._prev[...] = self._last
        roots = np.add(self._k, levels - 1 - levels % K0, self._roots)
        if levels == 1:
            roots[0] = 0.0                  # position 0 is the step before 0
        np.sqrt(roots, roots)
        np.dot(self._share_coef, self._tail, self._shares)

    def window(self, n: int) -> tuple[int, int]:
        """Summation level range [lo, n) at step n: the whole history."""
        if n > self._levels - 1:
            raise IndexError(f"history populated through level {self._levels - 1},"
                             f" step {n} requested")
        return 0, n

    def sums(self, n: int) -> np.ndarray:
        """Pair and difference sums at step n, scaled by (c2, c3), and the
        same sums weighed as the node increment, 1.5 times step n's less
        0.5 times step n - 1's (zero before step 0), as a (2, 2, nodes)
        array [[pair, difference], [pair, difference]]; the pair sums up
        to a share common to all nodes. Its work rows hold them until the
        next call or append.

        Summation by parts puts both sums on the levels p^{n-k},
        k = 0..n: the pair sum weighs lag k by w_{k-1} + w_k and the
        difference sum by w_k - w_{k-1}, with w zero outside m = 0..n-1.
        On p = p^0 + q the constant part of the pair sum telescopes to
        2 p^0 sqrt(n) and that of the difference sum to 0. The pair sums
        leave out the share 2 p^0_0 sqrt(n) of node 0, which the centered
        difference of G2 cancels: a uniform p^0 then adds nothing. The
        rest, 2 c2 (p^0 - p^0_0), is the store's last row, which the
        share rows carry weighed by sqrt(n). Ring slots not yet written
        and share rows of no step yet hold zeros, so one product with the
        block of the step's phase covers every n.
        """
        if n != self._levels - 1 or self._shares is None:
            held = ("sums no step" if self._shares is None
                    else f"holds step {self._levels - 1}")
            raise IndexError(f"wall memory {held}, step {n} requested")
        block, rows = self._phases[n % (2 * K0)]
        np.dot(block, rows, self._sums_rows)
        return self._sums


def source_coefficients(gas: GasModel, geom: DuctGeometry, grid: Grid,
                        dt: float) -> tuple[float, float]:
    """Prefactors (c2, c3) of the G2 sum [Pa/m per Pa] and the G3 sum
    [W/m^3 per Pa]: fixed for a run by its gas, duct and frozen dt."""
    c2 = (geom.beta / geom.h) * math.sqrt(gas.mu / (gas.rho0 * math.pi)) \
        * math.sqrt(dt) / (2.0 * grid.dx)
    c3 = -(2.0 * geom.beta / geom.h) \
        * math.sqrt(gas.k_cond / (gas.rho0 * gas.cp * math.pi)) \
        / math.sqrt(dt)
    return c2, c3


class SourceTable:
    """The (2, 2, J+1) rows `source_table` writes, rows[0] = (G2, G3) and
    node = rows[1] their node increments, and beside them mid, half the
    midpoint increment, (G_j + G_j+1)/4 of cell j in column j of (2, J+1),
    with the views it writes them through, made once: a step's table then
    costs five operations and no view. Column J of mid holds a finite
    value of no cell, which reaches only boundary entries."""

    __slots__ = ("rows", "node", "mid", "_inner", "_edges", "_next",
                 "_diff", "_g_lo", "_g_hi", "_mid", "_sums", "_hi", "_lo",
                 "_sum_diff")

    def __init__(self, n_nodes: int):
        self.rows = np.zeros((2, 2, n_nodes))
        g2, last = self.rows[:, 0], n_nodes - 1
        self._inner = g2[:, 1:-1]
        # columns 0 and J take columns 1 and J - 1
        self._edges, self._next = g2[:, ::last], g2[:, 1:last:max(last - 2, 1)]
        self._diff = self.rows[:, 1]
        g, self.node = self.rows
        self._g_lo, self._g_hi = g.reshape(-1)[:-1], g.reshape(-1)[1:]
        self.mid = np.zeros((2, n_nodes))
        self._mid = self.mid.reshape(-1)[:-1]
        self._sums = None

    def fill(self, sums: np.ndarray) -> np.ndarray:
        """The table of the (2, 2, nodes) sums of `PressureHistory.sums`."""
        if sums is not self._sums:
            self._sums = sums
            self._hi, self._lo = sums[:, 0, 2:], sums[:, 0, :-2]
            self._sum_diff = sums[:, 1]
        np.subtract(self._hi, self._lo, self._inner)
        self._edges[...] = self._next       # cheaper than np.copyto
        self._diff[...] = self._sum_diff
        np.add(self._g_lo, self._g_hi, self._mid)
        np.multiply(self._mid, 0.25, self._mid)
        return self.rows


def source_table(hist: PressureHistory, n: int,
                 out: SourceTable | None = None) -> np.ndarray:
    """The sources (G2, G3) at every node for step n and their node
    increments, as a (2, 2, J+1) array: rows[0] of out, or of a new
    table, holds (G2, G3), and rows[1] the same rows of the increment
    1.5 G^n - 0.5 G^(n-1); the mass equation has none. The table's mid
    holds half the other increment the interior update adds,
    (G_j + G_j+1)/4 of cell j. A table kept by the caller stays as it is until passed
    again as out.

    Interior nodes follow the convolution sums of `hist.sums(n)`, which
    carry the prefactors (c2, c3) the memory was built with (those of
    `source_coefficients`, times dt in a run): G2 is the centered
    difference of the scaled pair sums and G3 the scaled difference sums,
    and the increments follow from the increment sums in the same way.
    The centered pressure-gradient bracket of G2 is undefined at j = 0
    and j = J, so the boundary entries copy their adjacent interior value
    (they only feed the midpoint source averages of the interior
    expansion). At n = 0 the sums, and so the table, are zero.
    """
    table = SourceTable(hist.n_nodes) if out is None else out
    return table.fill(hist.sums(n))

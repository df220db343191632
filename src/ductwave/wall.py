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
are kept as test oracles in `tests/reference_forms.py`.

The sums run over the full pressure history, summed by parts on the
stored levels. `PressureHistory` keeps them in fixed storage: the K0 to
2 K0 - 1 newest levels exactly, in a ring of 2 K0 rows, and the older
ones folded into Q exponential modes per node, from a sum-of-exponentials
form of w_m (the diffusive representation of the kernel), Q = 92 of them
after the modes whose decay is 1 to within 1e-13 are folded into one
running sum; with K0 = 8 that is 2 K0 + Q + 1 = 109 stored rows. A step
costs one row write and one (2, 2 K0 + Q + 1) product; the modes are
updated once every K0 steps, with one (Q, K0) product, both into work
rows made with it. The modes serve only lags of K0 and more, where the
sum-of-exponentials weights match w_m to 1.2e-9 relative on every lag
from K0 - 1 to 10^6, and to 1.3e-11 on lags K0 - 1 to 100. Uniform dt is
required by the weights. The memory holds pressures only: dt enters
through the prefactors of the sums, which `source_coefficients` computes
once per run and the run's `PressureHistory` folds into its summation
blocks. A run hands it the prefactors times dt, so that its table is
dt G, the source increment of one step.
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


def _phase_blocks(k0: int, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of the pair and difference sums on the wall memory's
    rows, one (2, 2 k0 + Q) block per phase r = n mod 2 k0 of step n.

    At step n the ring carries the L = k0 + (n + 1) mod k0 newest levels
    (ring slots not yet written hold zeros). Ring slot i holds the level
    at lag k = (r - i) mod 2 k0. For k < L that level weighs w_{k-1} + w_k
    in the pair sum and w_k - w_{k-1} in the difference sum (w_{-1} = 0);
    for k >= L it is already in the modes and weighs 0. Mode q carries
    the lags L + i, i >= 0, as sum_i e^(-s_q i) q^{n-L-i}, so it weighs
    c_q e^(-s_q L) (e^(s_q) +- 1).
    """
    ring = 2 * k0
    w = kernel_weights(ring)
    w_prev = np.append(0.0, w[:-1])
    by_lag = np.stack([w_prev + w, w - w_prev])                 # (2, 2k0)
    phase = np.arange(ring)
    lag = (phase[:, None] - phase) % ring                       # [r, i]
    held = k0 + (phase + 1) % k0                                # L of phase r
    near = np.where(lag < held[:, None], by_lag[:, lag], 0.0)   # [2, r, i]
    scale = c * np.exp(-np.outer(held, s))                      # [r, q]
    blocks = np.empty((ring, 2, ring + s.size))
    blocks[:, :, :ring] = near.transpose(1, 0, 2)
    blocks[:, 0, ring:] = scale * (np.exp(s) + 1.0)
    blocks[:, 1, ring:] = -scale * np.expm1(s)
    return blocks


K0 = 8                              # near lags summed exactly from the ring
_SOE_S, _SOE_C = _soe_nodes(K0)     # Q = 92 exponential modes
_BLOCKS = _phase_blocks(K0, _SOE_S, _SOE_C)
# a fold moves K0 levels into the modes: Y <- e^(-s K0) Y + E @ levels,
# E[q, i] = e^(-s_q (K0-1-i)) for the i-th oldest of them
_FOLD_DECAY = np.exp(-K0 * _SOE_S)[:, None]
_FOLD = np.exp(-np.outer(_SOE_S, np.arange(K0 - 1, -1, -1)))


class PressureHistory:
    """Wall memory of the nodal pressure series p_j^m on a uniform time step.

    The storage is fixed at construction: one (2 K0 + Q + 1, nodes)
    array, and (Q, nodes) work rows. The deviations q = p - p^0 from the
    first level p^0 stored sit in its first 2 K0 rows, a ring that
    carries the near lags exactly. Every K0-th level appended, the K0
    oldest levels of the ring fold into the Q exponential modes below it,
    which carry the older lags through the sum-of-exponentials form of
    the weights; the ring then holds K0 to 2 K0 - 1 levels. The last row
    carries the share of p^0 in the pair sums. A step costs one row write
    and one (2, 2 K0 + Q + 1) product. The sums come out scaled by the
    prefactors (c2, c3) given here, folded into a copy of the summation
    blocks (the defaults give the bare sums). Only the latest level can
    be summed.
    """

    def __init__(self, n_nodes: int, c2: float = 1.0, c3: float = 1.0):
        self.n_nodes = n_nodes
        self._store = np.zeros((2 * K0 + _SOE_S.size + 1, n_nodes))
        self._ring = self._store[:2 * K0]
        self._modes = self._store[2 * K0:-1]
        self._pair_p0 = self._store[-1]
        self._blocks = np.zeros((2 * K0, 2, self._store.shape[0]))
        np.multiply(_BLOCKS, np.array([[c2], [c3]]),
                    out=self._blocks[:, :, :-1])
        self._c2 = c2
        self.p0 = np.zeros(n_nodes)
        self._levels = 0
        self._work = np.empty((_SOE_S.size, n_nodes))

    @property
    def n_levels(self) -> int:
        """Number of levels appended (last level index plus one)."""
        return self._levels

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self._store, self._blocks, self.p0,
                                      self._work))

    def append(self, pressures: np.ndarray):
        row = np.asarray(pressures, dtype=float)
        if row.shape != (self.n_nodes,):
            raise ValueError(f"expected {self.n_nodes} nodal pressures")
        n = self._levels
        if n == 0:
            self.p0[:] = row
            np.subtract(row, row[0], out=self._pair_p0)
            self._pair_p0 *= 2.0 * self._c2
        np.subtract(row, self.p0, out=self._ring[n % (2 * K0)])
        self._levels += 1
        if self._levels % K0 == 0 and self._levels >= 2 * K0:
            # the K0 oldest levels of the ring fill the half the next
            # level starts; decays as a block: a column would be copied
            lo = self._levels % (2 * K0)
            work = self._work
            work[:] = _FOLD_DECAY
            np.multiply(self._modes, work, self._modes)
            np.matmul(_FOLD, self._ring[lo:lo + K0], work)
            np.add(self._modes, work, self._modes)

    def window(self, n: int) -> tuple[int, int]:
        """Summation level range [lo, n) at step n: the whole history."""
        if n > self._levels - 1:
            raise IndexError(f"history populated through level {self._levels - 1},"
                             f" step {n} requested")
        return 0, n

    def sums(self, n: int) -> np.ndarray:
        """Pair and difference sums at step n, scaled by (c2, c3), as a
        (2, nodes) array; the pair sums up to a share common to all nodes.
        Its work rows hold them until the next call or append.

        Summation by parts puts both sums on the levels p^{n-k},
        k = 0..n: the pair sum weighs lag k by w_{k-1} + w_k and the
        difference sum by w_k - w_{k-1}, with w zero outside m = 0..n-1.
        On p = p^0 + q the constant part of the pair sum telescopes to
        2 p^0 sqrt(n) and that of the difference sum to 0. The pair sums
        leave out the share 2 p^0_0 sqrt(n) of node 0, which the centered
        difference of G2 cancels: a uniform p^0 then adds nothing. The
        rest, 2 c2 (p^0 - p^0_0), is the store's last row, weighed by
        sqrt(n) in the pair row of the step's block. Ring slots not yet
        written and modes not yet fed hold zeros, so one product with the
        block of the step's phase covers every n.
        """
        if n != self._levels - 1:
            raise IndexError(f"wall memory holds step {self._levels - 1},"
                             f" step {n} requested")
        block = self._blocks[n % (2 * K0)]
        block[0, -1] = math.sqrt(n)
        return np.dot(block, self._store, self._work[:2])


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


def source_table(hist: PressureHistory, n: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The sources (G2, G3) at every node for step n, as the rows of a
    (2, J+1) array: out, or a new one; the mass equation has none. A
    table kept by the caller stays as it is until passed again as out.

    Interior nodes follow the convolution sums of `hist.sums(n)`, which
    carry the prefactors (c2, c3) the memory was built with (those of
    `source_coefficients`, times dt in a run): G2 is the centered
    difference of the scaled pair sums and G3 the scaled difference sums.
    The centered pressure-gradient bracket of G2 is undefined at j = 0
    and j = J, so the boundary entries copy their adjacent interior value
    (they only feed the midpoint source averages of the interior
    expansion). At n = 0 the sums, and so the table, are zero.
    """
    sums = hist.sums(n)     # indexed: unpacking the rows costs more
    table = np.empty((2, hist.n_nodes)) if out is None else out
    g2 = table[0]
    np.subtract(sums[0, 2:], sums[0, :-2], g2[1:-1])
    g2[0] = g2[1]
    g2[-1] = g2[-2]
    table[1] = sums[1]
    return table

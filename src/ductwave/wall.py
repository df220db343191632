"""Visco-thermal wall sources via memory-kernel convolution.

The linear boundary layer turns the wall shear stress and heat flux into
time convolutions of the nodal pressure history against a 1/sqrt(z)
kernel. Per interior node j at step n, with w_m = 1/(sqrt(m)+sqrt(m+1)):

  G2 = (beta/h) sqrt(mu/(rho0 pi)) (sqrt(dt)/(2 dx))
        * sum_m [(p_{j+1}^{n-m-1}+p_{j+1}^{n-m}) - (p_{j-1}^{n-m-1}+p_{j-1}^{n-m})] w_m

  G3 = -(2 beta/h) kappa / sqrt(dt) * sum_m (p_j^{n-m} - p_j^{n-m-1}) w_m

where the heat-kernel constant kappa is sqrt(k/(rho0 cp pi)) in the
default self-consistent mode (the eta-derivative of the closed-form erf
temperature profile) and sqrt(mu/(rho0 cp pi)) in "as-printed" mode.
The two quadrature rules underlying the sums integrate phi(z) dz/sqrt(z)
over one step and are exact for constant phi; they and the erf profiles
are kept as test oracles in `tests/reference_forms.py`.

The sums run over the full pressure history, summed by parts on the
stored levels. `PressureHistory` keeps them in fixed storage: the last K0
levels exactly, and the older ones folded into Q exponential modes per
node, from a sum-of-exponentials form of w_m (the diffusive representation
of the kernel), Q = 88 of them after the modes whose decay is 1 to within
1e-13 are folded into one running sum. Each step then costs O((K0+Q) J)
whatever its index, and the sum-of-exponentials weights match w_m to
1.4e-9 relative on every lag from K0 - 1 to 10^6. Uniform dt is
required by the weights.
"""

from __future__ import annotations

import math

import numpy as np

from .gas import GasModel
from .scheme import DuctGeometry, Grid

CONSISTENT = "consistent"
AS_PRINTED = "as-printed"


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
    served: below 1.4e-9 up to m = 10^6.
    """
    step = 0.35
    ln_s = np.arange(math.log(40.0 / (k0 - 1)), -55.0, -step)
    s = np.exp(ln_s)
    c = step / (2.0 * math.sqrt(math.pi)) * np.exp(-0.5 * ln_s) * -np.expm1(-s)
    slow = s < 1e-13
    return np.append(s[~slow], 0.0), np.append(c[~slow], c[slow].sum())


def _slot_blocks(k0: int, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of the pair and difference sums on the wall memory's
    rows, one (2, k0 + Q) block per ring phase r = n mod k0.

    Ring slot i holds the level at lag k = (r - i) mod k0, which weighs
    w_{k-1} + w_k in the pair sum and w_k - w_{k-1} in the difference sum
    (w_{-1} = 0). Mode q carries the lags k0 + i, each weighing
    c_q e^(-s_q (k0+i)) (e^(s_q) +- 1).
    """
    w = kernel_weights(k0)
    w_prev = np.append(0.0, w[:-1])
    by_lag = np.stack([w_prev + w, w - w_prev])                 # (2, k0)
    lag = (np.arange(k0)[:, None] - np.arange(k0)) % k0         # [r, i]
    scale = c * np.exp(-s * k0)
    tail = np.stack([scale * (np.exp(s) + 1.0), -scale * np.expm1(s)])
    blocks = np.empty((k0, 2, k0 + s.size))
    blocks[:, :, :k0] = by_lag[:, lag].transpose(1, 0, 2)
    blocks[:, :, k0:] = tail
    return blocks


K0 = 32                             # near lags summed exactly from the ring
_SOE_S, _SOE_C = _soe_nodes(K0)     # Q = 88 exponential modes
_BLOCKS = _slot_blocks(K0, _SOE_S, _SOE_C)


class PressureHistory:
    """Wall memory of the nodal pressure series p_j^m on a uniform time step.

    The storage is fixed at construction: one (K0 + Q, nodes) array. The
    deviations q = p - p^0 from the first level p^0 stored sit in its
    first K0 rows, a ring of the last K0 levels, which carries the near
    lags exactly. Levels that leave the ring fold into the Q exponential
    modes below it, Y_q <- e^(-s_q) Y_q + q, which carry the older lags
    through the sum-of-exponentials form of the weights. Only the latest
    level can be summed.
    """

    def __init__(self, n_nodes: int, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.n_nodes = n_nodes
        self.dt = dt
        self._store = np.zeros((K0 + _SOE_S.size, n_nodes))
        self._ring = self._store[:K0]
        self._modes = self._store[K0:]
        # the decays at full size: one contiguous multiply per step is
        # faster than broadcasting a column over the mode rows
        self._decay = np.repeat(np.exp(-_SOE_S)[:, None], n_nodes, axis=1)
        self.p0 = np.zeros(n_nodes)
        self._levels = 0

    @property
    def n_levels(self) -> int:
        """Number of levels appended (last level index plus one)."""
        return self._levels

    @property
    def nbytes(self) -> int:
        return self._store.nbytes + self._decay.nbytes + self.p0.nbytes

    def append(self, pressures: np.ndarray):
        row = np.asarray(pressures, dtype=float)
        if row.shape != (self.n_nodes,):
            raise ValueError(f"expected {self.n_nodes} nodal pressures")
        if self._levels == 0:
            self.p0[:] = row
        # the slot holds the level leaving the ring (zeros while it fills)
        slot = self._levels % K0
        self._modes *= self._decay
        self._modes += self._ring[slot]
        np.subtract(row, self.p0, out=self._ring[slot])
        self._levels += 1

    def window(self, n: int) -> tuple[int, int]:
        """Summation level range [lo, n) at step n: the whole history."""
        if n > self._levels - 1:
            raise IndexError(f"history populated through level {self._levels - 1},"
                             f" step {n} requested")
        return 0, n

    def sums(self, n: int) -> np.ndarray:
        """Pair and difference sums at step n, as a (2, nodes) array.

        Summation by parts puts both sums on the levels p^{n-k},
        k = 0..n: the pair sum weighs lag k by w_{k-1} + w_k and the
        difference sum by w_k - w_{k-1}, with w zero outside m = 0..n-1.
        On p = p^0 + q the constant part of the pair sum telescopes to
        2 p^0 sqrt(n) and that of the difference sum to 0. Ring slots not
        yet written and modes not yet fed hold zeros, so one product with
        the block of the step's ring phase covers every n.
        """
        if n != self._levels - 1:
            raise IndexError(f"wall memory holds step {self._levels - 1},"
                             f" step {n} requested")
        acc = _BLOCKS[n % K0] @ self._store
        acc[0] += 2.0 * math.sqrt(n) * self.p0
        return acc


def shear_coefficient(gas: GasModel, geom: DuctGeometry, grid: Grid,
                      dt: float) -> float:
    """Prefactor of the G2 convolution sum [Pa/m per Pa]."""
    return (geom.beta / geom.h) * math.sqrt(gas.mu / (gas.rho0 * math.pi)) \
        * math.sqrt(dt) / (2.0 * grid.dx)


def heat_kernel_constant(gas: GasModel, mode: str = CONSISTENT) -> float:
    """kappa in the G3 sum: k-based (consistent) or mu-based (as printed)."""
    if mode == CONSISTENT:
        num = gas.k_cond
    elif mode == AS_PRINTED:
        num = gas.mu
    else:
        raise ValueError(f"unknown kernel mode {mode!r}")
    return math.sqrt(num / (gas.rho0 * gas.cp * math.pi))


def heat_coefficient(gas: GasModel, geom: DuctGeometry, dt: float,
                     mode: str = CONSISTENT) -> float:
    """Prefactor of the G3 convolution sum [W/m^3 per Pa]."""
    return -(2.0 * geom.beta / geom.h) * heat_kernel_constant(gas, mode) \
        / math.sqrt(dt)


def source_table(hist: PressureHistory, n: int, gas: GasModel, grid: Grid,
                 geom: DuctGeometry, mode: str = CONSISTENT) -> np.ndarray:
    """G at every node for step n, as a (J+1, 3) array.

    Interior nodes follow the convolution sums of `hist.sums(n)`. The
    centered pressure-gradient bracket of G2 is undefined at j = 0 and
    j = J, so boundary rows copy their adjacent interior value (they only
    feed the midpoint source averages of the interior expansion). At
    n = 0 the sums, and so the table, are zero.
    """
    out = np.zeros((hist.n_nodes, 3))
    pair_acc, diff_acc = hist.sums(n)
    c2 = shear_coefficient(gas, geom, grid, hist.dt)
    c3 = heat_coefficient(gas, geom, hist.dt, mode)
    out[1:-1, 1] = c2 * (pair_acc[2:] - pair_acc[:-2])
    out[0, 1] = out[1, 1]
    out[-1, 1] = out[-2, 1]
    out[:, 2] = c3 * diff_acc
    return out

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
over one step and are exact for constant phi.

Both sums are one product of p with a summation-by-parts coefficient block.
The sums run over the full pressure history (cost O(n) per node per
step); an optional truncation window m <= M_max bounds the summation
window only, while storage still grows by one row per step. Uniform dt
is required by the weight table.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .gas import GasModel
from .scheme import DuctGeometry, Grid

CONSISTENT = "consistent"
AS_PRINTED = "as-printed"

_GROW = 1024


class KernelWeights:
    """Precomputed convolution weights w_m = 1/(sqrt(m)+sqrt(m+1)).

    w_0 = 1 and the sequence decreases strictly toward zero. The table
    grows on demand and is shared across nodes and steps.
    """

    def __init__(self, n_max: int = _GROW):
        self._w = self._build(max(n_max, 1))

    @staticmethod
    def _build(n: int) -> np.ndarray:
        m = np.arange(n, dtype=float)
        return 1.0 / (np.sqrt(m) + np.sqrt(m + 1.0))

    def ensure(self, n: int):
        if n > self._w.size:
            self._w = self._build(((n // _GROW) + 1) * _GROW)

    def table(self, n: int) -> np.ndarray:
        """First n weights, m = 0..n-1."""
        self.ensure(n)
        return self._w[:n]

    def __getitem__(self, m: int) -> float:
        self.ensure(m + 1)
        return float(self._w[m])


class PressureHistory:
    """Append-only nodal pressure series p_j^m on a uniform time step."""

    def __init__(self, n_nodes: int, dt: float, m_max: int | None = None,
                 capacity: int = _GROW):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if m_max is not None and m_max < 0:
            raise ValueError("m_max must be non-negative or None")
        self.n_nodes = n_nodes
        self.dt = dt
        self.m_max = m_max
        self._p = np.empty((capacity, n_nodes))
        self._levels = 0

    @property
    def n_levels(self) -> int:
        """Number of stored time levels (last level index plus one)."""
        return self._levels

    def append(self, pressures: np.ndarray):
        row = np.asarray(pressures, dtype=float)
        if row.shape != (self.n_nodes,):
            raise ValueError(f"expected {self.n_nodes} nodal pressures")
        if self._levels == self._p.shape[0]:
            grown = np.empty((2 * self._levels, self.n_nodes))
            grown[: self._levels] = self._p
            self._p = grown
        self._p[self._levels] = row
        self._levels += 1

    def level(self, m: int) -> np.ndarray:
        if not (0 <= m < self._levels):
            raise IndexError(f"level {m} not recorded")
        return self._p[m]

    def series(self, j: int) -> np.ndarray:
        """Pressure history at node j, levels 0..n."""
        return self._p[: self._levels, j].copy()

    def window(self, n: int) -> tuple[int, int]:
        """Summation row range [lo, n) at step n after truncation."""
        if n > self._levels - 1:
            raise IndexError(f"history populated through level {self._levels - 1},"
                             f" step {n} requested")
        k_last = n - 1 if self.m_max is None else min(n - 1, self.m_max)
        return n - 1 - k_last, n

    def levels(self, lo: int, hi: int) -> np.ndarray:
        """Stored levels lo..hi inclusive, as a (hi-lo+1, nodes) view."""
        return self._p[lo:hi + 1]


def quad_two_point(phi_a: float, phi_b: float, a: float, b: float) -> float:
    """Two-point rule for integral of phi(z) dz/sqrt(z) over [a, b].

    Exact for constant phi: (phi(a)+phi(b)) (b-a)/(sqrt(a)+sqrt(b)).
    """
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return (phi_a + phi_b) * (b - a) / (math.sqrt(a) + math.sqrt(b))


def quad_one_point(phi_mid: float, a: float, b: float) -> float:
    """One-point (midpoint) rule for integral of phi(z) dz/sqrt(z)."""
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return 2.0 * phi_mid * (b - a) / (math.sqrt(a) + math.sqrt(b))


def erf(x):
    """Error function (2/sqrt(pi)) integral of exp(-s^2), odd and monotone."""
    return special.erf(x)


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


def source_table(hist: PressureHistory, n: int, weights: KernelWeights,
                 gas: GasModel, grid: Grid, geom: DuctGeometry,
                 mode: str = CONSISTENT) -> np.ndarray:
    """G at every node for step n, as a (J+1, 3) array.

    Interior nodes follow the convolution sums exactly. The centered
    pressure-gradient bracket of G2 is undefined at j = 0 and j = J, so
    boundary rows copy their adjacent interior value (they only feed the
    midpoint source averages of the interior expansion).

    Summation by parts puts both sums on the stored levels p^{n-k},
    k = 0..K+1 with K = min(n-1, M_max): the pair sum weighs lag k by
    w_{k-1} + w_k and the difference sum by w_k - w_{k-1}, with w zero
    outside m = 0..K.
    """
    out = np.zeros((hist.n_nodes, 3))
    if n == 0:
        return out
    lo, hi = hist.window(n)
    w_rev = weights.table(hi - lo)[::-1]
    # column i is level lo+i, at lag k = n-lo-i, and w_rev[i] = w_{k-1}
    coef = np.zeros((2, hi - lo + 1))
    coef[0, :-1] = w_rev
    coef[0, 1:] += w_rev
    coef[1, 1:] = w_rev
    coef[1, :-1] -= w_rev
    pair_acc, diff_acc = coef @ hist.levels(lo, hi)     # (2, nodes)
    c2 = shear_coefficient(gas, geom, grid, hist.dt)
    c3 = heat_coefficient(gas, geom, hist.dt, mode)
    out[1:-1, 1] = c2 * (pair_acc[2:] - pair_acc[:-2])
    out[0, 1] = out[1, 1]
    out[-1, 1] = out[-2, 1]
    out[:, 2] = c3 * diff_acc
    return out


def bl_velocity_profile(dpdx_history: np.ndarray, dt: float, eta: float,
                        gas: GasModel) -> float:
    """Boundary-layer velocity xi(t, eta) from the pressure-gradient history.

    Evaluates the diffusion convolution
        xi = -(1/rho0) integral_0^t dp/dx(z) erf(eta / sqrt(4 nu (t-z))) dz
    with the trapezoid rule on the uniform history grid; the kernel tends
    to 1 at z -> t for eta > 0 and vanishes identically at the wall.
    """
    vals = np.asarray(dpdx_history, dtype=float)
    kern = _erf_kernel(vals.size, dt, eta, gas.mu / gas.rho0)
    return -float(np.trapezoid(vals * kern, dx=dt)) / gas.rho0


def bl_temperature_profile(dpdt_history: np.ndarray, dt: float, eta: float,
                           gas: GasModel) -> float:
    """Boundary-layer temperature theta(t, eta); theta(., 0) = theta0."""
    vals = np.asarray(dpdt_history, dtype=float)
    kern = _erf_kernel(vals.size, dt, eta, gas.k_cond / (gas.rho0 * gas.cp))
    integral = float(np.trapezoid(vals * kern, dx=dt))
    return gas.theta0 + integral / (gas.rho0 * gas.cp)


def _erf_kernel(n: int, dt: float, eta: float, diffusivity: float) -> np.ndarray:
    """erf(eta / sqrt(4 D (t - z))) on z = 0..(n-1) dt, with the z = t limit."""
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    if n < 2:
        raise ValueError("history must cover at least one step")
    lag = (np.arange(n - 1, -1, -1, dtype=float)) * dt   # t - z_i
    kern = np.empty(n)
    kern[:-1] = special.erf(eta / np.sqrt(4.0 * diffusivity * lag[:-1]))
    kern[-1] = 1.0 if eta > 0.0 else 0.0
    return kern

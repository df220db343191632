"""Interior scheme for the quasi-1D Euler equations with wall source terms.

The conserved field W = (rho, rho u, rho(e + u^2/2)) obeys

    dW/dt + d f(W)/dx = G(W)

with f the perfect-gas Euler flux and G the visco-thermal wall forcing
(module `wall`). Interior nodes advance with a one-step second-order
Taylor expansion in time: dW/dt comes from the equation itself with a
centered flux difference, and d2W/dt2 from its space derivative using
two-point averaged flux Jacobians and one-sided midpoint flux
differences. Boundary nodes are owned by `boundaries` and never written
here.

Array conventions: a field is a plain (J+1, 3) float array over grid
nodes, with no clock attached; the driver keeps the time and the step
index. The update takes the field and the primitive arrays (rho, u, p)
of it, which the driver computes and checks once per state and hands
in, and forms the flux and the Jacobian products from them. It is pure
numerics: it returns a new array unchecked, and the driver checks it
once its boundary rows are written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gas import GasModel

PLANE = "plane"
AXISYMMETRIC = "axisymmetric"


@dataclass(frozen=True)
class Grid:
    """Uniform vertex grid x_j = j * dx, j = 0..J, with dx = L / J."""

    length: float
    cells: int

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("grid length must be positive")
        if self.cells < 4:
            raise ValueError(f"at least 4 cells required, got {self.cells}")

    @property
    def dx(self) -> float:
        return self.length / self.cells

    @property
    def n_nodes(self) -> int:
        return self.cells + 1

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dx

    def nearest_node(self, station: float) -> int:
        """Index of the grid node closest to the abscissa `station`."""
        if station < 0.0 or station > self.length * (1.0 + 1e-12):
            raise ValueError(f"station {station} outside [0, {self.length}]")
        return min(int(round(station / self.dx)), self.cells)


@dataclass(frozen=True)
class DuctGeometry:
    """Transverse geometry: half-width of a plane channel or radius of a
    cylinder, plus the symmetry that fixes the wall-source multiplier."""

    h: float
    symmetry: str = PLANE

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("duct half-width/radius must be positive")
        if self.symmetry not in (PLANE, AXISYMMETRIC):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")

    @property
    def beta(self) -> int:
        return 1 if self.symmetry == PLANE else 2


def lax_wendroff_update(w: np.ndarray, sources: np.ndarray,
                        dt_sources: np.ndarray, gas: GasModel, grid: Grid,
                        dt: float, prim) -> np.ndarray:
    """The (J+1, 3) field w with interior nodes 1..J-1 advanced one step
    of size dt.

    sources and dt_sources are (J+1, 3) arrays of G and its time
    derivative at every node (boundary entries feed only the midpoint
    averages). prim is the (rho, u, p) of w. Boundary rows are copied
    through untouched. The new array is returned unchecked.

    The Euler flux is (rho u, rho u^2 + p, u (etot + p)). Its Jacobian A
    has first row (0, 1, 0) and A_12 = gamma - 1; the midpoint products
    A v are formed from the five other entries, evaluated at the nodes
    and averaged to the midpoints.
    """
    g = np.asarray(sources, dtype=float)
    dt_g = np.asarray(dt_sources, dtype=float)
    if g.shape != w.shape or dt_g.shape != w.shape:
        raise ValueError("sources must be supplied for all nodes")
    rho, u, p = prim
    gam = gas.gamma
    mom, etot = w[:, 1], w[:, 2]

    f = np.empty_like(w)
    f[:, 0] = mom
    f[:, 1] = mom * u + p
    f[:, 2] = u * (etot + p)

    dt_w = g[1:-1] - (f[2:] - f[:-2]) / (2.0 * grid.dx)

    v = 0.5 * (g[:-1] + g[1:]) - (f[1:] - f[:-1]) / grid.dx   # (J, 3)
    u2 = u * u
    a = np.empty((5, w.shape[0]))
    a[0] = 0.5 * (gam - 3.0) * u2                               # A_10
    a[1] = (3.0 - gam) * u                                      # A_11
    a[2] = (gam - 1.0) * u * u2 - gam * u * etot / rho          # A_20
    a[3] = gam * etot / rho - 1.5 * (gam - 1.0) * u2            # A_21
    a[4] = gam * u                                              # A_22
    a_mid = 0.5 * (a[:, :-1] + a[:, 1:])
    flux_rate = np.empty_like(v)
    flux_rate[:, 0] = v[:, 1]
    flux_rate[:, 1] = (a_mid[0] * v[:, 0] + a_mid[1] * v[:, 1]
                       + (gam - 1.0) * v[:, 2])
    flux_rate[:, 2] = (a_mid[2] * v[:, 0] + a_mid[3] * v[:, 1]
                       + a_mid[4] * v[:, 2])
    d2t_w = dt_g[1:-1] - (flux_rate[1:] - flux_rate[:-1]) / grid.dx

    w_new = w.copy()
    w_new[1:-1] = w[1:-1] + dt * dt_w + 0.5 * dt * dt * d2t_w
    return w_new

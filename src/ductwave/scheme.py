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
index. The update takes the field, the primitive arrays (rho, u, p) of
it, which the driver computes and checks once per state, and the wall
sources as the two increments the step adds: dt G + dt^2/2 dG/dt at
the nodes and dt times the mean G of each cell's two nodes at the
midpoints, which the driver forms once per step (with losses off, one
shared zero buffer). It forms the flux and
the Jacobian products from them in one pass of whole-array operations,
most of them in place into arrays it allocates, with no branch on the
sources. It is pure numerics: it returns a new array unchecked, and the
driver checks it once its boundary rows are written.
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


def lax_wendroff_update(w: np.ndarray, s_node: np.ndarray,
                        s_mid: np.ndarray, gas: GasModel, grid: Grid,
                        dt: float, prim) -> np.ndarray:
    """The (J+1, 3) field w with interior nodes 1..J-1 advanced one step
    of size dt.

    s_node and s_mid are the source increments the step adds: s_node =
    dt G + dt^2/2 dG/dt at every node, a (J+1, 3) array whose boundary
    rows are not read, and s_mid = dt (G_j + G_j+1)/2 at the J
    midpoints, a (J, 3) array. prim is the (rho, u, p) of w. Boundary
    rows are copied through untouched. The new array is returned
    unchecked.

    With lam = dt/dx, cell j running from node j to node j+1, F_j =
    lam (f_j+1 - f_j) its scaled flux difference and dt v_j = s_mid_j -
    F_j its rate dW/dt = G - df/dx times dt, the update is

        w_j + s_node_j - [(F + R)_j + (F - R)_j-1] / 2,
        R_j = lam A_mid,j (dt v_j),

    the centered flux difference and the second-order term of the
    Taylor expansion in one stencil. The Euler flux is (rho u,
    rho u^2 + p, u (etot + p)); its Jacobian A is formed at the nodes,
    scaled by lam/2, so that the sum of two neighbours is lam A_mid.
    """
    n = w.shape[0]
    if s_node.shape != w.shape or s_mid.shape != (n - 1, 3):
        raise ValueError("source increments must be supplied for all"
                         " nodes and midpoints")
    rho, u, p = prim
    gam = gas.gamma
    lam = dt / grid.dx
    half_lam = 0.5 * lam
    mom, etot = w[:, 1], w[:, 2]

    f = np.empty_like(w)
    f[:, 0] = mom
    np.multiply(mom, u, out=f[:, 1])
    f[:, 1] += p
    np.add(etot, p, out=f[:, 2])
    f[:, 2] *= u
    flux = f[1:] - f[:-1]
    flux *= lam
    dt_v = s_mid - flux

    # lam/2 A_ik at the nodes for rows i = 1, 2 of A (row 0 is (0, 1, 0)),
    # a flat (2, 3, J+1) block, then in one call the sum of each node with
    # its right neighbour over the whole block: the last column of each
    # row of that sum straddles two rows and is dropped.
    block = np.empty((2, 6 * n))
    a = block[0].reshape(6, n)
    u2 = u * u
    np.multiply(u2, 0.5 * (gam - 3.0) * half_lam, out=a[0])
    np.multiply(u, (3.0 - gam) * half_lam, out=a[1])
    a[2] = (gam - 1.0) * half_lam
    np.multiply(u2, (gam - 1.0) * half_lam, out=a[3])
    np.divide(etot, rho, out=a[4])
    a[4] *= gam * half_lam
    a[3] -= a[4]
    a[3] *= u
    u2 *= 1.5 * (gam - 1.0) * half_lam
    a[4] -= u2
    np.multiply(u, gam * half_lam, out=a[5])
    np.add(block[0, 1:], block[0, :-1], out=block[1, :-1])
    a_mid = block[1].reshape(2, 3, n)[:, :, :-1]

    r = np.empty_like(flux)
    np.multiply(dt_v[:, 1], lam, out=r[:, 0])
    np.add.reduce(a_mid * dt_v.T, axis=1, out=r[:, 1:].T)
    plus = flux + r
    flux -= r
    plus[1:] += flux[:-1]
    plus *= 0.5
    w_new = w.copy()
    inner = w_new[1:-1]
    inner += s_node[1:-1]
    inner -= plus[1:]
    return w_new

"""Interior scheme for the quasi-1D Euler equations with wall source terms.

The conserved field W = (rho, rho u, rho(e + u^2/2)) obeys

    dW/dt + d f(W)/dx = G(W)

with f the perfect-gas Euler flux and G the visco-thermal wall forcing
(module `wall`). Interior nodes advance with a one-step second-order
Taylor expansion in time: dW/dt comes from the equation itself with a
centered flux difference, and d2W/dt2 from its space derivative using
two-point averaged flux Jacobians and one-sided midpoint flux
differences. Boundary nodes are owned by `boundaries`, whose update
overwrites whatever this one leaves in them.

Array conventions: a field is one C-contiguous (3, J+1) float array
whose rows are rho, rho u and rho E over the grid nodes, with no clock
attached; the driver keeps the time and the step index. A `Level` holds
the storage of one time level, made once per run: the field, its
primitive rows (rho, u, p), which the driver computes and checks once
per state, the update's work rows, which the two levels of a run
share, and the views of them that a step reads and writes, so that the
update makes no array. The update advances one level into another. It
takes the wall sources of the momentum and energy rows as the two
increments the step adds: dt G + dt^2/2 dG/dt at the nodes and half of
dt times the mean G of each cell's two nodes at the midpoints, which the
driver forms once per step; with losses off it is handed none. It works
on the raveled rows: every operation spans a whole buffer, its operands
of one shape and its output passed by position, and the few entries
that straddle two rows land on boundary nodes, which the boundary update
rewrites. It is pure numerics: it leaves the new field unchecked, and
the driver checks it once its boundary columns are written.
"""

from __future__ import annotations

import functools
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


# rows of a Level's row buffer: (rho, u, p), then the basis the flux
# Jacobian is linear in, whose rows 1-7 (u, p, u^2, u^3, e, u e, 1) are
# summed over each cell at once
RHO, U, P, U2, U3, E, UE, ONE = range(8)


class Level:
    """The storage of one time level on n nodes, with its views.

    q is the conserved field, a C-contiguous (3, n) array of the rows
    rho, rho u and rho E, and w its (n, 3) view. rows is an (8, n)
    buffer: rows 0-2, prim, hold (rho, u, p) of the field, written by the
    driver's check of the level; rows 3-6 the basis u^2, u^3, e = E/rho
    and u e, written by the update that starts from the level; row 7
    ones. The work rows are that update's, and the remaining
    attributes are the views of all of these that a step reads and
    writes. A level made with another level shares that level's work rows:
    one update runs at a time, and none leaves anything in it.
    """

    # the names from "pair" on are views of the work rows
    __slots__ = (
        "n", "q", "w", "rows", "prim", "mom", "etot", "inner", "sourced",
        "inlet", "inlet_next", "outlet", "outlet_prev",
        "rho", "u", "p", "u2", "u3", "e", "ue", "basis_hi", "basis_lo",
        "pair", "pair_flat", "f0", "f1", "f2", "f_hi", "f_lo", "flux_row",
        "flux", "flux_lo", "dt_v", "dv_row", "dv_src", "dv_copies", "a_mid",
        "a_mid3", "a_rows", "r", "r_flat", "plus", "plus_hi")

    def __init__(self, n: int, other: Level | None = None):
        self.n = n
        self.q = np.empty((3, n))
        self.w = self.q.T
        q_flat = self.q.reshape(-1)
        self.mom, self.etot = self.q[1], self.q[2]
        # every entry but the first and the last, the ones the update reads
        # and writes, and the rho u and rho E rows, which take the sources
        self.inner, self.sourced = q_flat[1:-1], self.q[1:]
        self.inlet, self.inlet_next = self.q[:, 0], self.q[:, 1]
        self.outlet, self.outlet_prev = self.q[:, -1], self.q[:, -2]

        self.rows = np.zeros((8, n))
        self.rows[ONE] = 1.0
        self.prim = self.rows[:3]
        (self.rho, self.u, self.p, self.u2, self.u3, self.e,
         self.ue, _) = self.rows
        basis = self.rows[U:].reshape(-1)
        self.basis_hi, self.basis_lo = basis[1:], basis[:-1]

        if other is not None:
            for name in _WORK_VIEWS:
                setattr(self, name, getattr(other, name))
            return
        # work rows, zero where no operation writes: the last entry of each
        # raveled buffer below stays finite (dt v's, -0 plus s_mid's last)
        work = np.zeros((37, n))
        self.pair, self.a_mid = work[:7], work[7:16]
        self.a_mid3 = self.a_mid.reshape(3, 3, n)
        self.a_rows = self.a_mid.reshape(3, 3 * n)
        self.pair_flat = self.pair.reshape(-1)[:-1]
        f = work[16:19]
        self.f0, self.f1, self.f2 = f
        f_flat = f.reshape(-1)
        self.f_hi, self.f_lo = f_flat[1:], f_flat[:-1]
        self.flux_row = work[19:22].reshape(-1)
        self.flux = self.flux_row[:-1]
        self.flux_lo = self.flux[:-1]
        # dt v once per row of A_mid: broadcast, numpy would copy it
        self.dt_v = work[22:31].reshape(3, 3 * n)
        self.dv_row, self.dv_copies = self.dt_v[0], self.dt_v[1:]
        self.dv_src = self.dv_row.reshape(3, n)[1:]
        self.r = work[31:34]
        self.r_flat = self.r.reshape(-1)[:-1]
        self.plus = work[34:37].reshape(-1)[:-1]
        self.plus_hi = self.plus[1:]


_WORK_VIEWS = Level.__slots__[Level.__slots__.index("pair"):]


@functools.lru_cache(maxsize=8)
def _jacobian_basis(gamma: float, half_lam: float) -> np.ndarray:
    """The (9, 7) matrix C with lam/2 A_ik(w) = sum_b C[3 i + k, b]
    basis_b(w), over the basis rows 1-7 of a Level's row buffer (u, p,
    u^2, u^3, e, u e, 1); p has no entry. Read-only."""
    c = np.zeros((3, 3, 8))
    c[0, 1, ONE] = half_lam
    c[1, 0, U2] = 0.5 * (gamma - 3.0) * half_lam
    c[1, 1, U] = (3.0 - gamma) * half_lam
    c[1, 2, ONE] = (gamma - 1.0) * half_lam
    c[2, 0, U3] = (gamma - 1.0) * half_lam
    c[2, 0, UE] = -gamma * half_lam
    c[2, 1, E] = gamma * half_lam
    c[2, 1, U2] = -1.5 * (gamma - 1.0) * half_lam
    c[2, 2, U] = gamma * half_lam
    c = c.reshape(9, 8)[:, U:].copy()
    c.flags.writeable = False
    return c


def lax_wendroff_update(cur: Level, nxt: Level, s_node: np.ndarray | None,
                        s_mid: np.ndarray | None, gas: GasModel, grid: Grid,
                        dt: float) -> np.ndarray:
    """Advance the interior nodes 1..J-1 of the field of level cur one
    step of size dt into the field of level nxt, and return that field,
    nxt.q.

    cur.prim must hold (rho, u, p) of cur's field. s_node and s_mid are
    the source increments of the rho u and rho E rows, each a (2, J+1)
    array: s_node = dt G + dt^2/2 dG/dt at every node, and s_mid =
    dt (G_j + G_j+1)/4, half the midpoint increment, in column j for
    cell j. Column J of s_mid reaches only boundary entries and must be
    finite. Without sources both are None, and no source arithmetic is
    done. The boundary columns 0 and J of nxt.q are left to the boundary
    update, and the field is left unchecked.

    With lam = dt/dx, cell j running from node j to node j+1, F_j =
    lam (f_j+1 - f_j) its scaled flux difference and dt v_j = dt G_mid,j -
    F_j its rate dW/dt = G - df/dx times dt, the update is

        w_j + s_node_j - [(F + R)_j + (F - R)_j-1] / 2,
        R_j = lam A_mid,j (dt v_j),

    the centered flux difference and the second-order term of the
    Taylor expansion in one stencil, formed at half scale so that no
    step halves it. The Euler flux is (rho u, rho u^2 + p, u (etot +
    p)); the entries of its Jacobian A are linear in the basis (u, u^2,
    u^3, e, u e, 1), so lam/2 times the sum of A over a cell's two
    nodes is a constant matrix times the cell's pair-summed basis.
    """
    n = cur.n
    sourced = s_node is not None or s_mid is not None
    if nxt.n != n or sourced and not (getattr(s_node, "shape", 0)
                                      == getattr(s_mid, "shape", 0) == (2, n)):
        raise ValueError("both levels and the source increments of every"
                         " node and midpoint must share the grid's nodes")
    half_lam = 0.5 * dt / grid.dx
    u, p, mom, etot = cur.u, cur.p, cur.mom, cur.etot

    np.multiply(u, u, cur.u2)
    np.multiply(cur.u2, u, cur.u3)
    np.divide(etot, cur.rho, cur.e)
    np.multiply(u, cur.e, cur.ue)
    # each node plus its right neighbour over rows 1-7 in one call
    np.add(cur.basis_hi, cur.basis_lo, cur.pair_flat)
    np.matmul(_jacobian_basis(gas.gamma, half_lam), cur.pair, cur.a_mid)

    f1, f2 = cur.f1, cur.f2
    cur.f0[:] = mom
    np.multiply(mom, u, f1)
    np.add(f1, p, f1)
    np.add(etot, p, f2)
    np.multiply(f2, u, f2)
    # differenced before it is scaled: scaling p0-sized fluxes first
    # rounds a rest state away from itself
    flux = cur.flux
    np.subtract(cur.f_hi, cur.f_lo, flux)
    np.multiply(flux, half_lam, flux)

    # dt v = -F + dt G_mid: -F + s is s - F, bit for bit
    np.negative(cur.flux_row, cur.dv_row)
    if sourced:
        np.add(cur.dv_src, s_mid, cur.dv_src)
    cur.dv_copies[:] = cur.dv_row
    np.multiply(cur.a_rows, cur.dt_v, cur.a_rows)
    np.add.reduce(cur.a_mid3, 1, None, cur.r)

    r, plus = cur.r_flat, cur.plus
    np.add(flux, r, plus)
    np.subtract(flux, r, flux)
    np.add(cur.plus_hi, cur.flux_lo, cur.plus_hi)
    np.subtract(cur.inner, cur.plus_hi, nxt.inner)
    if sourced:
        np.add(nxt.sourced, s_node, nxt.sourced)
    return nxt.q

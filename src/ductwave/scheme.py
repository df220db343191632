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

Array conventions: field values are (J+1, 3) float arrays over grid
nodes; flux and Jacobian helpers broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError
from .gas import GasModel, conserved_array, primitive_arrays, sound_speed_array

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


@dataclass
class FieldState:
    """Nodal conserved field with its clock: values w (J+1, 3), time t,
    step index n."""

    w: np.ndarray
    t: float = 0.0
    n: int = 0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2 or self.w.shape[1] != 3:
            raise ValueError("field array must have shape (J+1, 3)")

    @property
    def n_nodes(self) -> int:
        return self.w.shape[0]

    def copy(self) -> "FieldState":
        return FieldState(w=self.w.copy(), t=self.t, n=self.n)

    def validate(self, step: int | None = None):
        """Raise BlowUpError at the first node violating positivity."""
        rho = self.w[:, 0]
        e_int = self.w[:, 2] - 0.5 * self.w[:, 1] ** 2 / rho
        bad = ~(np.isfinite(self.w).all(axis=1) & (rho > 0.0) & (e_int > 0.0))
        if bad.any():
            node = int(np.argmax(bad))
            raise BlowUpError("state lost positivity", step=step, node=node)


def physical_flux(w, gas: GasModel) -> np.ndarray:
    """Euler flux (rho u, rho u^2 + p, u (etot + p)) of states (..., 3)."""
    w = np.asarray(w, dtype=float)
    _, u, p = primitive_arrays(w, gas)
    return np.stack([w[..., 1], w[..., 1] * u + p, u * (w[..., 2] + p)], axis=-1)


def flux_jacobian(w, gas: GasModel) -> np.ndarray:
    """Analytic Jacobian of the Euler flux w.r.t. conserved variables.

    For states of shape (..., 3) returns (..., 3, 3). Eigenvalues are
    u - c, u, u + c.
    """
    w = np.asarray(w, dtype=float)
    g = gas.gamma
    rho = w[..., 0]
    u = w[..., 1] / rho
    etot = w[..., 2]
    u2 = u * u
    a = np.empty(w.shape[:-1] + (3, 3))
    a[..., 0, 0] = 0.0
    a[..., 0, 1] = 1.0
    a[..., 0, 2] = 0.0
    a[..., 1, 0] = 0.5 * (g - 3.0) * u2
    a[..., 1, 1] = (3.0 - g) * u
    a[..., 1, 2] = g - 1.0
    a[..., 2, 0] = (g - 1.0) * u * u2 - g * u * etot / rho
    a[..., 2, 1] = g * etot / rho - 1.5 * (g - 1.0) * u2
    a[..., 2, 2] = g * u
    return a


def lax_wendroff_update(field: FieldState, sources: np.ndarray,
                        dt_sources: np.ndarray, gas: GasModel, grid: Grid,
                        dt: float) -> FieldState:
    """Advance interior nodes 1..J-1 one step of size dt.

    sources and dt_sources are (J+1, 3) arrays of G and its time
    derivative at every node (boundary entries feed only the midpoint
    averages). Boundary nodes are copied through untouched. Raises
    BlowUpError if the update destroys positivity.
    """
    w = field.w
    g = np.asarray(sources, dtype=float)
    dt_g = np.asarray(dt_sources, dtype=float)
    if g.shape != w.shape or dt_g.shape != w.shape:
        raise ValueError("sources must be supplied for all nodes")

    f = physical_flux(w, gas)
    jac = flux_jacobian(w, gas)

    dt_w = g[1:-1] - (f[2:] - f[:-2]) / (2.0 * grid.dx)

    jac_mid = 0.5 * (jac[:-1] + jac[1:])                       # (J, 3, 3)
    dt_w_mid = 0.5 * (g[:-1] + g[1:]) - (f[1:] - f[:-1]) / grid.dx
    flux_rate = np.einsum("jab,jb->ja", jac_mid, dt_w_mid)     # (J, 3)
    d2t_w = dt_g[1:-1] - (flux_rate[1:] - flux_rate[:-1]) / grid.dx

    w_new = w.copy()
    w_new[1:-1] = w[1:-1] + dt * dt_w + 0.5 * dt * dt * d2t_w

    out = FieldState(w=w_new, t=field.t + dt, n=field.n + 1)
    out.validate(step=out.n)
    return out


def compute_dt(field: FieldState, grid: Grid, gas: GasModel,
               cfl: float) -> float:
    """CFL time step cfl * dx / max_j(|u_j| + c_j), for cfl in (0, 1]."""
    if not (0.0 < cfl <= 1.0):
        raise ValueError(f"cfl must lie in (0, 1], got {cfl}")
    rho, u, p = primitive_arrays(field.w, gas)
    radius = float(np.max(np.abs(u) + sound_speed_array(rho, p, gas)))
    return cfl * grid.dx / radius


def uniform_field(grid: Grid, gas: GasModel, rho: float, u: float,
                  p: float) -> FieldState:
    """A spatially uniform field, handy for initialization and tests."""
    w = np.tile(conserved_array(rho, u, p, gas), (grid.n_nodes, 1))
    return FieldState(w=w)

"""Perfect-gas thermodynamics and state-variable conversions.

Everything downstream (interior scheme, wall sources, characteristic
boundaries, analytic references) works in terms of the quantities defined
here: a calorically perfect gas with ratio of specific heats ``gamma``,
the conserved vector W = (rho, rho*u, rho*(e + u^2/2)), its primitive view
(rho, u, p) with p = (gamma - 1) * rho * e, and the characteristic
variables u +/- 2c/(gamma - 1) and S = p / rho^gamma.

All quantities are strict SI. Conversions are pure functions. The array
forms do not check positivity: a run evaluates `primitive_arrays` once
per state, on the initial field and then on each field whose boundary
rows are written, and checks the state on those arrays
(`driver.Simulation`); they serve the wall memory, the probes and the
next interior update. The boundary update checks the nodes it reads and
the rows it rebuilds, and the driver checks an imposed pressure before
forming the inflow's external velocity from it. A failed check is a
DuctwaveError whose message names the cause and the node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuctwaveError


@dataclass(frozen=True)
class GasModel:
    """Fluid constants and the reference rest state.

    Defaults are standard air data at p0 = 1 atm; override any of them
    through the configuration layer.
    """

    gamma: float = 1.4            # ratio of specific heats
    mu: float = 1.81e-5           # shear viscosity [Pa s]
    k_cond: float = 0.0257        # thermal conductivity [W/(m K)]
    cp: float = 1005.0            # specific heat at constant pressure [J/(kg K)]
    rho0: float = 1.2             # reference density [kg/m^3]
    p0: float = 101325.0          # reference pressure [Pa]

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        for name in ("mu", "k_cond", "cp", "rho0", "p0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")

    @property
    def c0(self) -> float:
        """Reference sound speed sqrt(gamma * p0 / rho0) [m/s]."""
        return math.sqrt(self.gamma * self.p0 / self.rho0)

    @property
    def s0(self) -> float:
        """Reference entropy p0 / rho0^gamma."""
        return self.p0 / self.rho0 ** self.gamma


# ---------------------------------------------------------------------------
# Conversions. The array forms broadcast over a leading axis and serve the
# interior field, the probes and the wall history; the characteristic
# inverse rebuilds one boundary node from plain numbers.
# ---------------------------------------------------------------------------

def primitive_arrays(w: np.ndarray, gas: GasModel):
    """Split a conserved array (..., 3) into (rho, u, p) arrays."""
    rho = w[..., 0]
    u = w[..., 1] / rho
    p = (gas.gamma - 1.0) * (w[..., 2] - 0.5 * w[..., 1] * u)
    return rho, u, p


def conserved_array(rho, u, p, gas: GasModel) -> np.ndarray:
    """Stack (rho, u, p) arrays into a conserved array (..., 3)."""
    rho = np.asarray(rho, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    etot = p / (gas.gamma - 1.0) + 0.5 * rho * u * u
    return np.stack([rho, rho * u, etot], axis=-1)


def primitive_from_characteristics(r_plus: float, r_minus: float,
                                   entropy: float, gas: GasModel,
                                   node: int | None = None):
    """(rho, u, p) with Riemann invariants u +/- 2c/(gamma-1) and entropy
    S = p / rho^gamma, as plain numbers.

    u is the mean of the invariants, c their scaled difference, and rho
    follows from c^2 = gamma * S * rho^(gamma-1). Raises DuctwaveError
    unless r_plus > r_minus and the rebuilt density and pressure are
    positive, naming node when it is given.
    """
    if not (r_plus > r_minus):
        raise DuctwaveError(
            f"r_plus={r_plus} must exceed r_minus={r_minus}", node=node)
    gm1 = gas.gamma - 1.0
    u = 0.5 * (r_plus + r_minus)
    c = gm1 * (r_plus - r_minus) / 4.0
    rho = (c * c / (gas.gamma * entropy)) ** (1.0 / gm1)
    p = entropy * rho ** gas.gamma
    if not (rho > 0.0 and p > 0.0):
        raise DuctwaveError(
            f"non-positive rebuilt state rho={rho}, p={p}", node=node)
    return rho, u, p

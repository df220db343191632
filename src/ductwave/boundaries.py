"""Characteristic boundary updates for subsonic inflow and outflow.

Both ends of the duct are rebuilt by one update. On side s (-1 at the
inlet, node 0; +1 at the outlet, node J) three characteristic relations
fix the new boundary state:

- the outgoing invariant u + s 2c/(gamma-1), traced back to a foot point
  between the node and its interior neighbour at the previous time level;
- the incoming invariant u - s 2c/(gamma-1) of a locally linearized
  external state moving at u_e, with c_e = c0 + (gamma-1)/2 u_e;
- the rest entropy S0.

`boundary_row` is that update; the caller forms u_e. An inflow takes
it from the imposed acoustic velocity, or from the imposed total pressure
pi as (pi - p0)/(rho0 c0), which `driver` refuses unless pi > 0. The
nonreflecting outflow is the same update with u_e = 0, the rest external
state. The foot point lies at lambda = |u + s c| dt/dx of the way to the
neighbour, clamped to 1; the CFL bound keeps the exact foot in the first
cell.

States are conserved (3,) rows, read as plain floats: the update, foot
point included, works on plain numbers and returns the new row.
Each check (positive external sound speed, positive density and internal
energy at the node and at its foot point, |u| < c at the node, r_plus >
r_minus) raises a DuctwaveError whose message names the cause and the
boundary node.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DuctwaveError
from .gas import GasModel, primitive_from_characteristics


def _external(u_e: float, gas: GasModel, node: int) -> float:
    """Sound speed c_e of the linearized external state moving at u_e."""
    c_e = gas.c0 + 0.5 * (gas.gamma - 1.0) * u_e
    if c_e <= 0.0:
        raise DuctwaveError(
            f"external sound speed must be positive at boundary node {node}:"
            f" c_e={c_e:.3f} for u_e={u_e:.3f}")
    return c_e


def foot_point(states_near_boundary: tuple, celerity_signed: float,
               dt: float, dx: float) -> tuple[float, float, float]:
    """Backward-characteristic foot state between boundary and neighbor.

    states_near_boundary is (boundary state, interior neighbor state),
    each a conserved 3-sequence of floats. Written as
    W_b + lambda*(W_n - W_b), lambda clamped to 1, so interpolating
    identical states is bitwise exact.
    """
    w_b, w_n = states_near_boundary
    lam = min(abs(celerity_signed) * dt / dx, 1.0)
    return tuple(b + lam * (n - b) for b, n in zip(w_b, w_n))


def _node_state(w, gas: GasModel, node: int):
    """(rho, u, p, c) of a conserved row of floats at boundary node `node`."""
    rho, mom, etot = w
    if not (rho > 0.0):
        raise DuctwaveError(f"non-positive density {rho}", node=node)
    u = mom / rho
    e_int = etot - mom ** 2 / (2.0 * rho)
    if not (e_int > 0.0):
        raise DuctwaveError(f"non-positive internal energy {e_int}",
                            node=node)
    p = (gas.gamma - 1.0) * e_int
    return rho, u, p, math.sqrt(gas.gamma * p / rho)


def boundary_row(w_b, w_n, u_e: float, side: int, gas: GasModel,
                 dt: float, dx: float, node: int) -> np.ndarray:
    """New row at boundary node `node` from the level-n rows w_b of the node
    and w_n of its interior neighbour, for external velocity u_e on side
    -1 (inlet) or +1 (outlet)."""
    w_b, w_n = w_b.tolist(), w_n.tolist()
    gm1 = gas.gamma - 1.0
    c_e = _external(u_e, gas, node)
    _, u, _, c = _node_state(w_b, gas, node)
    if abs(u) >= c:
        raise DuctwaveError(
            f"supersonic state at boundary node {node}: |u|={abs(u):.3f}"
            f" >= c={c:.3f}")
    foot = foot_point((w_b, w_n), u + side * c, dt, dx)
    _, u_foot, _, c_foot = _node_state(foot, gas, node)
    outgoing = u_foot + side * 2.0 * c_foot / gm1
    incoming = u_e - side * 2.0 * c_e / gm1
    r_plus, r_minus = (outgoing, incoming) if side > 0 else (incoming, outgoing)
    rho, u, p = primitive_from_characteristics(r_plus, r_minus, gas.s0, gas,
                                               node=node)
    return np.array([rho, rho * u, p / gm1 + 0.5 * rho * u ** 2])

"""Characteristic boundary updates for subsonic inflow and outflow.

Both ends of the duct are rebuilt by one update. On side s (-1 at the
inlet, node 0; +1 at the outlet, node J) three characteristic relations
fix the new boundary state:

- the outgoing invariant u + s 2c/(gamma-1), traced back to a foot point
  between the node and its interior neighbour at the previous time level;
- the incoming invariant u - s 2c/(gamma-1) of a locally linearized
  external state moving at u_e, with c_e = c0 + (gamma-1)/2 u_e;
- the rest entropy S0.

An inflow takes u_e from the imposed acoustic velocity, or from the
imposed total pressure pi as (pi - p0)/(rho0 c0). The nonreflecting
outflow is the same update with u_e = 0, the rest external state. The
foot point lies at lambda = |u + s c| dt/dx of the way to the neighbour,
clamped to [0, 1]; the CFL bound keeps the exact foot in the first cell.

States are conserved (3,) rows and the update works on plain numbers.
Each check (positive imposed pressure and external sound speed, positive
density and internal energy at the node and at its foot point, |u| < c
at the node, r_plus > r_minus) names the boundary node in its error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError, UnsupportedRegimeError
from .gas import GasModel, primitive_from_characteristics


def _external(u_e: float, gas: GasModel, node: int) -> float:
    """Sound speed c_e of the linearized external state moving at u_e."""
    c_e = gas.c0 + 0.5 * (gas.gamma - 1.0) * u_e
    if c_e <= 0.0:
        raise UnsupportedRegimeError(
            f"external sound speed must be positive at boundary node {node}:"
            f" c_e={c_e:.3f} for u_e={u_e:.3f}")
    return c_e


def foot_point(states_near_boundary: tuple, celerity_signed: float,
               dt: float, dx: float) -> np.ndarray:
    """Backward-characteristic foot state between boundary and neighbor.

    states_near_boundary is (boundary state, interior neighbor state),
    each a conserved 3-array. Written as W_b + lambda*(W_n - W_b) so
    interpolating identical states is bitwise exact.
    """
    w_b = np.asarray(states_near_boundary[0], dtype=float)
    w_n = np.asarray(states_near_boundary[1], dtype=float)
    lam = abs(celerity_signed) * dt / dx
    lam = min(max(lam, 0.0), 1.0)
    return w_b + lam * (w_n - w_b)


def _node_state(w, gas: GasModel, node: int):
    """(rho, u, p, c) of a conserved row read at boundary node `node`."""
    rho, mom, etot = float(w[0]), float(w[1]), float(w[2])
    if not (rho > 0.0):
        raise InvalidStateError(f"non-positive density {rho}", node=node)
    u = mom / rho
    e_int = etot - mom ** 2 / (2.0 * rho)
    if not (e_int > 0.0):
        raise InvalidStateError(f"non-positive internal energy {e_int}",
                                node=node)
    p = (gas.gamma - 1.0) * e_int
    return rho, u, p, math.sqrt(gas.gamma * p / rho)


def _characteristic_update(w_b, w_n, u_e: float, side: int, gas: GasModel,
                           dt: float, dx: float, node: int) -> np.ndarray:
    """New row at boundary node `node` from the level-n rows w_b of the node
    and w_n of its interior neighbour, for external velocity u_e on side
    -1 (inlet) or +1 (outlet)."""
    gm1 = gas.gamma - 1.0
    c_e = _external(u_e, gas, node)
    _, u, _, c = _node_state(w_b, gas, node)
    if abs(u) >= c:
        raise UnsupportedRegimeError(
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


def inflow_update_pressure(pi_val: float, w0, w1, gas: GasModel, dt: float,
                           dx: float) -> np.ndarray:
    """New row at node 0 for an imposed total pressure pi at the new level.

    w0, w1 are the conserved rows at nodes 0 and 1 at the current level.
    """
    if pi_val <= 0.0:
        raise UnsupportedRegimeError(
            f"imposed pressure must be positive at boundary node 0:"
            f" pi={pi_val:.3f} Pa")
    u_e = (pi_val - gas.p0) / (gas.rho0 * gas.c0)
    return _characteristic_update(w0, w1, u_e, -1, gas, dt, dx, node=0)


def inflow_update_velocity(u_val: float, w0, w1, gas: GasModel, dt: float,
                           dx: float) -> np.ndarray:
    """New row at node 0 for an imposed acoustic velocity at the new level."""
    return _characteristic_update(w0, w1, u_val, -1, gas, dt, dx, node=0)


def outflow_update(w_jm1, w_j, gas: GasModel, dt: float, dx: float,
                   node: int) -> np.ndarray:
    """Nonreflecting row at the outlet node J (passed as node) from the
    level-n rows at J-1 and J: the inflow update with u_e = 0, mirrored."""
    return _characteristic_update(w_j, w_jm1, 0.0, 1, gas, dt, dx, node)

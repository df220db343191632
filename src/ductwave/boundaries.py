"""Characteristic boundary updates for subsonic inflow and outflow.

At each end of the duct the new boundary state is reconstructed from
three characteristic relations: the outgoing u-c (or incoming u+c)
Riemann invariant traced back to an interpolated foot point at the
previous time level, the rest entropy, and a datum carried by the
incoming wave. Pressure-driven and velocity-driven inflows use a locally
linearized external state; the outflow pins the incoming invariant to
its rest value so outgoing waves leave without reflection.

The foot point interpolates linearly toward the interior neighbor with
weight lambda = |u -/+ c| dt/dx, clamped to [0, 1]; the CFL bound keeps
the exact foot inside the first cell.

States are conserved (3,) rows and every update works on plain numbers.
Each check (positive density and internal energy at the node and at its
foot point, |u| < c at the node, r_plus > r_minus) names the boundary
node in its error.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError, UnsupportedRegimeError
from .gas import GasModel, primitive_from_characteristics


def _external(u_e: float, gas: GasModel) -> tuple[float, float]:
    c_e = gas.c0 + 0.5 * (gas.gamma - 1.0) * u_e
    if c_e <= 0.0:
        raise ValueError("external sound speed must be positive")
    return u_e, c_e


def external_from_pressure(pi_val: float,
                           gas: GasModel) -> tuple[float, float]:
    """External state (u_e, c_e) for an imposed total pressure pi
    (locally linearized)."""
    if pi_val <= 0.0:
        raise ValueError("imposed pressure must be positive")
    return _external((pi_val - gas.p0) / (gas.rho0 * gas.c0), gas)


def external_from_velocity(u_val: float,
                           gas: GasModel) -> tuple[float, float]:
    """External state (u_e, c_e) for an imposed acoustic velocity U."""
    return _external(u_val, gas)


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


def _subsonic_speeds(w, gas: GasModel, node: int) -> tuple[float, float]:
    """(u, c) at the boundary node, which must be subsonic."""
    _, u, _, c = _node_state(w, gas, node)
    if abs(u) >= c:
        raise UnsupportedRegimeError(
            f"supersonic state at boundary node {node}: |u|={abs(u):.3f}"
            f" >= c={c:.3f}"
        )
    return u, c


def _rest_entropy_row(r_plus: float, r_minus: float, gas: GasModel,
                      node: int) -> np.ndarray:
    """Conserved row with invariants r_plus, r_minus and the rest entropy."""
    rho, u, p = primitive_from_characteristics(r_plus, r_minus, gas.s0, gas,
                                               node=node)
    etot = p / (gas.gamma - 1.0) + 0.5 * rho * u ** 2
    return np.array([rho, rho * u, etot])


def _inflow_reconstruct(external: tuple[float, float], w0, w1,
                        gas: GasModel, dt: float, dx: float) -> np.ndarray:
    gm1 = gas.gamma - 1.0
    u_e, c_e = external
    u0, c0_node = _subsonic_speeds(w0, gas, node=0)
    foot = foot_point((w0, w1), u0 - c0_node, dt, dx)
    _, u_foot, _, c_foot = _node_state(foot, gas, node=0)
    r_minus = u_foot - 2.0 * c_foot / gm1
    r_plus = u_e + 2.0 * c_e / gm1
    return _rest_entropy_row(r_plus, r_minus, gas, node=0)


def inflow_update_pressure(pi_val: float, w0, w1, gas: GasModel, dt: float,
                           dx: float) -> np.ndarray:
    """New state at node 0 for an imposed total pressure pi at the new level.

    w0, w1 are the conserved rows at nodes 0 and 1 at the current level.
    The update solves: u - 2c/(g-1) from the foot point, entropy = S0, and
    u + 2c/(g-1) from the external state of the imposed pressure.
    """
    return _inflow_reconstruct(external_from_pressure(pi_val, gas),
                               w0, w1, gas, dt, dx)


def inflow_update_velocity(u_val: float, w0, w1, gas: GasModel, dt: float,
                           dx: float) -> np.ndarray:
    """New state at node 0 for an imposed acoustic velocity at the new level."""
    return _inflow_reconstruct(external_from_velocity(u_val, gas),
                               w0, w1, gas, dt, dx)


def outflow_update(w_jm1, w_j, gas: GasModel, dt: float, dx: float,
                   node: int) -> np.ndarray:
    """Nonreflecting state at node J from the level-n rows at J-1 and J.

    Pins the incoming invariant to its rest value -2 c0/(g-1), takes the
    outgoing u+c invariant from the foot point, and the rest entropy.
    node is the outlet index J, named in any error raised.
    """
    gm1 = gas.gamma - 1.0
    u_j, c_j = _subsonic_speeds(w_j, gas, node)
    foot = foot_point((w_j, w_jm1), u_j + c_j, dt, dx)
    _, u_foot, _, c_foot = _node_state(foot, gas, node)
    r_plus = u_foot + 2.0 * c_foot / gm1
    r_minus = -2.0 * gas.c0 / gm1
    return _rest_entropy_row(r_plus, r_minus, gas, node)

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedRegimeError
from .gas import (
    CharacteristicTriple,
    ConservedState,
    GasModel,
    conserved_from_primitive,
    primitive_from_characteristics,
    primitive_from_conserved,
    sound_speed,
)


@dataclass(frozen=True)
class ExternalState:
    """Fictitious upstream state (u_e, c_e) carried by the incoming wave."""

    u_e: float
    c_e: float

    def __post_init__(self):
        if self.c_e <= 0.0:
            raise ValueError("external sound speed must be positive")


def external_from_pressure(pi_val: float, gas: GasModel) -> ExternalState:
    """External state for an imposed total pressure pi (locally linearized)."""
    if pi_val <= 0.0:
        raise ValueError("imposed pressure must be positive")
    u_e = (pi_val - gas.p0) / (gas.rho0 * gas.c0)
    return ExternalState(u_e=u_e, c_e=gas.c0 + 0.5 * (gas.gamma - 1.0) * u_e)


def external_from_velocity(u_val: float, gas: GasModel) -> ExternalState:
    """External state for an imposed acoustic velocity U."""
    return ExternalState(u_e=u_val, c_e=gas.c0 + 0.5 * (gas.gamma - 1.0) * u_val)


def foot_point(states_near_boundary: tuple, celerity_signed: float,
               dt: float, dx: float) -> np.ndarray:
    """Backward-characteristic foot state between boundary and neighbor.

    states_near_boundary is (boundary state, interior neighbor state),
    each a ConservedState or a 3-array. Written as W_b + lambda*(W_n - W_b)
    so interpolating identical states is bitwise exact.
    """
    w_b = np.asarray(states_near_boundary[0], dtype=float)
    w_n = np.asarray(states_near_boundary[1], dtype=float)
    lam = abs(celerity_signed) * dt / dx
    lam = min(max(lam, 0.0), 1.0)
    return w_b + lam * (w_n - w_b)


def _boundary_primitive(w_boundary, gas: GasModel, node):
    prim = primitive_from_conserved(_as_state(w_boundary), gas, node=node)
    c = sound_speed(prim, gas)
    if abs(prim.u) >= c:
        raise UnsupportedRegimeError(
            f"supersonic state at boundary node {node}: |u|={abs(prim.u):.3f}"
            f" >= c={c:.3f}"
        )
    return prim, c


def _as_state(w) -> ConservedState:
    if isinstance(w, ConservedState):
        return w
    w = np.asarray(w, dtype=float)
    return ConservedState(rho=float(w[0]), mom=float(w[1]), etot=float(w[2]))


def _inflow_reconstruct(external: ExternalState, w0, w1, gas: GasModel,
                        dt: float, dx: float) -> ConservedState:
    gm1 = gas.gamma - 1.0
    prim0, c0_node = _boundary_primitive(w0, gas, node=0)
    foot = foot_point((w0, w1), prim0.u - c0_node, dt, dx)
    prim_foot = primitive_from_conserved(_as_state(foot), gas, node=0)
    r_minus = prim_foot.u - 2.0 * sound_speed(prim_foot, gas) / gm1
    r_plus = external.u_e + 2.0 * external.c_e / gm1
    tri = CharacteristicTriple(r_plus=r_plus, r_minus=r_minus, entropy=gas.s0)
    return conserved_from_primitive(primitive_from_characteristics(tri, gas), gas)


def inflow_update_pressure(pi_val: float, w0, w1, gas: GasModel, dt: float,
                           dx: float) -> ConservedState:
    """New state at node 0 for an imposed total pressure pi at the new level.

    w0, w1 are the states at nodes 0 and 1 at the current level. The update
    solves: u - 2c/(g-1) from the foot point, entropy = S0, and
    u + 2c/(g-1) from the external state of the imposed pressure.
    """
    return _inflow_reconstruct(external_from_pressure(pi_val, gas),
                               w0, w1, gas, dt, dx)


def inflow_update_velocity(u_val: float, w0, w1, gas: GasModel, dt: float,
                           dx: float) -> ConservedState:
    """New state at node 0 for an imposed acoustic velocity at the new level."""
    return _inflow_reconstruct(external_from_velocity(u_val, gas),
                               w0, w1, gas, dt, dx)


def outflow_update(w_jm1, w_j, gas: GasModel, dt: float, dx: float,
                   node: int) -> ConservedState:
    """Nonreflecting state at node J from the level-n states at J-1 and J.

    Pins the incoming invariant to its rest value -2 c0/(g-1), takes the
    outgoing u+c invariant from the foot point, and the rest entropy.
    node is the outlet index J, named in any error raised.
    """
    gm1 = gas.gamma - 1.0
    prim_j, c_j = _boundary_primitive(w_j, gas, node=node)
    foot = foot_point((w_j, w_jm1), prim_j.u + c_j, dt, dx)
    prim_foot = primitive_from_conserved(_as_state(foot), gas, node=node)
    r_plus = prim_foot.u + 2.0 * sound_speed(prim_foot, gas) / gm1
    r_minus = -2.0 * gas.c0 / gm1
    tri = CharacteristicTriple(r_plus=r_plus, r_minus=r_minus, entropy=gas.s0)
    return conserved_from_primitive(primitive_from_characteristics(tri, gas), gas)

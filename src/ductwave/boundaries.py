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

States are conserved (3,) rows, read as plain floats by one flat
function that returns the new row as three floats; its composed form
(external state, node state, foot point) is a test oracle in
`tests/reference_forms.py`. Each check (positive external sound speed,
positive density and internal energy at the node and at its foot point,
|u| < c at the node, r_plus > r_minus) raises a DuctwaveError whose
message names the cause and whose `.node` is the boundary node.
"""

from __future__ import annotations

import math

from .errors import DuctwaveError
from .gas import GasModel, primitive_from_characteristics


def boundary_row(w_b, w_n, u_e: float, side: int, gas: GasModel,
                 dt: float, dx: float,
                 node: int) -> tuple[float, float, float]:
    """New conserved row (rho, rho u, rho E) at boundary node `node`, as
    plain floats, from the level-n rows w_b of the node and w_n of its
    interior neighbour (arrays of three entries), for external velocity
    u_e on side -1 (inlet) or +1 (outlet)."""
    (rho, mom, etot), (n0, n1, n2) = w_b.tolist(), w_n.tolist()
    gamma = gas.gamma
    gm1 = gamma - 1.0
    c_e = gas.c0 + 0.5 * gm1 * u_e
    if c_e <= 0.0:
        raise DuctwaveError(
            f"external sound speed must be positive: c_e={c_e:.3f}"
            f" for u_e={u_e:.3f}", node=node)
    if not (rho > 0.0):
        raise DuctwaveError(f"non-positive density {rho}", node=node)
    u = mom / rho
    e_int = etot - mom ** 2 / (2.0 * rho)
    if not (e_int > 0.0):
        raise DuctwaveError(f"non-positive internal energy {e_int}",
                            node=node)
    c = math.sqrt(gamma * (gm1 * e_int) / rho)
    if abs(u) >= c:
        raise DuctwaveError(
            f"supersonic state: |u|={abs(u):.3f} >= c={c:.3f}", node=node)
    # the foot point W_b + lam (W_n - W_b), exact on identical rows, and
    # its state
    lam = min(abs(u + side * c) * dt / dx, 1.0)
    rho = rho + lam * (n0 - rho)
    mom = mom + lam * (n1 - mom)
    etot = etot + lam * (n2 - etot)
    if not (rho > 0.0):
        raise DuctwaveError(f"non-positive density {rho}", node=node)
    e_int = etot - mom ** 2 / (2.0 * rho)
    if not (e_int > 0.0):
        raise DuctwaveError(f"non-positive internal energy {e_int}",
                            node=node)
    outgoing = mom / rho + side * 2.0 * math.sqrt(
        gamma * (gm1 * e_int) / rho) / gm1
    incoming = u_e - side * 2.0 * c_e / gm1
    r_plus, r_minus = (outgoing, incoming) if side > 0 else (incoming, outgoing)
    rho, u, p = primitive_from_characteristics(r_plus, r_minus, gas.s0, gas,
                                               node=node)
    return rho, rho * u, p / gm1 + 0.5 * rho * u ** 2

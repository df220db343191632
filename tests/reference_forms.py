"""The paper's derivation forms of the wall kernel, kept as test oracles.

The 1/sqrt(z) kernel of `ductwave.wall` comes from the erf boundary-layer
profiles of the linear visco-thermal layer and from two singular-measure
quadrature rules for integral phi(z) dz/sqrt(z) over one step. The solver
only uses the weights that result, w_m = 1/(sqrt(m)+sqrt(m+1)); these are
the forms themselves, kept as independent oracles for A2 (the pulse), A5
and A6 (the heat-kernel constant and the quadratures), `test_wall` and
`test_signals`. The brute-force sums of the tests add to those weights
the endpoint correction that makes the sums second order in dt,
`endpoint_correction`, with its constant computed here from scipy's zeta.

The Euler flux and its analytic Jacobian, as whole arrays over any leading
axes, are the matrix form of the interior scheme: `ductwave.scheme` forms
the flux and the Jacobian products entry by entry, and `test_scheme`, A7
and the classical Lax-Wendroff reference check it against these. The
update takes its sources as the two increments a step adds;
`source_increments` forms them from the sources G and their rate dG/dt,
the form the tests and the classical reference state them in, and
`interior_step` takes a (J+1, 3) field through one update the way the
classical reference does, its boundary rows held.

The characteristic boundary update is kept in its composed form: the
external sound speed, the node state and the foot point as functions of
their own, and `composed_boundary_row` built from them, which
`ductwave.boundaries.boundary_row` writes out as one function in the same
floating-point order.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from ductwave.errors import DuctwaveError
from ductwave.gas import (GasModel, primitive_arrays,
                          primitive_from_characteristics)
from ductwave.scheme import Level, lax_wendroff_update
from ductwave.signals import SampledSignal


def quad_two_point(phi_a: float, phi_b: float, a: float, b: float) -> float:
    """Two-point rule for integral of phi(z) dz/sqrt(z) over [a, b].

    Exact for constant phi: (phi(a)+phi(b)) (b-a)/(sqrt(a)+sqrt(b)).
    """
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return (phi_a + phi_b) * (b - a) / (math.sqrt(a) + math.sqrt(b))


def quad_one_point(phi_mid: float, a: float, b: float) -> float:
    """One-point (midpoint) rule for integral of phi(z) dz/sqrt(z)."""
    if not (0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    return 2.0 * phi_mid * (b - a) / (math.sqrt(a) + math.sqrt(b))


# K = -2 zeta(-1/2), written by the functional equation as zeta(3/2)/(2 pi)
EULER_MACLAURIN_K = float(special.zeta(1.5)) / (2.0 * math.pi)


def endpoint_correction(levels, n: int):
    """(pair, difference) corrections of the wall sums at step n of the
    levels p^0..p^n (floats, or arrays of nodes): the z^(-1/2) term of the
    generalized Euler-Maclaurin expansion, K (p^n - p^(n-1)) on the pair
    sum and (K/2) (p^n - 2 p^(n-1) + p^(n-2)) on the difference sum.
    Levels before 0 count as level 0."""
    now, one, two = (levels[max(n - k, 0)] for k in range(3))
    k = EULER_MACLAURIN_K
    return k * (now - one), 0.5 * k * (now - 2.0 * one + two)


def bl_velocity_profile(dpdx_history: np.ndarray, dt: float, eta: float,
                        gas: GasModel) -> float:
    """Boundary-layer velocity xi(t, eta) from the pressure-gradient history.

    Evaluates the diffusion convolution
        xi = -(1/rho0) integral_0^t dp/dx(z) erf(eta / sqrt(4 nu (t-z))) dz
    with the trapezoid rule on the uniform history grid; the kernel tends
    to 1 at z -> t for eta > 0 and vanishes identically at the wall.
    """
    vals = np.asarray(dpdx_history, dtype=float)
    kern = _erf_kernel(vals.size, dt, eta, gas.mu / gas.rho0)
    return -float(np.trapezoid(vals * kern, dx=dt)) / gas.rho0


def bl_temperature_profile(dpdt_history: np.ndarray, dt: float, eta: float,
                           gas: GasModel) -> float:
    """Boundary-layer temperature deviation theta'(t, eta) from the wall
    temperature; theta'(., 0) = 0."""
    vals = np.asarray(dpdt_history, dtype=float)
    kern = _erf_kernel(vals.size, dt, eta, gas.k_cond / (gas.rho0 * gas.cp))
    integral = float(np.trapezoid(vals * kern, dx=dt))
    return integral / (gas.rho0 * gas.cp)


def heat_kernel_constant(gas: GasModel) -> float:
    """kappa of the G3 sum, from the erf temperature profile above.

    Per unit dp/dt the profile has amplitude 1/(rho0 cp) and shape
    erf(eta / sqrt(4 D t)), D = k/(rho0 cp), whose eta-slope at the wall
    is 1/sqrt(pi D t); the wall flux k d(theta)/d(eta) is then
    kappa / sqrt(t) with kappa = D / sqrt(pi D).
    """
    diffusivity = gas.k_cond / (gas.rho0 * gas.cp)
    return diffusivity / math.sqrt(math.pi * diffusivity)


def _erf_kernel(n: int, dt: float, eta: float, diffusivity: float) -> np.ndarray:
    """erf(eta / sqrt(4 D (t - z))) on z = 0..(n-1) dt, with the z = t limit."""
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    if n < 2:
        raise ValueError("history must cover at least one step")
    lag = (np.arange(n - 1, -1, -1, dtype=float)) * dt   # t - z_i
    kern = np.empty(n)
    kern[:-1] = special.erf(eta / np.sqrt(4.0 * diffusivity * lag[:-1]))
    kern[-1] = 1.0 if eta > 0.0 else 0.0
    return kern


def raised_cosine_pulse(peak: float, width: float, dtau: float,
                        total: float) -> SampledSignal:
    """One-sided sin^2 pulse of given peak and base width, then silence.

    Convenience for boundary-transparency experiments: smooth, compactly
    supported, and exactly zero after the pulse has been emitted.
    """
    n = int(round(total / dtau)) + 1
    t = np.arange(n) * dtau
    vals = np.where(t < width, peak * np.sin(np.pi * t / width) ** 2, 0.0)
    return SampledSignal(dtau=dtau, values=tuple(float(v) for v in vals))


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


def source_increments(g, dt_g, dt: float):
    """(s_node, s_mid) of `lax_wendroff_update` for sources G and their
    rate dG/dt at the nodes, both (2, J+1) rows of the momentum and
    energy sources (the layout of each half of `wall.source_table`):
    dt G + dt^2/2 dG/dt at every node, and half of dt (G_j + G_j+1)/2 at
    the J midpoints, in columns 0..J-1 (column J is zero)."""
    g = np.asarray(g, dtype=float)
    dt_g = np.asarray(dt_g, dtype=float)
    s_mid = np.zeros_like(g)
    s_mid[:, :-1] = 0.5 * (0.5 * dt * (g[:, :-1] + g[:, 1:]))
    return dt * g + 0.5 * dt * dt * dt_g, s_mid


def interior_step(field, g, dt_g, gas: GasModel, grid, dt: float):
    """The (J+1, 3) field after one `lax_wendroff_update` of size dt under
    sources G and their rate dG/dt, (J+1, 3) arrays with a zero mass
    column, and with its boundary rows held, as the classical reference
    holds them: the update leaves those rows to the boundary update."""
    field = np.asarray(field, dtype=float)
    g = np.asarray(g, dtype=float)
    dt_g = np.asarray(dt_g, dtype=float)
    if g[:, 0].any() or dt_g[:, 0].any():
        raise ValueError("the mass equation has no source")
    cur, nxt = Level(grid.n_nodes), Level(grid.n_nodes)
    cur.w[:] = field
    primitive_arrays(cur.w, gas, cur.prim)
    lax_wendroff_update(cur, nxt, *source_increments(g[:, 1:].T,
                                                     dt_g[:, 1:].T, dt),
                        gas, grid, dt)
    new = nxt.w.copy()
    new[[0, -1]] = field[[0, -1]]
    return new


def external_sound_speed(u_e: float, gas: GasModel, node: int) -> float:
    """Sound speed c_e of the linearized external state moving at u_e."""
    c_e = gas.c0 + 0.5 * (gas.gamma - 1.0) * u_e
    if c_e <= 0.0:
        raise DuctwaveError(
            f"external sound speed must be positive: c_e={c_e:.3f}"
            f" for u_e={u_e:.3f}", node=node)
    return c_e


def foot_point(states_near_boundary: tuple, celerity_signed: float,
               dt: float, dx: float) -> tuple[float, float, float]:
    """Backward-characteristic foot state between boundary and neighbor.

    states_near_boundary is (boundary state, interior neighbor state),
    each a conserved 3-sequence of floats. Written as
    W_b + lambda*(W_n - W_b), lambda clamped to 1, so interpolating
    identical states is bitwise exact.
    """
    (b0, b1, b2), (n0, n1, n2) = states_near_boundary
    lam = min(abs(celerity_signed) * dt / dx, 1.0)
    return b0 + lam * (n0 - b0), b1 + lam * (n1 - b1), b2 + lam * (n2 - b2)


def node_state(w, gas: GasModel, node: int):
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


def composed_boundary_row(w_b, w_n, u_e: float, side: int, gas: GasModel,
                          dt: float, dx: float,
                          node: int) -> tuple[float, float, float]:
    """`boundary_row` composed of the parts above: the new conserved row
    at boundary node `node` from the level-n rows w_b of the node and w_n
    of its interior neighbour, for external velocity u_e on side -1
    (inlet) or +1 (outlet), with the same checks and messages."""
    w_b, w_n = w_b.tolist(), w_n.tolist()
    gm1 = gas.gamma - 1.0
    c_e = external_sound_speed(u_e, gas, node)
    _, u, _, c = node_state(w_b, gas, node)
    if abs(u) >= c:
        raise DuctwaveError(
            f"supersonic state: |u|={abs(u):.3f} >= c={c:.3f}", node=node)
    foot = foot_point((w_b, w_n), u + side * c, dt, dx)
    _, u_foot, _, c_foot = node_state(foot, gas, node)
    outgoing = u_foot + side * 2.0 * c_foot / gm1
    incoming = u_e - side * 2.0 * c_e / gm1
    r_plus, r_minus = (outgoing, incoming) if side > 0 else (incoming, outgoing)
    rho, u, p = primitive_from_characteristics(r_plus, r_minus, gas.s0, gas,
                                               node=node)
    return rho, rho * u, p / gm1 + 0.5 * rho * u ** 2

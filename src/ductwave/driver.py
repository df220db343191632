"""Time-loop orchestration of the coupled duct problem.

The state of a run is plain: the (J+1, 3) conserved field w and its step
index n, held by `Simulation`. The interior update takes and returns bare
arrays; the driver writes the boundary rows into the new array and
advances n by one. There is one clock: level n sits at t = n * dt
wherever a time is needed (the inflow datum, a failure's message, the
probe records, the CSVs, the samples check), and no running sum of dt is
kept to drift from it.

One step, all from level-n data: evaluate the wall sources G for every
node from the wall memory and the prefactors fixed at construction, and
form the two increments the interior update adds: dt G + dt^2/2 dG/dt =
dt (G + (G - G_prev)/2) at the nodes, with G_prev the previous step's
table (zero before the first step), and dt (G_j + G_j+1)/2 at the
midpoints. With losses off they are one read-only zero table and a view
of its rows 1..J, both held from construction. Then advance the
interior nodes with the second-order expansion, from the primitive arrays
(rho, u, p) kept from the previous step; rebuild both boundary nodes by
the one characteristic update `boundaries.boundary_row`, each checking
the node it rebuilds. The driver forms each end's external velocity u_e:
at the inlet the inflow datum at the new time level, a velocity as it
is or a total pressure pi = p0 + datum, refused unless positive, as
(pi - p0)/(rho0 c0); at the outlet 0, the rest state. Then compute the
primitive arrays of the completed field, once, check the state on them
(as for the initial field), and keep them for the probes and the next
step. With losses on their pressures are appended
to the wall memory, whose storage and per-step cost do not depend on the
step index; with losses off the wall memory keeps only the initial
level. The time step is frozen at the start of the run (the convolution
weights assume uniform dt) at cfl * dx / c0, the CFL step of the rest
state.

`Simulation` is only the stepper; `run` records the probes. It sizes one
(P, n_steps + 1, 3) float64 array for the P probe nodes before the first
step and writes each level's (rho, u, p) at those nodes into it from the
checked primitive arrays, so a stored row costs 24 bytes from the first
step. These native rows are all a run keeps of its probes: its
period-grid records hold no samples and interpolate them when read
(`analysis.PeriodGridRecord`), so a read holds only the rows it asks
for.

Runs are deterministic: identical scenarios produce bit-identical
fields, histories and probe records. An error raised inside the time loop
of `run` names the step and t/T0 it failed at, and the Courant number
max (|u| + c) dt/dx of the last good level with its node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import wall
from .analysis import (
    PeriodGridRecord,
    ProbeRecord,
    check_sampling_exponent,
    period_grid,
)
from .boundaries import boundary_row
from .errors import DuctwaveError
from .gas import GasModel, conserved_array, primitive_arrays
from .scheme import DuctGeometry, Grid, lax_wendroff_update
from .signals import SampledSignal

PRESSURE = "pressure"
VELOCITY = "velocity"

# The inlet is called by the name of its inflow kind and the outlet by its
# own, so that perfbench/spans.py can time each end by patching the name.
inflow_update_pressure = inflow_update_velocity = outflow_update = boundary_row

@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation.

    duration is given either in seconds or in fundamental periods of the
    inflow signal (exactly one of the two). cfl fixes the frozen time step
    cfl * dx / c0; the flow speed is not known before the run, so a run
    that outruns it fails and names the Courant number it reached. A
    tabulated inflow must reach the time of the last step.
    """

    gas: GasModel
    grid: Grid
    geom: DuctGeometry
    inflow_kind: str
    inflow: object
    losses: bool = True
    cfl: float = 0.8
    duration_s: float | None = None
    duration_periods: float | None = None
    probes: tuple[float, ...] = ()
    sampling_exponent: int = 10

    def __post_init__(self):
        if self.inflow_kind not in (PRESSURE, VELOCITY):
            raise ValueError(f"unknown inflow kind {self.inflow_kind!r}")
        if (self.duration_s is None) == (self.duration_periods is None):
            raise ValueError("specify exactly one of duration_s/duration_periods")
        if self.duration_s is not None and self.duration_s <= 0.0:
            raise ValueError("duration must be positive")
        if self.duration_periods is not None and self.duration_periods <= 0.0:
            raise ValueError("duration must be positive")
        for x in self.probes:
            if not (0.0 <= x <= self.grid.length):
                raise ValueError(f"probe station {x} outside the duct")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.duration_periods is not None and self.fundamental_period is None:
            raise ValueError(
                "duration_periods needs an inflow signal with a period")
        check_sampling_exponent(self.sampling_exponent)
        if isinstance(self.inflow, SampledSignal):
            n_steps = step_count(self)
            last = n_steps * frozen_dt(self)
            if last > self.inflow.duration * (1.0 + 1e-12):
                raise ValueError(
                    f"inflow samples end at t = {self.inflow.duration!r} s,"
                    f" before step {n_steps}, the last, at t = {last!r} s")

    @property
    def fundamental_period(self) -> float | None:
        return getattr(self.inflow, "period", None)

    @property
    def duration(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return self.duration_periods * self.fundamental_period


@dataclass(frozen=True)
class RunReport:
    """What a run decided and cost beyond its scenario: the frozen time
    step, the step count and the wall-clock time of the time loop."""

    dt: float
    n_steps: int
    wall_clock_s: float


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    w: np.ndarray
    history: wall.PressureHistory
    records: tuple[ProbeRecord, ...]
    resampled: tuple[PeriodGridRecord, ...]
    report: RunReport


def frozen_dt(scenario: Scenario) -> float:
    """Time step used for the whole run, cfl * dx / c0: the CFL step of
    the rest state. A run that fails names the Courant number its last
    good level measured against it."""
    return scenario.cfl * scenario.grid.dx / scenario.gas.c0


def step_count(scenario: Scenario) -> int:
    """Steps of a run: the fewest steps of frozen_dt that cover its
    duration, so the last step time n_steps * dt may pass the duration by
    up to one dt."""
    return int(math.ceil(scenario.duration / frozen_dt(scenario) - 1e-9))


def _checked_primitives(w: np.ndarray, gas: GasModel):
    """primitive_arrays(w, gas) of a field with positive density and
    pressure and finite rows, else a DuctwaveError naming the first bad
    node. A healthy field passes on three reductions; only a failing one
    builds the per-node mask, silencing the float warnings of broken
    rows."""
    rho = w[:, 0]
    if rho.min() > 0.0 and np.isfinite(w).all():
        prim = primitive_arrays(w, gas)
        if prim[2].min() > 0.0:
            return prim
    with np.errstate(all="ignore"):
        p = primitive_arrays(w, gas)[2]
        bad = ~(np.isfinite(w).all(axis=1) & (rho > 0.0) & (p > 0.0))
    raise DuctwaveError("state lost positivity", node=int(np.argmax(bad)))


class Simulation:
    """The stepper of a run. Its state is the (J+1, 3) conserved field w
    after n steps, at time n * dt; it fixes the wall-source prefactors
    for the run in its wall memory and caches, between steps, the
    primitive arrays (rho, u, p) of w and the previous source table."""

    def __init__(self, scenario: Scenario,
                 initial_field: np.ndarray | None = None):
        self.scenario = scenario
        self.dt = frozen_dt(scenario)
        gas, n_nodes = scenario.gas, scenario.grid.n_nodes
        if initial_field is None:
            self.w = np.tile(conserved_array(gas.rho0, 0.0, gas.p0, gas),
                             (n_nodes, 1))
        else:
            self.w = np.array(initial_field, dtype=float)
            if self.w.shape != (n_nodes, 3):
                raise ValueError(
                    f"initial field has shape {self.w.shape},"
                    f" the grid needs ({n_nodes}, 3)")
        self.n = 0
        self.prim = _checked_primitives(self.w, gas)
        self.history = wall.PressureHistory(
            n_nodes, *wall.source_coefficients(
                gas, scenario.geom, scenario.grid, self.dt))
        self.history.append(self.prim[2])
        self._zero = np.zeros((n_nodes, 3))
        self._zero.flags.writeable = False
        self._zero_mid = self._zero[1:]
        self._g_prev = self._zero

    def advance(self):
        """One coupled step (sources, interior, boundaries, history)."""
        sc, w, dt = self.scenario, self.w, self.dt
        gas, grid = sc.gas, sc.grid
        if sc.losses:
            g_now = wall.source_table(self.history, self.n)
            s_node = dt * (g_now + 0.5 * (g_now - self._g_prev))
            s_mid = (0.5 * dt) * (g_now[:-1] + g_now[1:])
            self._g_prev = g_now
        else:
            s_node, s_mid = self._zero, self._zero_mid
        new = lax_wendroff_update(w, s_node, s_mid, gas, grid, dt, self.prim)

        value = sc.inflow.value((self.n + 1) * dt)
        if sc.inflow_kind == PRESSURE:
            pi_val = gas.p0 + value
            if pi_val <= 0.0:
                raise DuctwaveError(
                    f"imposed pressure must be positive at boundary node 0:"
                    f" pi={pi_val:.3f} Pa")
            u_e = (pi_val - gas.p0) / (gas.rho0 * gas.c0)
            inflow = inflow_update_pressure
        else:
            u_e, inflow = value, inflow_update_velocity
        new[0] = inflow(w[0], w[1], u_e, -1, gas, dt, grid.dx, 0)
        new[-1] = outflow_update(w[-1], w[-2], 0.0, +1, gas, dt, grid.dx,
                                 grid.cells)

        # checked before it is kept: a failed step leaves the last good level
        self.prim = _checked_primitives(new, gas)
        self.w, self.n = new, self.n + 1
        if sc.losses:
            self.history.append(self.prim[2])


def run(scenario: Scenario,
        initial_field: np.ndarray | None = None) -> RunResult:
    """Run a scenario to its configured duration.

    Probe records hold every native step, as float64 rows: record i's
    data is row i of one (P, n_steps + 1, 3) array, a view. Stations
    that share a node record it once, in first-seen order. When the
    inflow has a fundamental period, RunResult.resampled reads each
    record on the tau = T0/2^N grid over the largest whole number of
    periods covered: a PeriodGridRecord, which holds no samples and
    interpolates the rows each read asks for.
    """
    started = time.perf_counter()
    sim = Simulation(scenario, initial_field=initial_field)
    n_steps = step_count(scenario)
    grid = scenario.grid
    nodes = np.array(list(dict.fromkeys(
        grid.nearest_node(x) for x in scenario.probes)), dtype=np.intp)
    rows = np.empty((nodes.size, n_steps + 1, 3))
    _record(rows, 0, sim.prim, nodes)
    try:
        for n in range(1, n_steps + 1):
            sim.advance()
            _record(rows, n, sim.prim, nodes)
    except DuctwaveError as exc:
        exc.args = (f"{exc} ({_step_context(sim)})",)
        raise
    elapsed = time.perf_counter() - started

    records = tuple(
        ProbeRecord(station_index=j, x=j * grid.dx, tau=sim.dt, data=data,
                    t_start=0.0)
        for j, data in zip(nodes.tolist(), rows))
    period = scenario.fundamental_period
    grids = () if period is None else (
        period_grid(rec, period, scenario.sampling_exponent)
        for rec in records)
    resampled = tuple(g for g in grids if g is not None)
    report = RunReport(dt=sim.dt, n_steps=n_steps, wall_clock_s=elapsed)
    return RunResult(scenario=scenario, w=sim.w, history=sim.history,
                     records=records, resampled=resampled, report=report)


def _record(rows: np.ndarray, n: int, prim, nodes: np.ndarray):
    """Write level n's (rho, u, p) at the probe nodes into rows[:, n]."""
    for col, values in enumerate(prim):
        rows[:, n, col] = values[nodes]


def _step_context(sim: Simulation) -> str:
    """'step n, t/T0 = x, Courant number C at node j' of the step sim
    failed to take ('t = x s' when the inflow has no period): C is
    max_j (|u_j| + c_j) dt/dx of sim.w, the last good level, whose
    primitive arrays sim.prim were checked positive."""
    t = (sim.n + 1) * sim.dt
    period = sim.scenario.fundamental_period
    when = f"t = {t:.6g} s" if period is None else f"t/T0 = {t / period:.3f}"
    rho, u, p = sim.prim
    speed = np.abs(u) + np.sqrt(sim.scenario.gas.gamma * p / rho)
    node = int(np.argmax(speed))
    courant = speed[node] * sim.dt / sim.scenario.grid.dx
    return (f"step {sim.n + 1}, {when},"
            f" Courant number {courant:.3f} at node {node}")


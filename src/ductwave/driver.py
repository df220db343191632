"""Time-loop orchestration of the coupled duct problem.

The state of a run is plain: the conserved field and its step index n,
held by `Simulation`. The field is one C-contiguous (3, J+1) array of
the rows rho, rho u and rho E, held in a `scheme.Level` with the rest of
that time level's storage; a step writes the next level into a second
`Level` and the two alternate. `Simulation.w` and `RunResult.w` are the
field's (J+1, 3) transposed view. The interior update writes the
interior of the new field; the driver writes its boundary columns and
advances n by one. There is one clock: level n sits at t = n * dt
wherever a time is needed (the inflow datum, a failure's message, the
probe records, the CSVs, the samples check), and no running sum of dt is
kept to drift from it.

One step, all from level-n data: read the wall sources as the rows
(dt G2, dt G3) of every node from the wall memory, whose prefactors
carry dt, into one of two table buffers that the steps alternate, and
form the two increments the interior update adds as flat operations on
those rows: dt G + dt^2/2 dG/dt = dt (G + (G - G_prev)/2) at the nodes,
with G_prev the previous step's table (zero before the first step), and
dt (G_j + G_j+1)/4, half the midpoint increment; with losses off, none.
Then advance the interior nodes with the second-order expansion, from
the primitive rows (rho, u, p) kept from the previous step; rebuild both
boundary nodes by the one characteristic update
`boundaries.boundary_row`, each checking the node it rebuilds, and write
its three floats into the node's column. The driver forms each end's
external velocity u_e: at the inlet the inflow datum at the new time
level, a velocity as it is or a total pressure pi = p0 + datum, refused
unless positive, as (pi - p0)/(rho0 c0); at the outlet 0, the rest
state. Then compute the primitive rows of the completed field, once,
check the state on them (as for the initial field), and keep them for
the probes and the next step: they are the first rows of the new level's
row buffer, whose other rows the next interior update uses. With losses
on their pressures are appended to the wall memory, whose storage and
per-step cost do not depend on the step index; with losses off the wall
memory keeps only the initial level. A step allocates no array. The time
step is frozen at the start of the run (the convolution weights assume
uniform dt) at cfl * dx / c0, the CFL step of the rest state.

`Simulation` is only the stepper; `run` records the probes. It sizes one
step-major (n_steps + 1, 3, P) float64 array for the P probe nodes before
the first step, and the method `take` (np.take dispatches once more)
writes each level's (rho, u, p) at those nodes into its (3, P) block, so
a stored row costs 24 bytes from the first step. These native rows are
all a run keeps of its probes: its period-grid records
(`analysis.PeriodGridRecord`), one for each record that spans a whole
period, derive their layout from the record, the period and the sampling
exponent, hold no samples and interpolate the rows when read, so a read
holds only the rows it asks for.

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
from .analysis import PeriodGridRecord, ProbeRecord, check_sampling_exponent
from .boundaries import boundary_row
from .errors import DuctwaveError
from .gas import GasModel, conserved_array, primitive_arrays
from .scheme import DuctGeometry, Grid, Level, lax_wendroff_update
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


_least, _greatest = np.minimum.reduce, np.maximum.reduce


def _checked_primitives(w: np.ndarray, gas: GasModel, out=None):
    """primitive_arrays(w, gas, out) of a (J+1, 3) field with positive
    density and pressure and finite entries, else a DuctwaveError naming
    the first bad node. A healthy field passes on three ufunc reductions:
    least density and greatest entry (inf or nan if one is; -inf fails a
    sign test) before any division, then least pressure. Only a failing
    one builds the per-node mask, silencing float warnings."""
    rho = w[:, 0]
    if _least(rho) > 0.0 and _greatest(w, None) < math.inf:
        prim = primitive_arrays(w, gas, out)
        if _least(prim[2]) > 0.0:
            return prim
    with np.errstate(all="ignore"):
        p = primitive_arrays(w, gas)[2]
        bad = ~(np.isfinite(w).all(axis=1) & (rho > 0.0) & (p > 0.0))
    raise DuctwaveError("state lost positivity", node=int(np.argmax(bad)))


class Simulation:
    """The stepper of a run. Its state is the conserved field after n
    steps, at time n * dt, held in one of two `scheme.Level`s that the
    steps alternate: w is its (J+1, 3) view and prim its checked
    primitive rows (rho, u, p). It fixes the wall-source prefactors,
    times dt, in its wall memory, and makes its two source tables, and
    the views a step reads of them, once per run."""

    def __init__(self, scenario: Scenario,
                 initial_field: np.ndarray | None = None):
        self.scenario = scenario
        self.dt = frozen_dt(scenario)
        gas, n_nodes = scenario.gas, scenario.grid.n_nodes
        if initial_field is None:
            field = conserved_array(gas.rho0, 0.0, gas.p0, gas)
        else:
            field = np.asarray(initial_field, dtype=float)
            if field.shape != (n_nodes, 3):
                raise ValueError(
                    f"initial field has shape {field.shape},"
                    f" the grid needs ({n_nodes}, 3)")
        self._level = Level(n_nodes)
        self._next = Level(n_nodes, self._level)
        self._level.w[:] = field
        self.w = self._level.w
        self.n = 0
        self.prim = _checked_primitives(self.w, gas, self._level.prim)
        c2, c3 = wall.source_coefficients(gas, scenario.geom, scenario.grid,
                                          self.dt)
        self.history = wall.PressureHistory(n_nodes, self.dt * c2,
                                            self.dt * c3)
        self.history.append(self._level.p)
        # per parity n % 2, made once: step n's table, the other one (zero
        # before step 0) and the two flat views the midpoint increment adds
        tables = np.zeros((2, 2, n_nodes))
        self._parity = [(t, tables[1 - i], t.ravel()[:-1], t.ravel()[1:])
                        for i, t in enumerate(tables)]
        self._s_node, self._s_mid = np.zeros((2, 2, n_nodes))
        self._mid = self._s_mid.reshape(-1)[:-1]

    def advance(self):
        """One coupled step (sources, interior, boundaries, history)."""
        sc, dt, n = self.scenario, self.dt, self.n
        gas, grid = sc.gas, sc.grid
        cur, nxt = self._level, self._next
        if sc.losses:
            g_now, g_prev, g_lo, g_hi = self._parity[n % 2]
            wall.source_table(self.history, n, g_now)
            s_node, s_mid, mid = self._s_node, self._s_mid, self._mid
            np.subtract(g_now, g_prev, s_node)
            np.multiply(s_node, 0.5, s_node)
            np.add(s_node, g_now, s_node)
            np.add(g_lo, g_hi, mid)
            np.multiply(mid, 0.25, mid)
        else:
            s_node = s_mid = None
        lax_wendroff_update(cur, nxt, s_node, s_mid, gas, grid, dt)

        value = sc.inflow.value((n + 1) * dt)
        if sc.inflow_kind == PRESSURE:
            pi_val = gas.p0 + value
            if pi_val <= 0.0:
                raise DuctwaveError(
                    f"imposed pressure must be positive: pi={pi_val:.3f} Pa",
                    node=0)
            u_e = (pi_val - gas.p0) / (gas.rho0 * gas.c0)
            inflow = inflow_update_pressure
        else:
            u_e, inflow = value, inflow_update_velocity
        # three cells cost less to write than one column from a tuple
        q = nxt.q
        q[0, 0], q[1, 0], q[2, 0] = inflow(
            cur.inlet, cur.inlet_next, u_e, -1, gas, dt, grid.dx, 0)
        q[0, -1], q[1, -1], q[2, -1] = outflow_update(
            cur.outlet, cur.outlet_prev, 0.0, +1, gas, dt, grid.dx,
            grid.cells)

        # checked before it is kept: a failed step leaves the last good
        # level, and the source table the next step differences against
        prim = _checked_primitives(nxt.w, gas, nxt.prim)
        self.w, self.prim, self.n = nxt.w, prim, n + 1
        self._level, self._next = nxt, cur
        if sc.losses:
            self.history.append(nxt.p)


def run(scenario: Scenario,
        initial_field: np.ndarray | None = None) -> RunResult:
    """Run a scenario to its configured duration.

    Probe records hold every native step, as float64 rows: record i's
    data is a view of column i of one (n_steps + 1, 3, P) array. Stations
    that share a node record it once, in first-seen order. When the
    inflow has a fundamental period, RunResult.resampled reads each
    record on the tau = T0/2^N grid over the largest whole number of
    periods covered: a PeriodGridRecord, which derives that layout
    itself, holds no samples and interpolates the rows each read asks
    for. A run shorter than one period has none.
    """
    started = time.perf_counter()
    sim = Simulation(scenario, initial_field=initial_field)
    n_steps = step_count(scenario)
    grid = scenario.grid
    nodes = np.array(list(dict.fromkeys(
        grid.nearest_node(x) for x in scenario.probes)), dtype=np.intp)
    rows = np.empty((n_steps + 1, 3, nodes.size))
    sim.prim.take(nodes, 1, rows[0])
    try:
        for n in range(1, n_steps + 1):
            sim.advance()
            sim.prim.take(nodes, 1, rows[n])
    except DuctwaveError as exc:
        exc.args = (f"{exc} ({_step_context(sim)})",)
        raise
    elapsed = time.perf_counter() - started

    records = tuple(
        ProbeRecord(station_index=j, x=j * grid.dx, tau=sim.dt, data=data,
                    t_start=0.0)
        for j, data in zip(nodes.tolist(), rows.transpose(2, 0, 1)))
    period = scenario.fundamental_period
    grids = () if period is None else (
        PeriodGridRecord(rec, period, scenario.sampling_exponent)
        for rec in records)
    resampled = tuple(g for g in grids if g.n_periods >= 1)
    report = RunReport(dt=sim.dt, n_steps=n_steps, wall_clock_s=elapsed)
    return RunResult(scenario=scenario, w=sim.w, history=sim.history,
                     records=records, resampled=resampled, report=report)


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


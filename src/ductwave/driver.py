"""Time-loop orchestration of the coupled duct problem.

One step, all from level-n data: evaluate the wall sources G for every
node from the wall memory of the pressure history, and their rate
against the previous step's table (zero before the first step; with
losses off both are one shared read-only zero table); advance the
interior nodes with the second-order expansion, from the primitive arrays
(rho, u, p) kept from the previous step; rebuild both boundary nodes from
their characteristic relations with the inflow datum taken at the new
time level, each checking the node it rebuilds; then compute the
primitive arrays of the completed field, once, check the state on them
(as for the initial field), and keep them for the probes and the next
step. With losses on their pressures are appended
to the wall memory, whose storage and per-step cost do not depend on the
step index; with losses off the wall memory keeps only the initial
level. The time step is frozen at the start of the run (the convolution
weights assume uniform dt), set by the CFL rule on the initial rest
field.

Runs are deterministic: identical scenarios produce bit-identical
states, histories and probe records. An error raised inside the time loop
of `run` names the step and t/T0 it failed at.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import wall
from .analysis import ProbeRecord
from .boundaries import inflow_update_pressure, inflow_update_velocity, outflow_update
from .errors import BlowUpError, DuctwaveError
from .gas import GasModel, primitive_arrays
from .scheme import (
    DuctGeometry,
    FieldState,
    Grid,
    compute_dt,
    lax_wendroff_update,
    uniform_field,
)
from .wall import PressureHistory

PRESSURE = "pressure"
VELOCITY = "velocity"


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation.

    duration is given either in seconds or in fundamental periods of the
    inflow signal (exactly one of the two).
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
    kernel_mode: str = wall.CONSISTENT

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
        if self.kernel_mode not in (wall.CONSISTENT, wall.AS_PRINTED):
            raise ValueError(f"unknown kernel mode {self.kernel_mode!r}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.duration_periods is not None and self.fundamental_period is None:
            raise ValueError(
                "duration_periods needs an inflow signal with a period")

    @property
    def fundamental_period(self) -> float | None:
        return getattr(self.inflow, "period", None)

    @property
    def duration(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return self.duration_periods * self.fundamental_period

    def velocity_bound(self) -> float:
        """Conservative bound on the boundary velocity amplitude [m/s]."""
        peak = self.inflow.peak()
        if self.inflow_kind == PRESSURE:
            return peak / (self.gas.rho0 * self.gas.c0)
        return peak


@dataclass(frozen=True)
class RunReport:
    """Run metadata: discretization, cost, and kernel settings."""

    dt: float
    n_steps: int
    dx: float
    cells: int
    length: float
    cfl: float
    losses: bool
    kernel_mode: str
    wall_clock_s: float


@dataclass(frozen=True)
class RunResult:
    scenario: Scenario
    state: FieldState
    history: PressureHistory
    records: tuple[ProbeRecord, ...]
    resampled: tuple[ProbeRecord, ...]
    report: RunReport


def frozen_dt(scenario: Scenario) -> float:
    """Time step used for the whole run: CFL rule on the initial rest field."""
    rest = uniform_field(scenario.grid, scenario.gas,
                         scenario.gas.rho0, 0.0, scenario.gas.p0)
    dt = compute_dt(rest, scenario.grid, scenario.gas, scenario.cfl)
    gas = scenario.gas
    stretch = 1.0 + 0.5 * (gas.gamma + 1.0) * scenario.velocity_bound() / gas.c0
    if scenario.cfl * stretch > 1.0:
        warnings.warn(
            f"effective Courant number may reach {scenario.cfl * stretch:.3f}"
            " at the signal peak; reduce cfl",
            stacklevel=2,
        )
    return dt


def _source_tables(history: PressureHistory, n: int, scenario: Scenario,
                   dt: float, g_prev: np.ndarray, zero: np.ndarray):
    """G and dG/dt for all nodes at step n (zeros with losses off).

    g_prev is the table of step n-1; at the first step it is zero, as the
    table of step 0 itself is. zero is a read-only (J+1, 3) zero table,
    passed as that first g_prev and returned in place of every table that
    is identically zero.
    """
    if not scenario.losses:
        return zero, zero
    g_now = wall.source_table(history, n, scenario.gas, scenario.grid,
                              scenario.geom, scenario.kernel_mode)
    return g_now, (g_now - g_prev) / dt


def _checked_primitives(w: np.ndarray, gas: GasModel):
    """primitive_arrays(w, gas) of a field with positive density and
    pressure and finite rows, else BlowUpError naming the first bad node.
    A healthy field passes on three reductions; only a failing one builds
    the per-node mask, silencing the float warnings of broken rows."""
    rho = w[:, 0]
    if rho.min() > 0.0 and np.isfinite(w).all():
        prim = primitive_arrays(w, gas)
        if prim[2].min() > 0.0:
            return prim
    with np.errstate(all="ignore"):
        p = primitive_arrays(w, gas)[2]
        bad = ~(np.isfinite(w).all(axis=1) & (rho > 0.0) & (p > 0.0))
    raise BlowUpError("state lost positivity", node=int(np.argmax(bad)))


class Simulation:
    """Stateful runner that caches, between steps, the primitive arrays
    (rho, u, p) of its current state and the previous source table."""

    def __init__(self, scenario: Scenario,
                 initial_field: FieldState | None = None):
        self.scenario = scenario
        self.dt = frozen_dt(scenario)
        gas = scenario.gas
        if initial_field is None:
            initial_field = uniform_field(scenario.grid, gas, gas.rho0, 0.0,
                                          gas.p0)
        elif initial_field.w.shape != (scenario.grid.n_nodes, 3):
            raise ValueError("initial field does not match the grid")
        self.state = initial_field.copy()
        self.prim = _checked_primitives(self.state.w, gas)
        self.history = PressureHistory(n_nodes=scenario.grid.n_nodes,
                                       dt=self.dt)
        self.history.append(self.prim[2])
        self._zero = np.zeros((scenario.grid.n_nodes, 3))
        self._zero.flags.writeable = False
        self._g_prev = self._zero
        self._probe_nodes = tuple(
            scenario.grid.nearest_node(x) for x in scenario.probes
        )
        self._probe_rows = [[] for _ in self._probe_nodes]
        self._record_probes()

    def _record_probes(self):
        """Probe rows of the current state, from its primitive arrays."""
        rho, u, p = self.prim
        for rows, j in zip(self._probe_rows, self._probe_nodes):
            rows.append((rho[j], u[j], p[j]))

    def advance(self):
        """One coupled step (sources, interior, boundaries, history, probes)."""
        sc, state, dt = self.scenario, self.state, self.dt
        gas, grid = sc.gas, sc.grid
        g_now, dt_g = _source_tables(self.history, state.n, sc, dt,
                                     self._g_prev, self._zero)
        self._g_prev = g_now
        new = lax_wendroff_update(state, g_now, dt_g, gas, grid, dt,
                                  self.prim)

        value = sc.inflow.value(state.t + dt)
        if sc.inflow_kind == PRESSURE:
            w0 = inflow_update_pressure(gas.p0 + value, state.w[0],
                                        state.w[1], gas, dt, grid.dx)
        else:
            w0 = inflow_update_velocity(value, state.w[0], state.w[1],
                                        gas, dt, grid.dx)
        w_out = outflow_update(state.w[-2], state.w[-1], gas, dt, grid.dx,
                               node=grid.cells)
        new.w[0] = w0
        new.w[-1] = w_out

        # checked before it is kept: a failed step leaves the last good level
        self.prim = _checked_primitives(new.w, gas)
        self.state = new
        if sc.losses:
            self.history.append(self.prim[2])
        self._record_probes()

    def native_records(self) -> tuple[ProbeRecord, ...]:
        dx = self.scenario.grid.dx
        return tuple(
            ProbeRecord(station_index=j, x=j * dx, tau=self.dt,
                        data=np.asarray(rows), t_start=0.0)
            for rows, j in zip(self._probe_rows, self._probe_nodes)
        )


def run(scenario: Scenario,
        initial_field: FieldState | None = None) -> RunResult:
    """Run a scenario to its configured duration.

    Probe records are stored at every native step; when the inflow has a
    fundamental period they are additionally interpolated onto the
    tau = T0/2^N grid over the largest whole number of periods covered.
    """
    started = time.perf_counter()
    sim = Simulation(scenario, initial_field=initial_field)
    n_steps = int(math.ceil(scenario.duration / sim.dt - 1e-9))
    try:
        for _ in range(n_steps):
            sim.advance()
    except DuctwaveError as exc:
        exc.args = (f"{exc} ({_step_context(sim)})",)
        raise
    elapsed = time.perf_counter() - started

    records = sim.native_records()
    resampled = tuple(
        r for r in (_resample_on_period_grid(rec, scenario) for rec in records)
        if r is not None
    )
    report = RunReport(
        dt=sim.dt, n_steps=n_steps, dx=scenario.grid.dx,
        cells=scenario.grid.cells, length=scenario.grid.length,
        cfl=scenario.cfl, losses=scenario.losses,
        kernel_mode=scenario.kernel_mode, wall_clock_s=elapsed,
    )
    return RunResult(scenario=scenario, state=sim.state, history=sim.history,
                     records=records, resampled=resampled, report=report)


def _step_context(sim: Simulation) -> str:
    """'step n, t/T0 = x' of the step sim failed to take ('t = x s' when
    the inflow has no period); sim.state is still the last good level."""
    t = sim.state.t + sim.dt
    period = sim.scenario.fundamental_period
    when = f"t = {t:.6g} s" if period is None else f"t/T0 = {t / period:.3f}"
    return f"step {sim.state.n + 1}, {when}"


def _resample_on_period_grid(record: ProbeRecord,
                             scenario: Scenario) -> ProbeRecord | None:
    period = scenario.fundamental_period
    if period is None:
        return None
    tau = period / 2 ** scenario.sampling_exponent
    span = (record.n_samples - 1) * record.tau
    n_periods = int(math.floor(span / period + 1e-9))
    if n_periods < 1:
        return None
    t_new = np.arange(n_periods * 2 ** scenario.sampling_exponent + 1) * tau
    t_old = record.times - record.t_start
    data = np.column_stack([
        np.interp(t_new, t_old, record.data[:, i]) for i in range(3)
    ])
    return ProbeRecord(station_index=record.station_index, x=record.x,
                       tau=tau, data=data, t_start=record.t_start)

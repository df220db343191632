"""The names the benchmark's tracer (perfbench/spans.py) patches.

The tracer times each layer by replacing a function at the name its
caller looks it up by. A renamed or merged function would leave a seam
unpatched, or fail the install; these tests run the tracer on short runs.
"""

import importlib
import sys
from pathlib import Path

import pytest

from ductwave import analysis, cli, driver, wall
from ductwave.boundaries import boundary_row
from ductwave.driver import PRESSURE, VELOCITY, Scenario
from ductwave.scheme import DuctGeometry, Grid
from ductwave.signals import MultiHarmonicSignal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BOUNDARY_NAMES = ("inflow_update_pressure", "inflow_update_velocity",
                  "outflow_update")


@pytest.fixture
def spans(monkeypatch):
    # import the tracer without leaving bytecode in the benchmark's tree
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("spans")
    monkeypatch.setitem(sys.modules, "spans", module)
    return module


def test_install_and_uninstall_restore_every_name(spans):
    owners = (driver, driver.Simulation, wall, wall.PressureHistory,
              analysis, cli)
    before = [dict(vars(owner)) for owner in owners]
    assert all(getattr(driver, name) is boundary_row
               for name in BOUNDARY_NAMES)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(getattr(driver, name) is not boundary_row
                   for name in BOUNDARY_NAMES)
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[key] is value for key, value in names.items())


@pytest.mark.parametrize("kind, amplitude", [(PRESSURE, 80.0),
                                             (VELOCITY, 0.05)])
def test_each_step_times_each_end_once(spans, air, kind, amplitude):
    grid = Grid(length=0.1, cells=4)
    dt = 0.8 * grid.dx / air.c0
    sc = Scenario(gas=air, grid=grid,
                  geom=DuctGeometry(h=0.005, symmetry="axisymmetric"),
                  inflow_kind=kind,
                  inflow=MultiHarmonicSignal(1000.0, ((1, amplitude, 0.0),)),
                  cfl=0.8, duration_s=2.5 * dt)
    tracer = spans.Tracer()
    try:
        tracer.install()
        result = driver.run(sc)
    finally:
        tracer.uninstall()
    assert result.report.n_steps == 3
    names = [span[0] for span in tracer.spans]
    assert names.count("driver.advance") == 3
    for end in ("boundaries.inflow", "boundaries.outflow"):
        parents = [tracer.spans[span[3]][0] for span in tracer.spans
                   if span[0] == end]
        assert parents == ["driver.advance"] * 3

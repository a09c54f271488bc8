"""The benchmark's tracing wraps library entry points by name.

A renamed or removed entry point (say `beam.solve_amplitudes` or
`FermiChart.forward`) makes `perfbench/tracing.install` fail, and a hook
that reads its arguments by position breaks when a signature changes; these
tests make both a test failure instead of a benchmark failure.
"""

import importlib.util
from pathlib import Path

import numpy as np

from diamondwave import beam, fermi, solver
from diamondwave import geometry as geo

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_installs_and_restores_every_hook():
    tracing = load_tracing()
    originals = (beam.solve_amplitudes, fermi.FermiChart.forward)
    metric = geo.minkowski(2)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, metric)
        assert beam.solve_amplitudes is not originals[0]
    finally:
        tracer.restore()
    assert tracer.check_restored() == []
    assert (beam.solve_amplitudes, fermi.FermiChart.forward) == originals
    assert "christoffel" not in vars(metric)


def test_traced_march_reads_grid_and_source_by_position():
    # the march hook reads the grid and the source as args[1] and args[3]
    # of solve_forward(metric, grid, V, f)
    tracing = load_tracing()
    metric = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 0.2, 0.2, h=0.05, dt=0.02)
    f = solver.SourceTerm.from_closure(
        grid, lambda t, pts: np.exp(-pts[..., 1] ** 2 / 0.01))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, metric)
        _, root = tracer.op(solver.solve_forward, metric, grid, None, f)
        counts = tracer.summary(root)["counts"]
    finally:
        tracer.restore()
    assert counts["solver.marches"] == 1
    assert counts["solver.steps"] == grid.nt - 1

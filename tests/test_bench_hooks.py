"""The benchmark's workloads call the library, and its tracing wraps
library entry points by name.

A renamed or removed entry point (say `beam.solve_amplitudes` or
`FermiChart.forward`) makes `perfbench/tracing.install` fail, a hook that
reads its arguments by position breaks when a signature changes, and a
workload breaks when a parameter it passes is removed; these tests make
each a test failure instead of a benchmark failure.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from diamondwave import beam, fermi, recovery, solver, sources
from diamondwave import geometry as geo

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_calls_bind_to_library_signatures():
    # every library call of perfbench/workloads.py, with its keywords, bound
    # against the current signatures; binding runs nothing
    wl = load_perfbench("workloads")
    built = {name: cls(0) for name, cls in wl.WORKLOADS.items()}
    assert set(built) == {"fast_recovery", "full_route", "curved_beam"}
    metric, V, p = geo.minkowski(2), built["fast_recovery"].V, np.zeros(3)
    calls = [
        (recovery.full_path_interaction, (metric, None),
         dict(tau=wl.FULL_ROUTE_TAU, check=True, **wl.FULL_ROUTE_ARGS)),
        (recovery.recover_point, (metric, None, p, wl.R, wl.T), {}),
        (recovery.recover_region, (metric, V, [p], wl.R, wl.T),
         dict(V_true=V)),
        (recovery.PacketQuad, (p, 1.0, p[1:], 0.1), dict(V=V)),
        (recovery.PacketQuad.target_line_integral, (None, V), {}),
        (sources.find_returning_geodesics, (metric, p, wl.R, wl.T), {}),
        (geo.SplitMetric, (2,), dict(beta=None, gmat=None)),
        (geo.integrate_null_geodesic, (metric, p, p, (0.0, 1.5)),
         dict(steps_per_unit=400)),
        (fermi.FermiChart, (None,), {}),
        (beam.make_beam, (None,), dict(V=V, N=4)),
        (beam.beam_residual_scaling, (None, V, wl.BEAM_TAUS), {}),
    ]
    for func, args, kwargs in calls:
        inspect.signature(func).bind(*args, **kwargs)


def test_tracing_installs_and_restores_every_hook():
    tracing = load_perfbench("tracing")
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
    tracing = load_perfbench("tracing")
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


def test_traced_frame_books_christoffel_calls_and_points():
    # build_frame evaluates the Christoffel form once over the RK4 stage
    # parameters and once over the geodesic samples; the hook on the
    # metric instance counts both calls and all their points
    tracing = load_perfbench("tracing")
    metric = geo.SplitMetric(
        2, beta=lambda x: 1 + 0.05 * np.sin(np.asarray(x)[..., 1]),
        gmat=lambda x: np.broadcast_to(np.eye(2),
                                       np.shape(x)[:-1] + (2, 2)))
    g = geo.integrate_null_geodesic(metric, np.zeros(3),
                                    np.array([1.0, 1.0, 0.0]), (0.0, 0.5))
    stages = geo._rk4_stages(g.s, 0)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, metric)
        _, root = tracer.op(fermi.build_frame, g)
        counts = tracer.summary(root)["counts"]
    finally:
        tracer.restore()
    assert tracer.check_restored() == []
    assert "christoffel" not in vars(metric)
    assert counts["geometry.christoffel_calls"] == 2
    assert counts["geometry.christoffel_points"] == (len(stages.params)
                                                    + len(g.s))


def test_traced_surgery_books_one_wave_operator_span():
    # the wave operator is wrapped under the name surgery calls it by and
    # under its home module's; one surgery books one span, and restore puts
    # both names back
    tracing = load_perfbench("tracing")
    metric = geo.minkowski(1)
    grid = solver.Grid.for_ball(1, 1.0, 1.0, h=0.01, dt=0.005, pad=0.3)
    packet = recovery.LinePacket(np.array([0.5, 0.0]),
                                 np.array([-1.0, 1.0]), 0.2)
    originals = (sources.apply_wave_operator, solver.apply_wave_operator)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, metric)
        assert sources.apply_wave_operator is not originals[0]
        assert solver.apply_wave_operator is not originals[1]
        _, root = tracer.op(sources.make_source, packet, metric, grid, 30.0,
                            r=1.0)
        names = [s.name for s in tracer.spans[root.sid + 1:]]
        counts = tracer.summary(root)["counts"]
    finally:
        tracer.restore()
    assert names.count("sources.wave_operator") == 1
    assert counts["sources.surgery_calls"] == 1
    assert tracer.check_restored() == []
    assert (sources.apply_wave_operator, solver.apply_wave_operator) \
        == originals

"""The benchmark's tracing wraps library entry points by name.

A renamed or removed entry point (say `beam.solve_amplitudes` or
`FermiChart.forward`) makes `perfbench/tracing.install` fail; this test
makes that a test failure instead of a benchmark failure.
"""

import importlib.util
from pathlib import Path

from diamondwave import beam, fermi
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

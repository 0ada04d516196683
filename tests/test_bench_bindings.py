"""The package names the benchmark binds, checked by the tier-1 suite.

``perfbench/spans.py`` wraps every function it lists by name, and each
system's ``analysis`` and ``synthesis`` attributes; ``perfbench/baseline.py``
times ``cv_tomo.displaced_parity`` and ``perfbench/workloads.py`` reads
``Operator.trace``. A name deleted from the package fails here, and not only
in the benchmark's smoke run. The tracer is loaded from its file, unedited.
"""

import importlib.util
import pathlib
import sys

import numpy as np

import coorbit.cli  # noqa: F401  (loaded before the snapshot: the tracer patches it too)
from coorbit import cv_tomo, frame_core, opalg

SPANS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_bound_name_and_restores_it():
    spans = load_spans()
    system = cv_tomo.homodyne_system(cv_tomo.FockSpace(3), cv_tomo.PolarGrid(2.0, 2, 2))
    r, ph = node = system.grid.nodes[1]
    want = cv_tomo.displacement_cv(cv_tomo.FockSpace(3), r * np.exp(1j * ph)).entries
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "coorbit"]
    owners = modules + [frame_core.IndexGrid, frame_core.TomographicSystem, opalg.Operator, system]
    before = [(owner, dict(vars(owner))) for owner in owners]
    tracer = spans.Tracer()
    tracer.install(systems=[system])
    try:
        for module, name in spans.SPANS:
            assert hasattr(getattr(sys.modules[f"coorbit.{module}"], name), "__wrapped__"), name
        tracer.op = 0
        assert np.abs(system.analysis(node).entries - want).max() < 1e-12
        assert tracer.counts[spans.FAMILY_COUNT] == 1
    finally:
        tracer.uninstall()
    assert not tracer.installed
    for owner, attributes in before:
        assert vars(owner).keys() == attributes.keys(), owner
        assert all(vars(owner)[name] is value for name, value in attributes.items()), owner


def test_names_the_benchmark_calls_outside_the_tracer():
    assert callable(cv_tomo.displaced_parity)
    assert opalg.Operator(np.eye(2)).trace() == 2

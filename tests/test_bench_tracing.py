"""The module-level names the traced benchmark wraps still exist."""

import importlib.util
from pathlib import Path

import qreduce.dynamics as dynamics

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_can_be_wrapped(tmp_path):
    tracing = load_tracing()
    original = dynamics.step_normals
    tracer = tracing.Tracer(tmp_path)
    try:
        # raises AttributeError if a wrapped name, such as
        # dynamics.eigensystem or ensemble.run_reduction_batch, is gone
        tracing.install(tracer)
        assert dynamics.step_normals is not original
    finally:
        tracer.uninstall()
    assert dynamics.step_normals is original

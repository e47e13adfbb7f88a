"""The module-level names the traced benchmark wraps still exist."""

import importlib.util
from pathlib import Path

import qreduce.dynamics as dynamics
from qreduce import FilterCoupling, SdeConfig, build_epr_hamiltonian, singlet_state

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


def test_every_record_passes_through_the_traced_layers(tmp_path):
    # A simulate path that built its records or drew its noise without the
    # module-level names would read 0 in the traced benchmark.
    tracing = load_tracing()
    H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
    cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.1, seed=20240, record_stride=1)
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        records, outcome = dynamics.simulate_trajectory(H, singlet_state(), cfg, 3)
    finally:
        tracer.uninstall()
    assert cfg.n_steps == 50 and not outcome.collapsed
    names = [span[tracing.NAME] for span in tracer.collect()]
    assert len(records) == 51
    assert names.count("hilbert.ray") == len(records)
    assert names.count("geometry.quadric_residual") == len(records)
    assert names.count("dynamics.step_normals") == cfg.n_steps
    assert names.count("dynamics.simulate") == 1

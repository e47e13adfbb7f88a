"""The module-level names the traced benchmark wraps still exist."""

import importlib.util
import math
from pathlib import Path

import qreduce.dynamics as dynamics
import qreduce.ensemble as ensemble
from qreduce import (EnsembleConfig, FilterCoupling, SdeConfig, build_epr_hamiltonian,
                     singlet_state)

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
    # A simulate path that drew its noise or built its quadric residuals
    # without the module-level names would read 0 in the traced benchmark.
    # A block's columns are derived when its records are read, so the trace
    # writer makes one quadric_residual call per block, and a record's ray
    # is read from its block's columns (hilbert.canonical_ray), never built
    # through dynamics.Ray.
    import qreduce.cli as cli

    tracing = load_tracing()
    H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
    cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.6, seed=20240, record_stride=1)
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        records, outcome = dynamics.simulate_trajectory(H, singlet_state(), cfg, 3)
        cli.write_trajectory(str(tmp_path / "trace.csv"), records, H.dim, "csv", {})
    finally:
        tracer.uninstall()
    assert cfg.n_steps == 300 and not outcome.collapsed
    spans = tracer.collect()
    names = [span[tracing.NAME] for span in spans]
    assert len(records) == 301
    assert names.count("hilbert.ray") == 0
    (write,) = [span[tracing.ID] for span in spans if span[tracing.NAME] == "cli.write"]
    residuals = [span for span in spans if span[tracing.NAME] == "geometry.quadric_residual"]
    assert len(residuals) == math.ceil(301 / dynamics._RECORD_BLOCK) > 1
    assert all(span[tracing.PARENT] == write for span in residuals)
    assert names.count("dynamics.step_normals") == cfg.n_steps
    assert names.count("dynamics.simulate") == 1
    metrics, problems = tracing.layer_metrics(spans, 0.0)
    assert problems == []
    assert metrics["dynamics.simulate.steps"] == cfg.n_steps


def test_batch_draws_match_the_traced_noise_model(tmp_path):
    # bench/tracing.py recomputes every step_normals call and count of a
    # batch from its hit_step; an engine that draws differently reports a
    # problem here instead of only in a traced benchmark run.
    tracing = load_tracing()
    cfg = EnsembleConfig(
        n_traj=40,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=40.0, seed=20240),
        hamiltonian=build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)),
        initial_state=singlet_state(),
        checkpoints=(0.0, 40.0),
    )
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        ensemble.run_ensemble(cfg, n_workers=1)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    metrics, problems = tracing.layer_metrics(spans, 0.0)
    assert problems == []
    (batch,) = [s[tracing.VALUE] for s in spans if s[tracing.NAME] == "dynamics.batch"]
    # the highest index retires before the end, so the draws narrow mid-run
    assert 0 < batch["hit_step"][-1] < max(batch["hit_step"])
    assert metrics["dynamics.step_normals.normals_drawn"] < 40 * cfg.base.n_steps


def test_a_skipping_trajectory_draws_once_per_step_through_the_traced_name(tmp_path):
    # Index 2047 skips 2047 normals of its group at every step, so the loop
    # outruns its read-ahead companion and draws rows of the ring itself;
    # those draws must not pass through the traced step_normals, which the
    # noise model expects once per step with one entry.
    tracing = load_tracing()
    H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
    cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.6, seed=20240, record_stride=1)
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        index = dynamics.NOISE_GROUP - 1
        _, outcome = dynamics.simulate_trajectory(H, singlet_state(), cfg, index)
    finally:
        tracer.uninstall()
    assert not outcome.collapsed
    spans = tracer.collect()
    metrics, problems = tracing.layer_metrics(spans, 0.0)
    assert problems == []
    drawn = [s[tracing.VALUE] for s in spans if s[tracing.NAME] == "dynamics.step_normals"]
    assert drawn == [1] * cfg.n_steps
    assert metrics["dynamics.simulate.steps"] == cfg.n_steps


def test_a_traced_run_reaches_the_process_pool(tmp_path):
    # The pool pickles ensemble._run_block by name; the traced
    # run_reduction_batch it calls is a closure, which would not pickle.
    # No assertion on layer_metrics' problems: its noise model counts a
    # block at lo > 0 from index 0.
    tracing = load_tracing()
    cfg = EnsembleConfig(
        n_traj=2 * dynamics.NOISE_GROUP + 5,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=0.1, seed=20240),
        hamiltonian=build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)),
        initial_state=singlet_state(),
        checkpoints=(0.0, 0.1),
    )
    tracer = tracing.Tracer(tmp_path)
    try:
        tracing.install(tracer)
        report = ensemble.run_ensemble(cfg, n_workers=2)
    finally:
        tracer.uninstall()
    batches = [s[tracing.VALUE] for s in tracer.collect() if s[tracing.NAME] == "dynamics.batch"]
    assert sorted((b["lo"], b["hi"]) for b in batches) == [
        (0, dynamics.NOISE_GROUP), (dynamics.NOISE_GROUP, cfg.n_traj)]
    assert report.uncollapsed_count == cfg.n_traj

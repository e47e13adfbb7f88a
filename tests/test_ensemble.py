"""Ensemble harness: Born counts, martingale/decay verdicts, determinism."""

import concurrent.futures
import copy
import json
import math
import os
import pickle
import subprocess
import sys
import warnings
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import qreduce

from qreduce import (
    EnsembleConfig,
    EnsembleFailureError,
    FilterOrientation,
    Observable,
    SdeConfig,
    ValidationError,
    born_expected,
    born_frequency_test,
    build_epr_hamiltonian,
    independence_test,
    FilterCoupling,
    martingale_test,
    run_ensemble,
    simulate_trajectory,
    singlet_state,
    variance,
    variance_decay_test,
)
import qreduce.dynamics as dynamics
import qreduce.ensemble as ensemble
import qreduce.hilbert as hilbert
from qreduce.dynamics import block_bounds
from qreduce.ensemble import EnsembleReport, SeriesPoint, _chi_square, chi2_sf

TWO_LEVEL = Observable(np.diag([0.0, 1.0]))


@pytest.fixture
def inline_pool(monkeypatch):
    """The max_workers of each process pool run_ensemble opens, which runs in-process."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, item):
            future = Future()
            future.set_result(fn(item))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


SINGLET_H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))


def singlet_config(n_traj, seed, t_max=120.0, checkpoints=(0.0, 5.0, 20.0, 60.0, 120.0)):
    return EnsembleConfig(
        n_traj=n_traj,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=t_max, seed=seed),
        hamiltonian=SINGLET_H,
        initial_state=singlet_state(),
        checkpoints=checkpoints,
    )


class TestBornExpected:
    def test_eigenvector(self):
        probs = born_expected(TWO_LEVEL, [0.0, 1.0])
        assert probs == {0: pytest.approx(0.0, abs=1e-15), 1: pytest.approx(1.0)}

    def test_amplitude_squares(self):
        probs = born_expected(TWO_LEVEL, [np.sqrt(0.3), np.sqrt(0.7)])
        assert probs[0] == pytest.approx(0.3, abs=1e-12)
        assert probs[1] == pytest.approx(0.7, abs=1e-12)

    def test_singlet_under_split_filter(self):
        probs = born_expected(SINGLET_H, singlet_state())
        # eigenspaces ascending: 0 (up-up), 1 (down-down), 2 (up-down), 3 (down-up)
        assert probs[0] == pytest.approx(0.0, abs=1e-15)
        assert probs[1] == pytest.approx(0.0, abs=1e-15)
        assert probs[2] == pytest.approx(0.5, abs=1e-12)
        assert probs[3] == pytest.approx(0.5, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(127)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        H = Observable((a + a.conj().T) / 2)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert sum(born_expected(H, z).values()) == pytest.approx(1.0, abs=1e-12)


class TestEnsembleConfig:
    def test_checkpoint_validation(self):
        base = SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0)
        with pytest.raises(ValidationError):
            EnsembleConfig(5, base, TWO_LEVEL, [1, 1], checkpoints=(0.5, 0.1))
        with pytest.raises(ValidationError):
            EnsembleConfig(5, base, TWO_LEVEL, [1, 1], checkpoints=(0.0, 2.0))
        # a bool is not a count, although isinstance(True, int) holds
        for n_traj in (0, True):
            with pytest.raises(ValidationError, match="^n_traj"):
                EnsembleConfig(n_traj, base, TWO_LEVEL, [1, 1], checkpoints=(0.0,))
        # NaN compares false, so only the range test stops it before round()
        for cps in ((0.0, np.nan), (np.nan,)):
            with pytest.raises(ValidationError, match="^checkpoints"):
                EnsembleConfig(5, base, TWO_LEVEL, [1, 1], checkpoints=cps)
        # Times on one step: at dt = 1e-3, t = 0.0005 rounds to step 0.
        for cps in ((0.0, 0.0005, 1.0), (0.5, 0.5)):
            with pytest.raises(ValidationError, match="distinct steps"):
                EnsembleConfig(5, base, TWO_LEVEL, [1, 1], checkpoints=cps)

    def test_dimension_mismatch(self):
        base = SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0)
        with pytest.raises(ValidationError):
            EnsembleConfig(5, base, TWO_LEVEL, [1, 0, 0], checkpoints=(0.0,))

    @pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                           lambda c: pickle.loads(pickle.dumps(c))])
    def test_copies_and_pickles_bit_for_bit(self, roundtrip):
        cfg = singlet_config(10, seed=3)
        out = roundtrip(cfg)
        assert out.hamiltonian.matrix.tobytes() == cfg.hamiltonian.matrix.tobytes()
        assert out.initial_state.amplitudes.tobytes() == cfg.initial_state.amplitudes.tobytes()
        assert (out.n_traj, out.base, out.checkpoints, out.steps) == \
            (cfg.n_traj, cfg.base, cfg.checkpoints, cfg.steps)


class TestRunEnsemble:
    def test_single_eigenvector_trajectory(self):
        cfg = EnsembleConfig(
            n_traj=1,
            base=SdeConfig(sigma=1.0, dt=1e-3, t_max=0.5, seed=4),
            hamiltonian=TWO_LEVEL,
            initial_state=[0.0, 1.0],
            checkpoints=(0.0, 0.25, 0.5),
        )
        report = run_ensemble(cfg)
        assert report.outcome_counts == {0: 0, 1: 1}
        assert report.uncollapsed_count == 0
        assert all(pt.mean == 0.0 for pt in report.variance_mean_series)

    def test_counts_conservation_with_truncated_horizon(self):
        # Short horizon leaves a sizable uncollapsed remainder.
        cfg = singlet_config(200, seed=6, t_max=5.0, checkpoints=(0.0, 5.0))
        report = run_ensemble(cfg)
        total = sum(report.outcome_counts.values())
        assert total + report.uncollapsed_count + len(report.failed_indices) == 200
        assert report.uncollapsed_count > 0

    def test_born_frequencies_and_verdicts(self):
        report = run_ensemble(singlet_config(600, seed=8))
        counts = report.outcome_counts
        n_coll = sum(counts.values())
        assert counts[0] == 0 and counts[1] == 0
        for k in (2, 3):
            assert abs(counts[k] / n_coll - 0.5) < 3.0 * np.sqrt(0.25 / n_coll)
        assert martingale_test(report).passed
        assert variance_decay_test(report).passed
        assert born_frequency_test(report).passed

    def test_bit_identical_repeat_and_worker_invariance(self):
        cfg = singlet_config(120, seed=12, t_max=30.0, checkpoints=(0.0, 10.0, 30.0))
        a = run_ensemble(cfg).to_json_dict()
        b = run_ensemble(cfg).to_json_dict()
        c = run_ensemble(cfg, n_workers=2).to_json_dict()
        d = run_ensemble(cfg, n_workers=5).to_json_dict()
        assert a == b == c == d

    # three noise groups, so up to three blocks
    POOL_CFG = EnsembleConfig(
        n_traj=2 * dynamics.NOISE_GROUP + 5,
        base=SdeConfig(sigma=1.0, dt=1e-3, t_max=0.5, seed=4),
        hamiltonian=TWO_LEVEL,
        initial_state=[1.0, 1.0],
        checkpoints=(0.0, 0.5),
    )

    def test_pool_sized_by_blocks(self, inline_pool, monkeypatch):
        single = run_ensemble(self.POOL_CFG).to_json_dict()
        # one process per block, but no more than there are usable CPUs
        for cpus, expected in ((64, 3), (2, 2), (1, 1)):
            monkeypatch.setattr(ensemble, "_usable_cpus", lambda: cpus)
            inline_pool.clear()
            assert run_ensemble(self.POOL_CFG, n_workers=64).to_json_dict() == single
            assert inline_pool == [expected]

    @pytest.mark.parametrize("affinity, cpu_count, expected",
                             [({0}, 64, 1), (None, 64, 3), (None, None, 1)])
    def test_pool_sized_by_usable_cpus(self, affinity, cpu_count, expected, inline_pool,
                                       monkeypatch):
        # the affinity mask where the OS has one, else cpu_count(), else 1
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        elif hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        else:
            pytest.skip("no affinity mask on this OS")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        run_ensemble(self.POOL_CFG, n_workers=64)
        assert inline_pool == [expected]

    def test_fewer_than_one_worker_rejected(self):
        cfg = singlet_config(10, seed=1, t_max=1.0, checkpoints=(0.0, 1.0))
        for n_workers in (0, -3):
            with pytest.raises(ValidationError, match="n_workers"):
                run_ensemble(cfg, n_workers=n_workers)

    @pytest.mark.parametrize("orientation, seed", [(None, 20240), (math.pi / 3.0, 777)],
                             ids=["split", "rotated"])
    def test_start_values_are_the_engine_step_0_values(self, orientation, seed):
        # the report's start values come from the engine's own eigenbasis
        # probabilities, so they equal the first record bit for bit
        H = SINGLET_H if orientation is None else build_epr_hamiltonian(
            FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0), FilterOrientation(theta=orientation))
        psi0 = singlet_state()
        base = SdeConfig(sigma=1.0, dt=2e-3, t_max=1.0, seed=seed)
        report = run_ensemble(EnsembleConfig(n_traj=5, base=base, hamiltonian=H,
                                             initial_state=psi0, checkpoints=(0.0, 1.0)))
        records, _ = simulate_trajectory(H, psi0, base)
        assert report.initial_energy == records[0].energy_mean
        assert report.initial_variance == records[0].variance
        assert variance(H, psi0) == records[0].variance

    @pytest.mark.parametrize("n_workers", [True, 1.5, 2.0, "2"])
    def test_a_non_integer_worker_count_rejected(self, n_workers):
        cfg = singlet_config(10, seed=1, t_max=1.0, checkpoints=(0.0, 1.0))
        with pytest.raises(ValidationError, match="n_workers must be an integer >= 1"):
            run_ensemble(cfg, n_workers=n_workers)

    def test_frequency_error_scales_with_root_n(self):
        psi0 = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        for n in (500, 2000, 8000):
            cfg = EnsembleConfig(
                n_traj=n,
                base=SdeConfig(sigma=1.0, dt=4e-3, t_max=100.0, seed=777),
                hamiltonian=TWO_LEVEL,
                initial_state=psi0,
                checkpoints=(0.0, 100.0),
            )
            report = run_ensemble(cfg)
            n_coll = sum(report.outcome_counts.values())
            err = abs(report.outcome_counts[0] / n_coll - 0.3)
            # binomial scale: 3 sigma of sqrt(p(1-p)/n), uniformly over sizes
            assert err * np.sqrt(n) < 3.0 * np.sqrt(0.3 * 0.7)

    def test_failure_accounting(self, monkeypatch):
        import qreduce.ensemble as ens

        real = ens.run_reduction_batch

        def sabotage(**kwargs):
            result = real(**kwargs)
            result.outcome_group[:] = -2  # every trajectory failed
            return result

        monkeypatch.setattr(ens, "run_reduction_batch", sabotage)
        with pytest.raises(EnsembleFailureError):
            run_ensemble(singlet_config(100, seed=3, t_max=1.0, checkpoints=(0.0, 1.0)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_row_within_the_allowance_leaves_the_series_finite(self, inline_pool,
                                                                        monkeypatch):
        # rows 4 and 2052, one in each block at 2 workers, turn NaN at step 31,
        # between the checkpoints at steps 25 and 500, and keep their
        # non-finite probabilities at the later ones
        real = dynamics.step_normals
        nan_rows = (4, dynamics.NOISE_GROUP + 4)

        def nan_at_step_30(seed, step, count, start=0):
            out = real(seed, step, count, start)
            for i in nan_rows:
                if step == 30 and start <= i < count:
                    out[i - start] = np.nan
            return out

        monkeypatch.setattr(dynamics, "step_normals", nan_at_step_30)
        cfg = singlet_config(2 * dynamics.NOISE_GROUP + 5, seed=20240, t_max=2.0,
                             checkpoints=(0.0, 0.05, 1.0, 2.0))
        one, two = (run_ensemble(cfg, n_workers=w) for w in (1, 2))
        assert inline_pool == [2]
        assert one.failed_indices == nan_rows
        for pt in one.energy_mean_series + one.variance_mean_series:
            assert math.isfinite(pt.mean) and math.isfinite(pt.stderr), pt
        assert one.to_json_dict() == two.to_json_dict()


def hand_batch(n_rows):
    """Engine rows of TWO_LEVEL from a balanced start, checkpoints at steps 0, 2 and 4.

    Row 0 collapses onto space 0 at step 1, row 1 onto space 1 at step 3,
    row 2 stays uncollapsed and row 3 fails at step 2; any further rows are
    copies of row 2.
    """
    cps = [[[0.5, 1.0, 1.0], [0.5, 0.6, 0.0], [0.5, 0.7, 0.75], [0.5, np.nan, np.nan]],
           [[0.5, 0.0, 0.0], [0.5, 0.4, 1.0], [0.5, 0.3, 0.25], [0.5, np.nan, np.nan]]]
    rows = [0, 1, 2, 3] + [2] * (n_rows - 4)
    return ensemble.BatchResult(
        outcome_group=np.array([0, 1, -1, -2])[rows], hit_step=np.array([1, 3, -1, 2])[rows],
        checkpoint_probs=np.array(cps)[:, rows].transpose(0, 2, 1),
        final_probs=np.array(cps)[:, rows, 2].T)


HAND_BASE = SdeConfig(sigma=0.25, dt=0.5, t_max=2.0, seed=1)
HAND_PSI0 = [1.0, 1.0]


def hand_config(n_traj):
    return EnsembleConfig(n_traj, HAND_BASE, TWO_LEVEL, HAND_PSI0, checkpoints=(0.0, 1.0, 2.0))


class TestEnsembleState:
    """Every report statistic is a function of the run's EnsembleState."""

    def state(self, n_rows=4):
        return ensemble.EnsembleState(batch=hand_batch(n_rows),
                                      start=dynamics._start(TWO_LEVEL, HAND_PSI0, HAND_BASE),
                                      steps=(0, 2, 4), dt=0.5, n_steps=4)

    def test_statistics_of_a_hand_built_state(self):
        state = self.state()
        assert state.failed_indices() == (3,)
        assert state.uncollapsed_count() == 1
        assert state.outcome_counts() == {0: 1, 1: 1}
        assert state.expected_born() == born_expected(TWO_LEVEL, HAND_PSI0)
        assert state.chi_square() == _chi_square({0: 1, 1: 1}, state.expected_born())
        assert state.start_moments() == pytest.approx((0.5, 0.25), abs=1e-15)
        # lam = (0, 1): the energy of a row is its p_1 and V = p_0 p_1; the
        # failed row 3 is left out
        p1 = np.array([[0.5, 0.5, 0.5], [0.0, 0.4, 0.3], [0.0, 1.0, 0.25]])
        energy, var = state.moment_series()
        for series, values in ((energy, p1), (var, p1 * (1.0 - p1))):
            assert [pt.t for pt in series] == [0.0, 1.0, 2.0]
            for pt, row in zip(series, values):
                assert pt.mean == pytest.approx(row.mean(), abs=1e-15)
                assert pt.stderr == pytest.approx(row.std(ddof=1) / math.sqrt(3), abs=1e-15)
        # each row's probabilities with its start phases turned to its end
        # time: hit step times dt, or t_max if it never hit
        start, final = state.start, state.final_states()
        t_end = np.array([0.5, 1.5, 2.0, 1.0])
        for i in range(3):
            amp = np.sqrt(state.batch.final_probs[i]) * start.phase0 * np.exp(-1j * start.lam
                                                                               * t_end[i])
            np.testing.assert_allclose(final[i], start.basis @ amp, atol=1e-15)
        assert not np.isfinite(final[3]).any()

    @pytest.mark.parametrize("n_rows, fails", [(4, True), (100, False)])
    def test_run_ensemble_reports_the_state_and_applies_the_one_percent_rule(
            self, n_rows, fails, monkeypatch):
        batch = hand_batch(n_rows)
        monkeypatch.setattr(ensemble, "_run_block", lambda args: batch)
        if fails:
            with pytest.raises(EnsembleFailureError, match="1 of 4 trajectories"):
                run_ensemble(hand_config(n_rows))
            return
        report = run_ensemble(hand_config(n_rows), collect_final_states=True)
        state = report.state
        assert state.batch is batch and state.steps == (0, 2, 4)
        assert report.failed_indices == state.failed_indices() == (3,)
        assert report.uncollapsed_count == state.uncollapsed_count() == 97
        assert report.outcome_counts == state.outcome_counts()
        assert report.expected_born == state.expected_born()
        assert (report.chi_square, report.chi_square_dof,
                report.chi_square_pvalue) == state.chi_square()
        assert (report.energy_mean_series, report.variance_mean_series) == state.moment_series()
        assert (report.initial_energy, report.initial_variance) == state.start_moments()
        np.testing.assert_array_equal(report.final_states, state.final_states())

    @pytest.mark.parametrize("roundtrip", [copy.deepcopy,
                                           lambda r: pickle.loads(pickle.dumps(r))])
    def test_a_report_with_its_state_copies_and_keeps_its_json(self, roundtrip):
        report = run_ensemble(singlet_config(20, seed=5, t_max=2.0, checkpoints=(0.0, 2.0)))
        out = roundtrip(report)
        assert out == report and "state" not in repr(report)
        assert out.to_json_dict() == report.to_json_dict()
        assert list(report.to_json_dict()) == [
            "n_traj", "sigma", "dt", "t_max", "seed", "checkpoints", "eigenvalues",
            "eigenspace_dims", "outcome_counts", "expected_born", "chi_square",
            "chi_square_dof", "chi_square_pvalue", "energy_mean_series",
            "variance_mean_series", "initial_energy", "initial_variance",
            "uncollapsed_count", "failed_indices"]
        for name in ("outcome_group", "hit_step", "checkpoint_probs", "final_probs"):
            a, b = getattr(out.state.batch, name), getattr(report.state.batch, name)
            assert a.tobytes() == b.tobytes()
        assert out.state.start.psi0_eig.tobytes() == report.state.start.psi0_eig.tobytes()
        assert out.state.final_states().tobytes() == report.state.final_states().tobytes()


class TestNoiseGroupBlocks:
    """Blocks are cut on noise-group bounds, and each draws only its own groups."""

    G = dynamics.NOISE_GROUP

    @pytest.mark.parametrize("n_traj", [1, 5, G - 1, G, G + 1, 2 * G + 5, 20000])
    def test_bounds_are_group_multiples_and_no_block_is_empty(self, n_traj):
        groups = -(-n_traj // self.G)
        for n_workers in (1, 2, 3, 8, 64):
            bounds = block_bounds(n_traj, n_workers)
            assert len(bounds) == min(n_workers, groups) + 1
            assert bounds[0] == 0 and bounds[-1] == n_traj
            assert all(b % self.G == 0 for b in bounds[:-1])
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))

    def test_each_block_draws_from_its_own_first_index(self, inline_pool, monkeypatch):
        real_batch, real_normals = ensemble.run_reduction_batch, dynamics.step_normals
        blocks, starts = [], []

        def batch(**kw):
            blocks.append((kw["lo"], kw["hi"]))
            starts.append(set())
            return real_batch(**kw)

        def normals(seed, step, count, start=0):
            starts[-1].add(start)
            assert count <= blocks[-1][1]
            return real_normals(seed, step, count, start)

        monkeypatch.setattr(ensemble, "run_reduction_batch", batch)
        monkeypatch.setattr(dynamics, "step_normals", normals)
        run_ensemble(TestRunEnsemble.POOL_CFG, n_workers=8)
        G = self.G
        assert blocks == [(0, G), (G, 2 * G), (2 * G, 2 * G + 5)]
        assert starts == [{0}, {G}, {2 * G}]

    def test_reports_are_byte_identical_at_any_worker_count(self):
        # a real process pool from 2 workers on; some rows retire mid-run
        cfg = EnsembleConfig(
            n_traj=2 * self.G + 5,
            base=SdeConfig(sigma=4.0, dt=1e-3, t_max=2.0, seed=23),
            hamiltonian=TWO_LEVEL,
            initial_state=[0.6, 0.8],
            checkpoints=(0.0, 0.5, 2.0),
        )
        reports = {w: run_ensemble(cfg, n_workers=w) for w in (1, 2, 3, 8)}
        dumps = {w: json.dumps(r.to_json_dict()).encode() for w, r in reports.items()}
        assert len(set(dumps.values())) == 1
        assert 0 < reports[1].collapsed_count() < cfg.n_traj

    def test_the_eigensystem_is_computed_once(self, monkeypatch):
        # the report's spaces and Born weights come from _start's projection
        real, calls = hilbert.eigensystem, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (hilbert, dynamics, ensemble):
            monkeypatch.setattr(module, "eigensystem", counted)
        report = run_ensemble(singlet_config(5, seed=1, t_max=1.0, checkpoints=(0.0, 1.0)))
        assert len(calls) == 1
        assert report.expected_born == born_expected(SINGLET_H, singlet_state())
        spaces = real(SINGLET_H)
        assert report.eigenvalues == tuple(s.eigenvalue for s in spaces)
        assert report.eigenspace_dims == tuple(s.dimension for s in spaces)


class TestMartingale:
    def test_sigma_zero_scores_exactly_zero(self):
        cfg = EnsembleConfig(
            n_traj=40,
            base=SdeConfig(sigma=0.0, dt=1e-3, t_max=2.0, seed=9),
            hamiltonian=TWO_LEVEL,
            initial_state=np.array([1.0, 1.0]) / np.sqrt(2.0),
            checkpoints=(0.0, 1.0, 2.0),
        )
        verdict = martingale_test(run_ensemble(cfg))
        assert verdict.passed
        assert verdict.details["z_scores"] == [0.0, 0.0, 0.0]

    def test_eigenvector_scores_exactly_zero(self):
        cfg = EnsembleConfig(
            n_traj=10,
            base=SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0, seed=10),
            hamiltonian=TWO_LEVEL,
            initial_state=[1.0, 0.0],
            checkpoints=(0.0, 0.5, 1.0),
        )
        verdict = martingale_test(run_ensemble(cfg))
        assert verdict.passed
        assert all(z == 0.0 for z in verdict.details["z_scores"])

    def test_needs_two_checkpoints(self):
        cfg = singlet_config(20, seed=1, t_max=1.0, checkpoints=(0.0,))
        report = run_ensemble(cfg)
        with pytest.raises(ValidationError):
            martingale_test(report)


class TestVarianceDecay:
    def test_eigenvector_trivially_passes(self):
        cfg = EnsembleConfig(
            n_traj=10,
            base=SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0, seed=14),
            hamiltonian=TWO_LEVEL,
            initial_state=[0.0, 1.0],
            checkpoints=(0.0, 1.0),
        )
        verdict = variance_decay_test(run_ensemble(cfg))
        assert verdict.passed and verdict.applicable

    def test_sigma_zero_not_applicable(self):
        cfg = EnsembleConfig(
            n_traj=10,
            base=SdeConfig(sigma=0.0, dt=1e-3, t_max=1.0, seed=15),
            hamiltonian=TWO_LEVEL,
            initial_state=np.array([1.0, 1.0]) / np.sqrt(2.0),
            checkpoints=(0.0, 0.5, 1.0),
        )
        verdict = variance_decay_test(run_ensemble(cfg))
        assert not verdict.applicable
        assert verdict.passed

    def test_singlet_decays_below_one_percent(self):
        # sigma^2 V0 t_max = 0.25 * 240 = 60 >= 50: full-reduction regime
        cfg = singlet_config(400, seed=16, t_max=240.0,
                             checkpoints=(0.0, 10.0, 60.0, 240.0))
        report = run_ensemble(cfg)
        verdict = variance_decay_test(report)
        assert verdict.applicable and verdict.passed
        assert report.variance_mean_series[-1].mean < 0.01 * report.initial_variance

    def test_horizon_within_a_few_ulps_of_the_threshold_runs_the_final_check(self):
        # sigma^2 V0 t_max with V0 two ulps below 0.25 rounds to just under
        # 50: the rounding of V0 must not decide whether the check runs.
        series = (SeriesPoint(t=0.0, mean=0.25, stderr=0.0),
                  SeriesPoint(t=200.0, mean=0.01, stderr=1e-4))
        report = EnsembleReport(
            n_traj=100, sigma=1.0, dt=2e-3, t_max=200.0, seed=0, checkpoints=(0.0, 200.0),
            eigenvalues=(0.0, 1.0), eigenspace_dims=(1, 1), outcome_counts={0: 50, 1: 50},
            expected_born={0: 0.5, 1: 0.5}, chi_square=0.0, chi_square_dof=1,
            chi_square_pvalue=1.0, energy_mean_series=series, variance_mean_series=series,
            initial_energy=0.5, initial_variance=0.25, uncollapsed_count=0, failed_indices=(),
            wall_clock=0.0)
        assert 1.0**2 * 0.24999999999999994 * 200.0 < 50.0
        for v0 in (0.25, 0.24999999999999994):
            verdict = variance_decay_test(replace(report, initial_variance=v0))
            assert verdict.details["monotone"]
            assert verdict.details["final_mean"] == 0.01 and not verdict.passed
        # well below the threshold, the final mean is not checked
        verdict = variance_decay_test(replace(report, initial_variance=0.249))
        assert "final_mean" not in verdict.details and verdict.passed


class TestBornFrequencyTest:
    def test_calibrated_rejection_rate(self):
        # Direct multinomial sampling from the Born weights, bypassing the
        # SDE: the 5%-level test must reject at about its nominal rate.
        rng = np.random.default_rng(2)
        expected = {0: 0.5, 1: 0.5}
        rejections = 0
        for _ in range(200):
            draw = rng.multinomial(2000, [0.5, 0.5])
            _, _, pval = _chi_square({0: int(draw[0]), 1: int(draw[1])}, expected)
            rejections += pval < 0.05
        assert 0.03 <= rejections / 200 <= 0.07

    def test_p_value_equals_scipy_chi2_sf(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(11)
        for n_cells in range(2, 8):
            weights = rng.dirichlet(np.ones(n_cells))
            expected = dict(enumerate(weights.tolist()))
            for n in (0, 1, 7, 100, 5000):
                for pull in (0.0, 0.3, 1.0, 3.0):
                    # counts from the Born weights, pulled toward one cell
                    q = (1.0 - pull / 3.0) * weights
                    q[0] += pull / 3.0
                    draw = rng.multinomial(n, q)
                    counts = {k: int(c) for k, c in enumerate(draw)}
                    stat, dof, pval = _chi_square(counts, expected)
                    ref = 1.0 if n == 0 else float(chi2.sf(stat, dof))
                    if ref < 1e-290:  # chi2.sf flushes part of the subnormal tail to 0
                        assert pval < 1e-280
                    else:
                        assert abs(pval - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("dof", [41, 100, 401, 5000])
    def test_p_value_above_40_dof_within_1e_10_of_scipy(self, dof):
        # The log-space recurrence adds rounding error with every term, and
        # dof 2n has n terms.
        from scipy.special import chdtrc

        a = dof / 2
        xs = dof * np.concatenate([np.linspace(0.5, 1.6, 221),
                                   1.0 + np.linspace(-8.0, 8.0, 161) / np.sqrt(a)])
        xs = xs[xs > 0]
        ours = np.array([chi2_sf(dof, x) for x in xs.tolist()])
        ref = chdtrc(dof, xs)
        assert np.all(np.abs(ours - ref) <= 1e-10 * ref)
        assert chi2_sf(dof, 0.0) == 1.0 and chi2_sf(dof, 1e6) == 0.0

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 41])
    def test_chi2_sf_edges_are_exact_and_quiet(self, dof):
        # At x = inf each term would be exp(inf - inf) = NaN from dof 3 on,
        # and near x = 0 the rounded sum can pass 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (0.0, 5e-324, 1e-310):
                assert chi2_sf(dof, x) == 1.0
            for x in (1e6, np.inf):
                assert chi2_sf(dof, x) == 0.0
            values = [chi2_sf(dof, float(x))
                      for x in np.concatenate([10.0 ** np.linspace(-300.0, 6.0, 3001),
                                               np.linspace(0.0, 3.0 * dof + 40.0, 3001)])]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_import_leaves_scipy_stats_unloaded(self):
        src = os.path.dirname(os.path.dirname(qreduce.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        # scipy.stats costs most of a second, the process pool's multiprocessing
        # about 20 ms, fractions (which loads decimal) about 2.5 ms; the exit
        # message names any module that was loaded
        code = ("import sys, qreduce, qreduce.cli; "
                "sys.exit(' '.join(m for m in ('scipy', 'scipy.stats', 'concurrent.futures.process', "
                "'multiprocessing', 'fractions') if m in sys.modules) or None)")
        assert subprocess.run([sys.executable, "-c", code], env=env,
                              timeout=120).returncode == 0

    def test_impossible_outcome_is_infinite(self):
        stat, dof, pval = _chi_square({0: 5, 1: 5}, {0: 0.0, 1: 1.0})
        assert stat == np.inf and pval == 0.0
        # dof counts every Born-weighted cell, before or after the impossible one
        counts = {0: 1, 1: 30, 2: 30, 3: 40}
        weights = {0: 0.0, 1: 0.3, 2: 0.3, 3: 0.4}
        for order in ([0, 1, 2, 3], [1, 2, 3, 0]):
            expected = {k: weights[k] for k in order}
            assert _chi_square(counts, expected) == (np.inf, 2, 0.0)

    def test_no_collapses_not_applicable(self):
        cfg = EnsembleConfig(
            n_traj=10,
            base=SdeConfig(sigma=0.0, dt=1e-3, t_max=0.5, seed=19),
            hamiltonian=TWO_LEVEL,
            initial_state=np.array([1.0, 1.0]) / np.sqrt(2.0),
            checkpoints=(0.0, 0.5),
        )
        verdict = born_frequency_test(run_ensemble(cfg))
        assert not verdict.applicable and verdict.passed


def duplicated_pairs(draw):
    """``dynamics._draw`` with entry 2j + 1 a copy of entry 2j: trajectory pairs share noise."""
    def patched(seed, step, count, start, out=None):
        lo = start - start % 2
        full = draw(seed, step, count, lo)
        full[1::2] = full[:len(full) - len(full) % 2:2]
        if out is None:
            return full[start - lo:]
        out[:] = full[start - lo:]
        return out
    return patched


class TestIndependence:
    # 1 000 split-singlet trajectories, dt = 0.01 (guard 0.09), all collapsed by t = 200.
    CFG = EnsembleConfig(n_traj=1000, base=SdeConfig(sigma=1.0, dt=0.01, t_max=200.0, seed=20240),
                         hamiltonian=SINGLET_H, initial_state=singlet_state(),
                         checkpoints=(0.0, 1.0, 200.0))

    def test_duplicated_noise_fails_independence_and_passes_born(self, monkeypatch):
        # Each duplicated pair keeps the right marginal law, so the Born
        # counts cannot see it; every pair is bitwise equal at t = 1.
        monkeypatch.setattr(dynamics, "_draw", duplicated_pairs(dynamics._draw))
        assert dynamics.step_normals(1, 0, 4)[1] == dynamics.step_normals(1, 0, 4)[0]
        report = run_ensemble(self.CFG)
        assert report.uncollapsed_count == 0 and not report.failed_indices
        assert born_frequency_test(report).passed
        verdict = independence_test(report)
        assert not verdict.passed and verdict.applicable
        assert verdict.details == {"t": 1.0, "rows": 1000, "duplicates": 500}

    def test_independent_noise_passes(self):
        verdict = independence_test(run_ensemble(self.CFG))
        assert verdict.passed and verdict.applicable
        assert verdict.details == {"t": 1.0, "rows": 1000, "duplicates": 0}

    def test_not_applicable_without_noise_or_a_moved_row(self):
        base = SdeConfig(sigma=0.0, dt=1e-3, t_max=0.5, seed=19)
        still = run_ensemble(EnsembleConfig(10, base, TWO_LEVEL, [1.0, 1.0], (0.0, 0.5)))
        eigen = run_ensemble(EnsembleConfig(10, replace(base, sigma=1.0), TWO_LEVEL, [1.0, 0.0],
                                            (0.0, 0.5)))
        for report in (still, eigen):
            verdict = independence_test(report)
            assert verdict.passed and not verdict.applicable
        with pytest.raises(ValidationError, match="ensemble state"):
            independence_test(replace(still, state=None))

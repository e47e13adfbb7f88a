"""Ensemble harness: Born counts, martingale/decay verdicts, determinism."""

import concurrent.futures
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import qreduce

from qreduce import (
    EnsembleConfig,
    EnsembleFailureError,
    Observable,
    SdeConfig,
    ValidationError,
    born_expected,
    born_frequency_test,
    build_epr_hamiltonian,
    FilterCoupling,
    martingale_test,
    run_ensemble,
    singlet_state,
    variance_decay_test,
)
import qreduce.dynamics as dynamics
import qreduce.ensemble as ensemble
from qreduce.ensemble import _chi_square, chi2_sf

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

    POOL_CFG = EnsembleConfig(
        n_traj=3,
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
        # row 4 turns NaN at step 31, between the checkpoints at steps 25 and 500,
        # and keeps its non-finite probabilities at the later ones
        real = dynamics.step_normals

        def nan_at_entry_4(seed, step, count, start=0):
            out = real(seed, step, count, start)
            if step == 30 and start <= 4 < count:
                out[4 - start] = np.nan
            return out

        monkeypatch.setattr(dynamics, "step_normals", nan_at_entry_4)
        cfg = singlet_config(200, seed=20240, t_max=20.0, checkpoints=(0.0, 0.05, 1.0, 20.0))
        one, two = (run_ensemble(cfg, n_workers=w) for w in (1, 2))
        assert inline_pool == [2]
        assert one.failed_indices == (4,)
        for pt in one.energy_mean_series + one.variance_mean_series:
            assert math.isfinite(pt.mean) and math.isfinite(pt.stderr), pt
        assert one.to_json_dict() == two.to_json_dict()


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

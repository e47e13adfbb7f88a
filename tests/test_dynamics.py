"""Reduction SDE integration: steps, trajectories, drift calibration, noise."""

import copy
import errno
import math
import multiprocessing
import os
import pickle
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from qreduce import (
    ConfigurationError,
    EnsembleConfig,
    InsufficientDataError,
    IntegrationFailureError,
    Observable,
    Ray,
    SdeConfig,
    TrajectoryRecord,
    ValidationError,
    build_epr_hamiltonian,
    FilterCoupling,
    eigensystem,
    expectation,
    reduction_step,
    run_ensemble,
    simulate_trajectory,
    singlet_state,
    step_normals,
    unitary_evolve,
    variance,
    variance_drift_estimate,
)
import qreduce.dynamics as dynamics
import qreduce.ensemble as ensemble
import qreduce.hilbert as hilbert
from qreduce.dynamics import NOISE_GROUP, run_reduction_batch
from qreduce.epr import FilterOrientation

TWO_LEVEL = Observable(np.diag([0.0, 1.0]))
BALANCED = np.array([1.0, 1.0]) / np.sqrt(2.0)


class TestSdeConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SdeConfig(sigma=-1.0, dt=1e-3, t_max=1.0)
        with pytest.raises(ValidationError):
            SdeConfig(sigma=1.0, dt=0.0, t_max=1.0)
        with pytest.raises(ValidationError):
            SdeConfig(sigma=1.0, dt=1e-3, t_max=-1.0)
        with pytest.raises(ValidationError):
            SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0, collapse_variance_tol=0.0)
        with pytest.raises(ValidationError):
            SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0, seed=-1)
        with pytest.raises(ValidationError):
            SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0, record_stride=0)
        # at least as strict as the config parser, and never a TypeError
        for bad in ({"collapse_variance_tol": np.inf}, {"seed": True},
                    {"record_stride": True}, {"sigma": "1"}, {"dt": "0.1"},
                    {"collapse_variance_tol": np.nan}, {"seed": 2**64},
                    {"sigma": 10**400}):
            with pytest.raises(ValidationError, match=next(iter(bad))):
                SdeConfig(**{"sigma": 1.0, "dt": 1e-3, "t_max": 1.0, **bad})
        # t_max must round to a finite number >= 1 of steps of dt
        for dt, t_max in ((2e-3, 5e-4), (2e-3, 1e-3), (1e-300, 1e10)):
            with pytest.raises(ValidationError, match="t_max"):
                SdeConfig(sigma=1.0, dt=dt, t_max=t_max)
        assert SdeConfig(sigma=1.0, dt=2e-3, t_max=1.1e-3).n_steps == 1

    def test_stability_guard(self):
        H = Observable(np.diag([0.0, 10.0]))
        cfg = SdeConfig(sigma=1.0, dt=1e-2, t_max=1.0)  # sigma^2 (lam_max - lam_min)^2 dt = 1
        with pytest.raises(ConfigurationError):
            reduction_step(H, [1, 0], cfg, 0.0)
        with pytest.raises(ConfigurationError):
            simulate_trajectory(H, BALANCED, cfg)
        # an energy offset moves no eigenvalue spread: with max |lambda| the
        # split filter at e0 = 10 read 13^2 * 2e-3 = 0.338 and failed
        split = FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=1.0)
        for e0 in (0.0, 10.0):
            value = dynamics.stability_guard(build_epr_hamiltonian(split, e0=e0), cfg)
            assert value == pytest.approx(0.018, rel=1e-12)


class TestStepNormals:
    def test_prefix_stability(self):
        a = step_normals(123, 7, 5)
        b = step_normals(123, 7, 50)
        np.testing.assert_array_equal(a, b[:5])

    def test_streams_differ_by_seed_and_step(self):
        base = step_normals(1, 0, 8)
        assert not np.array_equal(base, step_normals(2, 0, 8))
        assert not np.array_equal(base, step_normals(1, 1, 8))

    def test_reproducible(self):
        np.testing.assert_array_equal(step_normals(9, 3, 16), step_normals(9, 3, 16))

    def test_equals_a_fresh_generator_whatever_was_drawn_before(self):
        def fresh(seed, step, count):
            # one fresh generator per group of NOISE_GROUP entries
            groups = []
            for g in range(0, count, NOISE_GROUP):
                bg = Philox(key=np.array([seed, 0], dtype=np.uint64),
                            counter=np.array([0, g // NOISE_GROUP, 0, step], dtype=np.uint64))
                groups.append(Generator(bg).standard_normal(min(NOISE_GROUP, count - g)))
            return np.concatenate(groups)

        calls = [
            (5, 0, 100_001),  # a long draw
            (5, 1, 7),        # right after it
            (5, 1, 3),        # an odd-length draw leaves the output buffer part-used
            (5, 2, 8),
            (2**64 - 1, 2, 9),  # interleaved seeds, including the largest
            (5, 2, 9),
            (0, 2**63, 1),
            (5, 2, 9),
        ]
        for seed, step, count in calls:
            np.testing.assert_array_equal(step_normals(seed, step, count),
                                          fresh(seed, step, count))

    @pytest.mark.parametrize("i", [0, 2047, 2048, 4095, 19_999])
    def test_start_returns_the_entries_of_the_full_draw(self, i):
        full = step_normals(17, 5, 20_000)
        one = step_normals(17, 5, i + 1, i)
        assert one.shape == (1,)
        assert one[0] == full[i]

    def test_range_across_groups_entered_part_way(self):
        full = step_normals(17, 5, 20_000)
        np.testing.assert_array_equal(step_normals(17, 5, 5_000, 1_000), full[1_000:5_000])
        assert step_normals(17, 5, 10, 10).shape == (0,)

    def test_first_group_is_the_single_stream_of_seed_and_step(self):
        seed, step = 2024, 3
        single = Generator(Philox(key=[seed, 0], counter=[0, 0, 0, step]))
        old = single.standard_normal(NOISE_GROUP + 1)
        new = step_normals(seed, step, NOISE_GROUP + 1)
        assert NOISE_GROUP == 2048
        np.testing.assert_array_equal(new[:NOISE_GROUP], old[:NOISE_GROUP])
        # from entry 2048 on, each group has a stream of its own
        assert new[NOISE_GROUP] != old[NOISE_GROUP]

    def test_seed_and_step_must_be_integers(self):
        # a float seed or step raises, as a float count does, instead of
        # being truncated to another stream; numpy integers keep their bits
        for args in ((1.5, 0, 3), (1, 2.7, 3), (1, 0, 3.0)):
            with pytest.raises(TypeError):
                step_normals(*args)
        assert (step_normals(np.uint64(7), np.int64(4), 3).tobytes()
                == step_normals(7, 4, 3).tobytes())

    def test_concurrent_threads_get_their_own_streams(self):
        expected = {seed: step_normals(seed, 4, 257) for seed in range(4)}
        mismatches = []

        def draw(seed):
            for _ in range(200):
                if not np.array_equal(step_normals(seed, 4, 257), expected[seed]):
                    mismatches.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []


class TestUnitaryEvolve:
    def test_zero_time_is_identity(self):
        psi = unitary_evolve(TWO_LEVEL, BALANCED, 0.0)
        np.testing.assert_allclose(psi.amplitudes, BALANCED, atol=1e-14)

    def test_eigenvector_moves_only_in_phase(self):
        H = Observable(np.diag([1.0, 3.0]))
        for t in (0.1, 1.7, 12.0):
            out = unitary_evolve(H, [0, 1], t)
            assert Ray(out.amplitudes).approx_eq(Ray([0, 1]), tol=1e-12)

    def test_half_period_flips_relative_sign(self):
        out = unitary_evolve(TWO_LEVEL, BALANCED, np.pi)
        assert Ray(out.amplitudes).approx_eq(Ray(np.array([1.0, -1.0])), tol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(107)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        H = Observable((a + a.conj().T) / 2)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        out = unitary_evolve(H, z, 2.3)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(
            np.linalg.norm(z), rel=1e-12
        )

    def test_nonfinite_time_rejected(self):
        with pytest.raises(ValidationError):
            unitary_evolve(TWO_LEVEL, BALANCED, np.inf)


class TestReductionStep:
    CFG = SdeConfig(sigma=1.0, dt=1e-4, t_max=1.0)

    def test_eigenvector_is_fixed_point(self):
        for dw in (0.0, 0.02, -0.02):
            out = reduction_step(TWO_LEVEL, [0.0, 1.0], self.CFG, dw)
            assert Ray(out.amplitudes).approx_eq(Ray([0.0, 1.0]), tol=1e-12)

    def test_deterministic_limit_is_the_unitary_step(self):
        # at sigma = 0 the split step is the spectral propagator: exact up to
        # round-off whatever the increment
        rng = np.random.default_rng(109)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = Observable((a + a.conj().T) / 2)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        z = z / np.linalg.norm(z)
        for dt in (1e-3, 5e-4):
            cfg = SdeConfig(sigma=0.0, dt=dt, t_max=1.0)
            exact = Ray(unitary_evolve(H, z, dt).amplitudes)
            for dw in (0.0, 0.3):
                stepped = reduction_step(H, z, cfg, dw)
                assert Ray(stepped.amplitudes).approx_eq(exact, tol=1e-12)

    def test_positive_kick_raises_energy(self):
        out = reduction_step(TWO_LEVEL, BALANCED, self.CFG, 0.01)
        assert abs(out.amplitudes[1]) > abs(out.amplitudes[0])
        assert expectation(TWO_LEVEL, out) > 0.5

    def test_renormalized(self):
        out = reduction_step(TWO_LEVEL, BALANCED, self.CFG, 0.3)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestSimulateTrajectory:
    def test_eigenvector_collapses_at_time_zero(self):
        H = Observable(np.diag([0.0, 1.0, 2.0]))
        cfg = SdeConfig(sigma=1.0, dt=1e-3, t_max=1.0, seed=1)
        records, outcome = simulate_trajectory(H, [0, 1, 0], cfg)
        assert outcome.collapsed
        assert outcome.hitting_time == 0.0
        assert outcome.eigenspace_index == 1
        assert len(records) == 1
        assert records[0].variance < 1e-20

    def test_records_are_slotted(self):
        # a trace holds one record per step, so a per-record __dict__ is memory
        H = Observable(np.diag([0.0, 1.0]))
        cfg = SdeConfig(sigma=1.0, dt=1e-3, t_max=0.01, seed=1)
        records, _ = simulate_trajectory(H, [1.0, 1.0], cfg)
        assert not hasattr(records[0], "__dict__")

    def test_records_hold_at_most_100_bytes_each(self):
        # A record is a (block, row) handle over its block's compact rows: a
        # step, a Wiener sum and two probabilities. As a handle over the 14
        # trace columns it held 171 bytes, as a dataclass with a Ray, an
        # array view and five floats 457.
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=200.0, seed=20240, record_stride=1)
        simulate_trajectory(H, singlet_state(), SdeConfig(sigma=1.0, dt=2e-3, t_max=0.01))
        # Reading every record in order keeps at most one block's columns
        # alive (_columns caches one block); an unbounded cache would keep
        # them all, about 200 bytes a record.
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records, outcome = simulate_trajectory(H, singlet_state(), cfg)
            held = tracemalloc.get_traced_memory()[0] - before
            for rec in records:
                rec.trace_row()
                rec.variance
            held_after_reads = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert outcome.collapsed and len(records) == 13071
        assert held / len(records) <= 100
        assert held_after_reads / len(records) <= 100

    def test_reading_in_record_order_derives_each_block_once(self, monkeypatch):
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=200.0, seed=20240, record_stride=1)
        records, outcome = simulate_trajectory(H, singlet_state(), cfg)
        calls = []
        amplitudes = dynamics._amplitudes
        monkeypatch.setattr(dynamics, "_amplitudes",
                            lambda *args: calls.append(1) or amplitudes(*args))
        bits, rows = [], []
        for rec in records:  # every field of every record, in record order
            bits += record_bits([rec])
            rows.append(rec.trace_row())
        assert outcome.final_record.quadric_residual == bits[-1][5]
        assert len(calls) == math.ceil(13071 / dynamics._RECORD_BLOCK) == 103
        # out of order, a block is derived again, to the same bits
        order = [j for pair in zip(range(300), range(13070, 12770, -1)) for j in pair]
        assert record_bits([records[j] for j in order]) == [bits[j] for j in order]
        assert [records[j].trace_row() for j in order] == [rows[j] for j in order]
        assert len(calls) > 103

    def test_alternating_and_threaded_reads_equal_a_serial_read(self):
        # _columns caches one block for the whole process, so reads that
        # alternate between two trajectories derive a block on every switch,
        # and two threads share the cache; neither may change a bit.
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.6, seed=20240, record_stride=1)
        pair = [simulate_trajectory(H, singlet_state(), cfg, i)[0] for i in (0, NOISE_GROUP)]
        assert [len(r) for r in pair] == [301, 301]
        serial = [record_bits(records) for records in pair]
        assert serial[0] != serial[1]
        size = dynamics._RECORD_BLOCK
        for lo in range(0, 301, size):  # block by block, alternating trajectories
            for records, bits in zip(pair, serial):
                assert record_bits(records[lo:lo + size]) == bits[lo:lo + size]
        results = [[], []]

        def read(j):
            for _ in range(5):
                results[j].append(record_bits(pair[j]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(j,)) for j in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[serial[0]] * 5, [serial[1]] * 5]

    @pytest.mark.parametrize("dim, residual", [(d, r) for d in (1, 2, 3, 4) for r in (1e-3, None)],
                             ids=lambda v: f"dim{v}" if type(v) is int else
                             ("no-residual" if v is None else "residual"))
    def test_keyword_record_reads_back_every_field_and_its_repr(self, dim, residual):
        # A row of dimension dim holds 2 dim + 5 columns, or one more with a
        # residual; a record reads both from the width, in any dimension.
        ray = Ray([1.0, 1j, 0.5, -0.25][:dim])
        fields = dict(time=0.25, ray=ray, energy_mean=1.5, variance=0.125, third_moment=-0.0625,
                      quadric_residual=residual, wiener_increment_sum=-0.75)
        rec = TrajectoryRecord(**fields)
        assert rec._block.columns().shape == (1, 2 * dim + 5 + (residual is not None))
        for name, value in fields.items():
            if name != "ray" and value is not None:
                assert getattr(rec, name) == value and type(getattr(rec, name)) is float
        assert rec.quadric_residual == residual
        assert rec.ray.vector.tobytes() == ray.vector.tobytes()
        assert not rec.ray.vector.flags.writeable
        assert repr(rec) == (
            f"TrajectoryRecord(time=0.25, ray={ray!r}, energy_mean=1.5, variance=0.125, "
            f"third_moment=-0.0625, quadric_residual={residual!r}, wiener_increment_sum=-0.75)")
        assert rec.trace_row() == [0.25, *ray.vector.view(float).tolist(), 1.5, 0.125, -0.0625,
                                   *([] if residual is None else [residual])]
        for roundtrip in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            assert record_bits([roundtrip(rec)]) == record_bits([rec])
            assert repr(roundtrip(rec)) == repr(rec)
        assert not hasattr(rec, "__dict__")
        for name in (*fields, "_block", "_row", "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(rec, name)

    @pytest.mark.parametrize("roundtrip", [copy.copy, copy.deepcopy,
                                           lambda r: pickle.loads(pickle.dumps(r))])
    def test_records_copy_and_pickle_bit_for_bit(self, roundtrip):
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.4, seed=20240, record_stride=1)
        records, outcome = simulate_trajectory(H, singlet_state(), cfg, 5)
        copied = roundtrip(records)
        assert record_bits(copied) == record_bits(records)
        assert copied[0]._block is copied[127]._block  # a block is copied once, not per record
        final = roundtrip(outcome.final_record)
        assert record_bits([final]) == record_bits([records[-1]])
        with pytest.raises(AttributeError):
            final.time = 0.0
        kw = TrajectoryRecord(0.5, Ray([1.0, 1.0]), 0.5, 0.25, 0.0, None, 0.125)
        assert record_bits([roundtrip(kw)]) == record_bits([kw])

    def test_block_columns_do_not_view_the_scratch_buffer(self):
        # The loop reuses one buffer of probabilities for every block; a
        # block's records must keep their values when the next block is built.
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=2.0, seed=20240, record_stride=1)
        records, outcome = simulate_trajectory(H, singlet_state(), cfg, 7)
        assert cfg.n_steps == 1000 and len(records) == 1001 and not outcome.collapsed
        cut, _ = simulate_trajectory(H, singlet_state(), replace(cfg, t_max=127 * cfg.dt), 7)
        assert len(cut) == dynamics._RECORD_BLOCK == 128
        assert record_bits(records[:128]) == record_bits(cut)

    def test_sigma_zero_never_collapses_and_preserves_uncertainty(self):
        # at sigma = 0 the split step leaves the eigenbasis probabilities,
        # and so V, unchanged up to round-off, however many steps it takes
        H = Observable([[0.02, 0.01], [0.01, 0.05]])
        psi0 = np.array([0.6, 0.8])
        for dt in (4e-7, 2e-7):
            cfg = SdeConfig(sigma=0.0, dt=dt, t_max=0.004, seed=0, record_stride=10**9)
            records, outcome = simulate_trajectory(H, psi0, cfg)
            assert not outcome.collapsed
            assert records[0].variance == variance(H, psi0)
            assert abs(records[-1].variance - records[0].variance) <= 1e-12

    def test_sigma_zero_matches_unitary_evolution(self):
        rng = np.random.default_rng(113)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = Observable((a + a.conj().T) / 2)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        for dt in (2e-3, 1e-3):
            cfg = SdeConfig(sigma=0.0, dt=dt, t_max=1.0, seed=0,
                            record_stride=int(round(0.25 / dt)))
            records, _ = simulate_trajectory(H, z, cfg)
            assert len(records) == 5
            for r in records:
                assert r.ray.approx_eq(Ray(unitary_evolve(H, z, r.time).amplitudes), tol=1e-12)
            assert abs(records[-1].variance - records[0].variance) <= 1e-12

    def test_singlet_collapses_to_product_state(self):
        H = build_epr_hamiltonian(FilterCoupling.from_values(1.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=800.0, seed=11, record_stride=500)
        records, outcome = simulate_trajectory(H, singlet_state(), cfg)
        assert outcome.collapsed
        assert outcome.final_record.quadric_residual < 1e-3
        # collapsed eigenspace carries nearly all of the state
        spaces = eigensystem(H)
        psi = outcome.final_record.ray.vector
        proj = spaces[outcome.eigenspace_index].projector
        assert np.vdot(psi, proj @ psi).real > 1.0 - 1e-6
        # the nondegenerate outcomes are the split pair, eigenvalues 2 or 3
        assert spaces[outcome.eigenspace_index].eigenvalue in (2.0, 3.0)

    def test_records_respect_stride_and_carry_wiener_sum(self):
        H = TWO_LEVEL
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.05, seed=21, record_stride=10)
        records, outcome = simulate_trajectory(H, BALANCED, cfg, trajectory_index=2)
        times = [r.time for r in records]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.05)
        for t in times[:-1]:
            assert (round(t / cfg.dt) % 10) == 0
        # realized Wiener path: recompute independently from the noise streams
        expect_w = 0.0
        by_time = {round(r.time / cfg.dt): r for r in records}
        sq = np.sqrt(cfg.dt)
        for k in range(cfg.n_steps):
            if k in by_time:
                assert by_time[k].wiener_increment_sum == pytest.approx(expect_w, abs=1e-14)
            expect_w += float(step_normals(cfg.seed, k, 3)[2]) * sq
        assert records[-1].wiener_increment_sum == pytest.approx(expect_w, abs=1e-14)
        for rec in records:
            assert rec.variance >= 0.0
            assert np.linalg.norm(rec.ray.vector) == pytest.approx(1.0, abs=1e-12)
        assert not outcome.collapsed

    def test_final_step_recorded_once_after_the_last_stride(self):
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.05, seed=21, record_stride=7)
        records, outcome = simulate_trajectory(TWO_LEVEL, BALANCED, cfg)
        times = [r.time for r in records]
        assert not outcome.collapsed
        assert times[-2:] == pytest.approx([0.049, 0.05], abs=1e-15)
        assert len(set(times)) == len(times)

    @pytest.mark.parametrize("t_max, collapsed", [(0.05, False), (50.0, True)])
    def test_final_record_is_the_last_record(self, t_max, collapsed):
        cfg = SdeConfig(sigma=1.0, dt=1e-3, t_max=t_max, seed=21, record_stride=7,
                        collapse_variance_tol=1e-4)
        records, outcome = simulate_trajectory(TWO_LEVEL, BALANCED, cfg)
        assert outcome.collapsed is collapsed
        last = records[-1]
        final = outcome.final_record
        for name in ("time", "energy_mean", "variance", "third_moment",
                     "quadric_residual", "wiener_increment_sum"):
            assert getattr(final, name) == getattr(last, name)
        np.testing.assert_array_equal(final.ray.vector, last.ray.vector)
        if collapsed:
            # off the stride, so the collapse step is recorded on its own
            assert round(outcome.hitting_time / cfg.dt) % 7 != 0
            assert final.time == outcome.hitting_time

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_carries_the_last_record_written(self, monkeypatch):
        import qreduce.dynamics as dynamics

        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.05, seed=21, record_stride=3)
        reference, _ = simulate_trajectory(TWO_LEVEL, BALANCED, cfg)
        real = dynamics.step_normals

        def inf_at_step_7(seed, step, count, start=0):
            out = real(seed, step, count, start)
            return np.full(out.size, np.inf) if step == 7 else out

        monkeypatch.setattr(dynamics, "step_normals", inf_at_step_7)
        with pytest.raises(IntegrationFailureError, match="step 8") as info:
            simulate_trajectory(TWO_LEVEL, BALANCED, cfg)
        last = info.value.last_record
        # records at steps 0, 3 and 6 were written before step 7 failed
        expect = reference[2]
        assert last.time == expect.time == 6 * cfg.dt
        np.testing.assert_array_equal(last.ray.vector, expect.ray.vector)
        assert (last.variance, last.wiener_increment_sum) == (
            expect.variance, expect.wiener_increment_sum)

    def test_a_high_index_draws_at_most_one_group_per_step(self, monkeypatch):
        import qreduce.dynamics as dynamics

        index = 19_999
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.02, seed=21)
        real = dynamics.step_normals
        received = []

        def counted(*args):
            out = real(*args)
            received.append(out.size)
            return out

        monkeypatch.setattr(dynamics, "step_normals", counted)
        records, _ = simulate_trajectory(TWO_LEVEL, BALANCED, cfg, trajectory_index=index)
        assert len(received) == cfg.n_steps
        assert max(received) <= NOISE_GROUP
        expect_w = sum(float(real(cfg.seed, k, index + 1)[index]) for k in range(cfg.n_steps))
        assert records[-1].wiener_increment_sum == pytest.approx(
            expect_w * math.sqrt(cfg.dt), abs=1e-14)

    def test_bit_reproducible_and_index_sensitive(self):
        H = TWO_LEVEL
        cfg = SdeConfig(sigma=1.0, dt=1e-3, t_max=0.2, seed=33, record_stride=50)
        r1, o1 = simulate_trajectory(H, BALANCED, cfg, trajectory_index=3)
        r2, o2 = simulate_trajectory(H, BALANCED, cfg, trajectory_index=3)
        assert len(r1) == len(r2)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.ray.vector, b.ray.vector)
            assert a.wiener_increment_sum == b.wiener_increment_sum
        assert o1.collapsed == o2.collapsed
        r3, _ = simulate_trajectory(H, BALANCED, cfg, trajectory_index=0)
        assert any(
            not np.array_equal(a.ray.vector, b.ray.vector) for a, b in zip(r1, r3)
        )

    @pytest.mark.parametrize("index", [True, 1.5, "3", -1, None])
    def test_trajectory_index_must_be_an_integer_at_least_zero(self, index):
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.01, seed=2)
        with pytest.raises(ValidationError, match="trajectory_index must be an integer >= 0"):
            simulate_trajectory(TWO_LEVEL, BALANCED, cfg, index)

    def test_trajectory_index_below_the_noise_counter_bound(self):
        # The Philox counter holds index // NOISE_GROUP in 64 bits.
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.003, seed=2)
        bound = NOISE_GROUP * 2**64
        records, _ = simulate_trajectory(TWO_LEVEL, BALANCED, cfg, bound - 1)
        assert len(records) == cfg.n_steps + 1
        with pytest.raises(ValidationError, match="trajectory_index must be an integer >= 0"):
            simulate_trajectory(TWO_LEVEL, BALANCED, cfg, bound)

    def test_a_numpy_integer_index_is_that_index(self):
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.01, seed=2)
        records, _ = simulate_trajectory(TWO_LEVEL, BALANCED, cfg, np.int64(2))
        expected, _ = simulate_trajectory(TWO_LEVEL, BALANCED, cfg, 2)
        assert [r.wiener_increment_sum for r in records] == [
            r.wiener_increment_sum for r in expected]

    def test_quadric_residual_only_in_dimension_four(self):
        cfg = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.01, seed=2)
        records, _ = simulate_trajectory(TWO_LEVEL, BALANCED, cfg)
        assert all(r.quadric_residual is None for r in records)
        H4 = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        records4, _ = simulate_trajectory(H4, singlet_state(), cfg)
        assert all(r.quadric_residual is not None for r in records4)


class TestVarianceDriftEstimate:
    CFG = SdeConfig(sigma=1.0, dt=1e-3, t_max=5.0, seed=5)

    def test_requires_enough_trajectories(self):
        with pytest.raises(ValidationError):
            variance_drift_estimate(TWO_LEVEL, BALANCED, self.CFG, 50)

    @pytest.mark.parametrize("n_traj", [150.5, "200", True, 99])
    def test_n_traj_must_be_an_integer_of_at_least_100(self, n_traj):
        with pytest.raises(ValidationError, match="n_traj must be an integer >= 100"):
            variance_drift_estimate(TWO_LEVEL, BALANCED, self.CFG, n_traj)

    def test_sigma_zero_has_no_regressor(self):
        cfg = SdeConfig(sigma=0.0, dt=1e-3, t_max=0.2, seed=5)
        with pytest.raises(InsufficientDataError):
            variance_drift_estimate(TWO_LEVEL, BALANCED, cfg, 200)

    def test_eigenvector_start_collapses_immediately(self):
        with pytest.raises(InsufficientDataError):
            variance_drift_estimate(TWO_LEVEL, [1.0, 0.0], self.CFG, 200)

    def test_slope_is_unity(self):
        slope, stderr = variance_drift_estimate(TWO_LEVEL, BALANCED, self.CFG, 800)
        assert slope == pytest.approx(1.0, abs=0.1)
        assert 0.0 < stderr < 0.1


ROTATED_H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0),
                                  FilterOrientation(theta=math.pi / 3.0))


def batch_problem(H, psi0, cfg, checkpoint_steps):
    """Keyword arguments of run_reduction_batch, from the start run_ensemble takes them from.

    ``_start`` is given sigma = 0, which passes its stability guard whatever
    the step: the engine does not check the guard, and some tests step
    beyond it. Nothing else of the start depends on sigma.
    """
    s = dynamics._start(H, psi0, replace(cfg, sigma=0.0))
    return dict(evals=s.evals, group_map=s.group_map, psi0_eig=s.psi0_eig, sigma=cfg.sigma,
                dt=cfg.dt, n_steps=cfg.n_steps, tol=s.tol, seed=cfg.seed,
                checkpoint_steps=checkpoint_steps)


ROW_FIELDS = ("outcome_group", "hit_step", "final_probs")


class TestReductionBatch:
    def test_rows_do_not_depend_on_the_block(self):
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=100.0, seed=777)
        kw = batch_problem(ROTATED_H, singlet_state().amplitudes, cfg, (0, 5000, 50000))
        whole = run_reduction_batch(lo=0, hi=40, **kw)
        parts = [run_reduction_batch(lo=lo, hi=hi, **kw) for lo, hi in ((0, 17), (17, 40))]
        for name in ROW_FIELDS:
            np.testing.assert_array_equal(
                getattr(whole, name), np.concatenate([getattr(r, name) for r in parts]))
        np.testing.assert_array_equal(
            whole.checkpoint_probs, np.concatenate([r.checkpoint_probs for r in parts], axis=2))
        # every trajectory starts from the same state
        assert np.all(whole.checkpoint_probs[:, 0] == whole.checkpoint_probs[:, 0, :1])

    def test_zero_components_are_a_pure_restriction(self):
        # Eigenvalues 0, 1, 1, 2.5, 4 (one degenerate eigenspace); the start
        # has no weight on 0 or 2.5.
        H = Observable(np.diag([2.5, 1.0, 0.0, 4.0, 1.0]))
        psi0 = np.array([0.0, 0.6, 0.0, 0.5, 0.3 + 0.4j])
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=40.0, seed=31)
        kw = batch_problem(H, psi0, cfg, (0, 100, 1000, 15000, 20000))
        live = np.flatnonzero(np.abs(kw["psi0_eig"]) ** 2)
        assert live.size == 3
        full = run_reduction_batch(lo=3, hi=203, **kw)
        restricted = run_reduction_batch(
            lo=3, hi=203, **{**kw, "evals": kw["evals"][live],
                             "group_map": kw["group_map"][live],
                             "psi0_eig": kw["psi0_eig"][live]})
        for name in ROW_FIELDS + ("checkpoint_probs",):
            np.testing.assert_array_equal(getattr(full, name), getattr(restricted, name))
        # every trajectory collapsed onto a live eigenspace before the last
        # checkpoints, which therefore hold the final values
        assert set(full.outcome_group) <= set(kw["group_map"][live])
        assert full.hit_step.max() < 15000
        for i in (3, 4):
            np.testing.assert_array_equal(full.checkpoint_probs[:, i], full.final_probs.T)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_rows_retire_as_failed(self):
        # sigma far beyond the stability guard overflows the multiplier, so
        # every trajectory turns NaN after one step
        cfg = SdeConfig(sigma=1e150, dt=1e-3, t_max=0.01, seed=3)
        kw = batch_problem(TWO_LEVEL, BALANCED, cfg, (0, 5))
        res = run_reduction_batch(lo=0, hi=6, **kw)
        assert np.all(res.outcome_group == -2)
        assert np.all(res.hit_step == 1)
        # each failed row keeps its non-finite retirement probabilities
        assert not np.isfinite(res.final_probs).all(axis=1).any()
        assert not np.isfinite(res.checkpoint_probs[:, 1]).all(axis=0).any()
        np.testing.assert_array_equal(res.checkpoint_probs[:, 1], res.final_probs.T)


def reference_row_sum(a):
    """Rows of ``a`` added in row order: the engine's arithmetic, kept here as written."""
    total = a[0] + a[1] if len(a) > 1 else a[0].copy()
    for row in a[2:]:
        total += row
    return total


def reference_batch(evals, group_map, psi0_eig, sigma, dt, n_steps, tol, seed, lo, hi,
                    checkpoint_steps):
    """run_reduction_batch as a plain loop that never compacts its rows.

    Every row of the block stays in one (live, n) array; a step updates the
    active columns only. The moments, the split step and the renormalisation
    are the engine's operations on the same operands in the same order, so
    the results must agree bit for bit. Like the engine, it records each
    row's probabilities at the checkpoints and at its end.
    """
    n = hi - lo
    p0 = np.abs(psi0_eig) ** 2
    live = np.flatnonzero(p0)
    p = np.repeat(p0[live, None], n, axis=1)
    p /= reference_row_sum(p)
    lam = evals[live]
    to_group = np.zeros((int(group_map.max()) + 1, live.size))
    to_group[group_map[live], np.arange(live.size)] = 1.0
    c1, c2 = 0.5 * sigma, (sigma**2 / 8.0) * dt

    outcome = np.full(n, -1, dtype=np.int64)
    hit_step = np.full(n, -1, dtype=np.int64)
    final_probs = np.zeros((n, live.size))
    cp = {s: i for i, s in enumerate(checkpoint_steps)}
    cp_probs = np.zeros((live.size, len(cp), n))
    cp_seen = np.zeros((len(cp), n), dtype=bool)
    active = np.ones(n, dtype=bool)
    for k in range(n_steps + 1):
        m = reference_row_sum(lam[:, None] * p)
        w = lam[:, None] - m
        v = reference_row_sum(p * (w * w))
        if k in cp:
            cp_probs[:, cp[k], active] = p[:, active]
            cp_seen[cp[k]] = active
        ending = active & ~(v >= tol) if k < n_steps else active.copy()
        for j in np.flatnonzero(ending):
            failed = not np.isfinite(v[j])
            if not v[j] >= tol:
                outcome[j] = -2 if failed else np.argmax(to_group @ p[:, j])
                hit_step[j] = k
            final_probs[j] = p[:, j]
        active &= ~ending
        if not active.any():
            break
        dw = dynamics.step_normals(seed, k, hi)[lo:hi][active] * math.sqrt(dt)
        pa, wa = p[:, active], w[:, active]
        mult = c1 * dw - c2 * wa
        mult *= wa
        mult += 1.0
        mult *= mult
        pa *= mult
        pa /= reference_row_sum(pa)
        p[:, active] = pa
    for c, j in zip(*np.nonzero(~cp_seen)):
        cp_probs[:, c, j] = final_probs[j]
    return dict(outcome_group=outcome, hit_step=hit_step, checkpoint_probs=cp_probs,
                final_probs=final_probs)


# (Hamiltonian, start) with 1, 2, 4 and 8 live components; the 8-component
# Hamiltonian has a degenerate eigenspace.
REFERENCE_CASES = {
    "1 live": (Observable(np.diag([0.0, 1.0, 2.5])), [0.0, 1.0, 0.0]),
    "2 live": (build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)),
               singlet_state().amplitudes),
    "4 live": (ROTATED_H, singlet_state().amplitudes),
    "8 live": (Observable(np.diag([0.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 6.0])),
               np.linspace(1.0, 2.0, 8) * np.exp(1j * np.arange(8))),
}
REFERENCE_CFG = SdeConfig(sigma=4.0, dt=2e-3, t_max=2.0, seed=41, collapse_variance_tol=1e-4)
REFERENCE_BLOCKS = [(5, 6), (0, 7), (11, 20), (0, 300)]
REFERENCE_CHECKPOINTS = (0, 7, 500, 1000)
# The engine's checkpoint cursor at its edges: no checkpoint at step 0, one
# on step 902, where rows of "2 live" and "8 live" retire (the only row of
# "8 live" block 5..6 among them), and two after their last retirement, 997.
CURSOR_CHECKPOINTS = (902, 998, 1000)


def reference_problem(case, checkpoints=REFERENCE_CHECKPOINTS):
    H, psi0 = REFERENCE_CASES[case]
    return batch_problem(H, psi0, REFERENCE_CFG, checkpoints)


class TestBitwiseReference:
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    @pytest.mark.parametrize("lo,hi,checkpoints", [
        pytest.param(lo, hi, cps, id=f"{lo}-{hi}{name}")
        for name, cps in (("", REFERENCE_CHECKPOINTS), ("-cursor", CURSOR_CHECKPOINTS))
        for lo, hi in REFERENCE_BLOCKS])
    def test_equals_the_reference_loop(self, case, lo, hi, checkpoints):
        kw = reference_problem(case, checkpoints)
        res = run_reduction_batch(lo=lo, hi=hi, **kw)
        for name, expected in reference_batch(lo=lo, hi=hi, **kw).items():
            assert np.array_equal(getattr(res, name), expected), name

    def test_cases_retire_rows_mid_run_and_keep_some_to_the_end(self):
        assert REFERENCE_CFG.n_steps == 1000
        hit = run_reduction_batch(lo=0, hi=300, **reference_problem("1 live")).hit_step
        assert np.all(hit == 0)
        for case in ("2 live", "4 live", "8 live"):
            hit = run_reduction_batch(lo=0, hi=300, **reference_problem(case)).hit_step
            assert np.any(hit > 0) and np.any(hit == -1), case
            if case != "4 live":  # where CURSOR_CHECKPOINTS lie
                assert CURSOR_CHECKPOINTS[0] in hit and hit.max() < CURSOR_CHECKPOINTS[1], case
        # every row of these blocks retires before the last checkpoint
        for case, (lo, hi) in (("2 live", (11, 20)), ("8 live", (5, 6))):
            hit = run_reduction_batch(lo=lo, hi=hi, **reference_problem(case)).hit_step
            assert np.all((0 < hit) & (hit < 1000)), case

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_nan_row_retires_as_failed_like_the_reference(self, monkeypatch):
        original = dynamics.step_normals

        def nan_at_entry_4(seed, step, count, start=0):
            out = original(seed, step, count, start)
            if step == 30 and start <= 4 < count:
                out[4 - start] = np.nan
            return out

        monkeypatch.setattr(dynamics, "step_normals", nan_at_entry_4)
        kw = reference_problem("2 live", (0, 10, 31, 250))
        res = run_reduction_batch(lo=0, hi=9, **kw)
        assert res.outcome_group[4] == -2 and res.hit_step[4] == 31
        assert np.all(np.delete(res.hit_step, 4) != 31)
        for name, expected in reference_batch(lo=0, hi=9, **kw).items():
            assert np.array_equal(getattr(res, name), expected, equal_nan=True), name


class TestEngineRow:
    """``simulate_trajectory(i)`` is row i of ``run_reduction_batch``, bit for bit."""

    CFG = SdeConfig(sigma=2.0, dt=2e-3, t_max=8.0, seed=20240, record_stride=500)
    CHECKPOINTS = (0, 500, 1000, 2000, 4000)  # record steps of CFG
    # noise groups 0, 0/1 across the edge at 2 048, and 9
    BLOCKS = ((0, 17), (2040, 2057), (19983, 20000))

    HAMILTONIANS = {
        "split": build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)),
        "rotated": ROTATED_H,
    }

    @pytest.mark.parametrize("name", list(HAMILTONIANS))
    def test_outcome_hit_step_and_final_moments_equal_the_engine_row(self, name):
        H = self.HAMILTONIANS[name]
        psi0 = singlet_state().amplitudes
        kw = batch_problem(H, psi0, self.CFG, self.CHECKPOINTS)
        lam = kw["evals"][np.flatnonzero(np.abs(kw["psi0_eig"]) ** 2)]
        seen = set()
        for lo, hi in self.BLOCKS:
            rows = run_reduction_batch(lo=lo, hi=hi, **kw)
            for i in range(lo, hi):
                records, outcome = simulate_trajectory(H, psi0, self.CFG, i)
                j = i - lo
                if outcome.collapsed:
                    assert outcome.eigenspace_index == rows.outcome_group[j], i
                    assert outcome.hitting_time == rows.hit_step[j] * self.CFG.dt, i
                else:
                    assert (rows.outcome_group[j], rows.hit_step[j]) == (-1, -1), i
                m, _, v = hilbert.moment_kernel(lam, rows.final_probs[j])
                assert (outcome.final_record.energy_mean, outcome.final_record.variance) \
                    == (m, v), i
                # a checkpoint is the record at its step, or the final one after the hit
                at_step = {round(r.time / self.CFG.dt): r for r in records}
                for c, step in enumerate(self.CHECKPOINTS):
                    record = at_step.get(step, outcome.final_record)
                    assert 0 <= rows.hit_step[j] < step or record.time == step * self.CFG.dt
                    m, _, v = hilbert.moment_kernel(lam, rows.checkpoint_probs[:, c, j])
                    assert (record.energy_mean, record.variance) == (m, v), (i, step)
                seen.add(outcome.collapsed)
        # both kinds of row are compared
        assert seen == {True, False}

    def test_final_ray_is_the_ensemble_final_state(self):
        # bit for bit: both build the state with _amplitudes on a stack of
        # rows, and a row's bits do not depend on the stack
        psi0 = singlet_state().amplitudes
        for name, H in self.HAMILTONIANS.items():
            report = run_ensemble(EnsembleConfig(
                n_traj=12, base=self.CFG, hamiltonian=H, initial_state=psi0,
                checkpoints=(0.0, self.CFG.t_max)), collect_final_states=True)
            for i in (0, 5, 11):
                _, outcome = simulate_trajectory(H, psi0, self.CFG, i)
                expected = Ray(report.final_states[i]).vector
                assert outcome.final_record.ray.vector.tobytes() == expected.tobytes(), (name, i)


class TestFractionalMoments:
    """The closed form of Adler, Brody, Brun and Hughston, J. Phys. A 34 (2001) 8795.

    For weights alpha on the simplex, E[prod_j p_j(t)^alpha_j] equals
    prod_j p_j(0)^alpha_j exp(-sigma^2 t Var_alpha(lam) / 2), with
    Var_alpha(lam) = sum_j alpha_j lam_j^2 - (sum_j alpha_j lam_j)^2, read here
    from the checkpoint probabilities of a run's EnsembleState. t = 0 is left
    out: its spread is a few ulps.
    """

    TIMES = (1.0, 2.0, 5.0, 10.0)
    CASES = {
        "split": (build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)), 20240,
                  [(0.5, 0.5)]),
        "rotated": (ROTATED_H, 777, [(0.25, 0.25, 0.25, 0.25), (0.5, 0.0, 0.0, 0.5)]),
    }

    def z_scores(self, case, sigma_scale):
        """z of each alpha's checkpoint means against the law at sigma = 1, the engine at
        ``sigma_scale``."""
        H, seed, alphas = self.CASES[case]
        state = run_ensemble(EnsembleConfig(
            n_traj=2000, base=SdeConfig(sigma=sigma_scale, dt=2e-3, t_max=10.0, seed=seed),
            hamiltonian=H, initial_state=singlet_state(), checkpoints=self.TIMES)).state
        lam, p0, probs = state.start.lam, state.start.p0, state.batch.checkpoint_probs
        out = []
        for alpha in map(np.array, alphas):
            var = alpha @ lam**2 - (alpha @ lam) ** 2
            law = np.prod(p0**alpha) * np.exp(-0.5 * np.array(self.TIMES) * var)
            values = np.prod(probs ** alpha[:, None, None], axis=0)  # (checkpoints, rows)
            stderr = values.std(axis=1, ddof=1) / math.sqrt(values.shape[1])
            out.append((values.mean(axis=1) - law) / stderr)
        return np.array(out)

    @pytest.mark.parametrize("case", list(CASES))
    def test_checkpoint_means_follow_the_law(self, case):
        assert np.all(np.abs(self.z_scores(case, 1.0)) < 4.0)

    @pytest.mark.parametrize("case", list(CASES))
    def test_a_ten_percent_sigma_error_is_seen(self, case):
        assert np.all(self.z_scores(case, 1.1) < -4.0)


# The read-ahead needs fork and a second CPU; without them the loops draw directly.
READ_AHEAD = hasattr(os, "fork") and dynamics._usable_cpus() > 1


def assert_no_child():
    """This process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a child process outlived its loop")


def record_bits(records):
    return [(r.time, r.ray.vector.tobytes(), r.energy_mean, r.variance, r.third_moment,
             r.quadric_residual, r.wiener_increment_sum) for r in records]


@pytest.fixture
def companions(monkeypatch):
    """The pids of the read-ahead companions this process starts from now on."""
    pids = []

    class Recorded(dynamics._ReadAhead):
        def __init__(self, *args):
            super().__init__(*args)  # returns in the parent only
            pids.append(self.pid)

    monkeypatch.setattr(dynamics, "_ReadAhead", Recorded)
    return pids


@pytest.fixture
def alarm():
    """Turn a hang of the test into a failure after 60 s."""
    def hung(signum, frame):
        raise TimeoutError("the loop hung")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


SIMULATE_CFG = SdeConfig(sigma=0.5, dt=1e-3, t_max=0.5, seed=3, record_stride=7)


@pytest.mark.skipif(not READ_AHEAD, reason="the read-ahead needs os.fork and two CPUs")
class TestReadAhead:
    """Each loop's companion process, which draws step_normals a chunk ahead."""

    def run_batch(self, monkeypatch):
        run_reduction_batch(lo=0, hi=40, **reference_problem("4 live"))

    def run_simulate(self, monkeypatch):
        simulate_trajectory(TWO_LEVEL, BALANCED, SIMULATE_CFG)

    def run_retiring_in_the_first_chunk(self, monkeypatch):
        cfg = SdeConfig(sigma=8.0, dt=2e-3, t_max=2.0, seed=41, collapse_variance_tol=0.2)
        res = run_reduction_batch(lo=0, hi=20, **batch_problem(*REFERENCE_CASES["2 live"],
                                                              cfg, (0,)))
        assert np.all((0 < res.hit_step) & (res.hit_step < dynamics._AHEAD_STEPS))
        assert cfg.n_steps > 2 * dynamics._AHEAD_STEPS

    def run_with_a_partial_last_chunk(self, monkeypatch):
        res = run_reduction_batch(lo=0, hi=300, **reference_problem("2 live"))
        assert REFERENCE_CFG.n_steps % dynamics._AHEAD_STEPS != 0
        assert np.any(res.hit_step == -1)

    def run_failing(self, monkeypatch):
        real = dynamics.step_normals

        def inf_at_step_7(seed, step, count, start=0):
            out = real(seed, step, count, start)
            return np.full(out.size, np.inf) if step == 7 else out

        monkeypatch.setattr(dynamics, "step_normals", inf_at_step_7)
        with pytest.raises(IntegrationFailureError, match="step 8"):
            simulate_trajectory(TWO_LEVEL, BALANCED, SIMULATE_CFG)

    def run_interrupted(self, monkeypatch):
        real = dynamics._split_step
        calls = []

        def interrupt_at_step_100(*args):
            calls.append(1)
            if len(calls) == 100:
                raise KeyboardInterrupt
            real(*args)

        monkeypatch.setattr(dynamics, "_split_step", interrupt_at_step_100)
        with pytest.raises(KeyboardInterrupt):
            self.run_batch(monkeypatch)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", ["batch", "simulate", "retiring_in_the_first_chunk",
                                      "with_a_partial_last_chunk", "failing", "interrupted"])
    def test_no_companion_outlives_its_loop(self, case, companions, monkeypatch):
        getattr(self, f"run_{case}")(monkeypatch)
        assert len(companions) == 1
        assert_no_child()

    def test_pool_workers_reap_their_companions(self, companions, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the workers must inherit the checking wrapper")
        real = ensemble.run_reduction_batch

        def checked(**kw):  # runs in a pool worker
            companions.clear()
            result = real(**kw)
            if len(companions) != 1:
                raise AssertionError(f"{len(companions)} companions started")
            assert_no_child()
            return result

        monkeypatch.setattr(ensemble, "run_reduction_batch", checked)
        # two noise groups, so two blocks on a process pool
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.2, seed=5)
        run_ensemble(EnsembleConfig(n_traj=NOISE_GROUP + 40, base=cfg, hamiltonian=ROTATED_H,
                                    initial_state=singlet_state(), checkpoints=(0.0, 0.2)),
                     n_workers=2)
        assert companions == []  # none in this process
        assert_no_child()

    def killing_wrapper(self, killed):
        """step_normals, which SIGKILLs the read-ahead companion at step 3."""
        real = dynamics.step_normals

        def kill_at_step_3(seed, step, count, start=0):
            ahead = dynamics._NOISE.ahead
            if step == 3 and ahead is not None and not killed:
                os.kill(ahead.pid, signal.SIGKILL)
                killed.append(ahead)
            return real(seed, step, count, start)

        return kill_at_step_3

    @pytest.mark.parametrize("fault", ["fork fails", "second pipe fails", "companion killed"])
    def test_fallbacks_keep_the_bits(self, fault, monkeypatch, alarm):
        kw = reference_problem("4 live")
        reference = reference_batch(lo=0, hi=300, **kw)
        undisturbed, _ = simulate_trajectory(TWO_LEVEL, BALANCED, SIMULATE_CFG)
        killed, calls = [], []
        if fault == "fork fails":
            def no_fork():
                calls.append(1)
                raise OSError("fork refused")

            monkeypatch.setattr(os, "fork", no_fork)
        elif fault == "second pipe fails":
            real_pipe = os.pipe

            def every_second_pipe_fails():
                calls.append(1)
                if len(calls) % 2 == 0:
                    raise OSError(errno.EMFILE, "Too many open files")
                return real_pipe()

            monkeypatch.setattr(os, "pipe", every_second_pipe_fails)
        else:
            monkeypatch.setattr(dynamics, "step_normals", self.killing_wrapper(killed))

        fds = sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        res = run_reduction_batch(lo=0, hi=300, **kw)
        for name, expected in reference.items():
            assert np.array_equal(getattr(res, name), expected), name
        killed_in_batch = killed[:]
        killed.clear()
        records, _ = simulate_trajectory(TWO_LEVEL, BALANCED, SIMULATE_CFG)
        assert record_bits(records) == record_bits(undisturbed)
        if fds is not None:
            assert sorted(os.listdir("/proc/self/fd")) == fds  # no descriptor leaked

        if fault == "fork fails":
            assert len(calls) == 2
        elif fault == "second pipe fails":
            assert len(calls) == 4
        else:
            # each loop saw its companion die and drew the rest itself
            for ahead in killed_in_batch + killed:
                assert ahead.chunk == ahead.chunks
            assert len(killed_in_batch) == len(killed) == 1
        assert_no_child()

    def test_the_loop_back_fills_a_slow_companion(self, monkeypatch, alarm):
        kw = reference_problem("4 live")
        reference = reference_batch(lo=0, hi=300, **kw)
        undisturbed, _ = simulate_trajectory(TWO_LEVEL, BALANCED, SIMULATE_CFG)
        real, back_filled = dynamics._draw, []

        def slow_draw(seed, step, count, start, out=None):
            # patched before the fork, so the companion draws slowly too; its
            # appends go to its own copy of the list
            time.sleep(2e-4)
            if out is not None:  # only a ring row is drawn into: in the loop, a back-fill
                back_filled.append(step)
            return real(seed, step, count, start, out)

        monkeypatch.setattr(dynamics, "_draw", slow_draw)
        res = run_reduction_batch(lo=0, hi=300, **kw)
        for name, expected in reference.items():
            assert np.array_equal(getattr(res, name), expected), name
        assert back_filled
        back_filled.clear()
        records, _ = simulate_trajectory(TWO_LEVEL, BALANCED, SIMULATE_CFG)
        assert record_bits(records) == record_bits(undisturbed)
        assert back_filled
        assert_no_child()

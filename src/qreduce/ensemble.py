"""Monte Carlo harness over reduction trajectories with statistical verdicts.

Trajectories are embarrassingly parallel: each one is a pure function of
(Hamiltonian, initial state, config, trajectory index), so the ensemble is
partitioned into contiguous index blocks that may run on any number of
workers. Results are reassembled by trajectory index and reduced in that
canonical order, which makes reports bit-identical for a fixed seed
regardless of worker count.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (BatchResult, SdeConfig, _amplitudes, _is, _start, _Start, _usable_cpus,
                       block_bounds, run_reduction_batch)
from .errors import EnsembleFailureError, ValidationError
from .hilbert import (Observable, StateVector, amplitudes_for, eigen_probabilities,
                      eigenspace_index_map, eigensystem, moment_kernel)


@dataclass(frozen=True)
class EnsembleConfig:
    """An ensemble run: how many trajectories of which scenario, observed when.

    The one check of ``n_traj`` and the checkpoint times; ``steps`` holds the
    step of each time. Messages start with the field, for ``config.named``.
    """

    n_traj: int
    base: SdeConfig
    hamiltonian: Observable
    initial_state: StateVector
    checkpoints: tuple[float, ...]
    steps: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not (_is(numbers.Integral, self.n_traj) and self.n_traj >= 1):
            raise ValidationError("n_traj must be a positive integer")
        if not isinstance(self.hamiltonian, Observable):
            object.__setattr__(self, "hamiltonian", Observable(self.hamiltonian))
        if not isinstance(self.initial_state, StateVector):
            object.__setattr__(self, "initial_state", StateVector(self.initial_state))
        amplitudes_for(self.hamiltonian, self.initial_state, "initial_state")
        cps = tuple(float(t) for t in self.checkpoints)
        object.__setattr__(self, "steps", checkpoint_steps(cps, self.base.dt, self.base.t_max))
        object.__setattr__(self, "checkpoints", cps)


def checkpoint_steps(checkpoints, dt: float, t_max: float) -> tuple[int, ...]:
    """Validate checkpoint times and return the step of each.

    The times must lie within [0, t_max] (so none is NaN), be ascending and
    round to distinct steps of ``dt``. Each message starts with ``checkpoints``.
    """
    cps = [float(t) for t in checkpoints]
    if not all(0.0 <= t <= t_max for t in cps):
        raise ValidationError("checkpoints must lie within [0, t_max]")
    if cps != sorted(cps):
        raise ValidationError("checkpoints must be sorted ascending")
    steps = tuple(int(round(t / dt)) for t in cps)
    if len(set(steps)) != len(steps):
        raise ValidationError(f"checkpoints must round to distinct steps of dt = {dt:g}")
    return steps


@dataclass(frozen=True)
class SeriesPoint:
    t: float
    mean: float
    stderr: float


@dataclass(frozen=True)
class EnsembleState:
    """What an ensemble run computed, before any statistic: the engine's rows
    0..n_traj-1 (``batch``) and the run's ``dynamics._Start``. Each statistic
    of the report is one of its methods, in canonical row order."""

    batch: BatchResult
    start: _Start
    steps: tuple[int, ...]  # of the checkpoints
    dt: float
    n_steps: int

    def failed_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.batch.outcome_group == -2).tolist())

    def uncollapsed_count(self) -> int:
        return int(np.count_nonzero(self.batch.outcome_group == -1))

    def outcome_counts(self) -> dict[int, int]:
        outcome = self.batch.outcome_group
        return {i: int(np.count_nonzero(outcome == i)) for i in range(len(self.start.spaces))}

    def expected_born(self) -> dict[int, float]:
        return _born(self.start.group_map, self.start.p)

    def chi_square(self) -> tuple[float, int, float]:
        return _chi_square(self.outcome_counts(), self.expected_born())

    def start_moments(self) -> tuple[float, float]:
        """Energy and uncertainty at the start, the engine's step-0 values."""
        m0, _, v0 = moment_kernel(self.start.lam, self.start.p0)
        return float(m0), float(v0)

    def moment_series(self) -> tuple[tuple[SeriesPoint, ...], tuple[SeriesPoint, ...]]:
        """Energy and V series over the rows that did not fail, one checkpoint
        at a time (a stacked call holds (live, checkpoints, rows) temporaries)."""
        ok = self.batch.outcome_group != -2
        n_ok = int(np.count_nonzero(ok))
        energy, var = [], []
        for i_cp, s in enumerate(self.steps):
            m, _, v = moment_kernel(self.start.lam[:, None],
                                    self.batch.checkpoint_probs[:, i_cp].compress(ok, axis=1))
            for series, vals in ((energy, m), (var, v)):
                mean = float(vals.mean()) if n_ok else math.nan
                std = float(vals.std(ddof=1)) if n_ok > 1 else 0.0
                series.append(SeriesPoint(s * self.dt, mean, std / math.sqrt(max(n_ok, 1))))
        return tuple(energy), tuple(var)

    def final_states(self) -> np.ndarray:
        """(rows, dim) final states: the live phases reattached at each row's end time."""
        s, hit = self.start, self.batch.hit_step
        t_end = np.where(hit >= 0, hit, self.n_steps) * self.dt
        return _amplitudes(s.basis, self.batch.final_probs, s.phase0, s.lam, t_end[:, None])


@dataclass
class EnsembleReport:
    """Aggregated results of one ensemble run, each statistic one of its ``state``'s.

    ``outcome_counts`` maps eigenspace index to the number of trajectories
    collapsed there; uncollapsed and failed trajectories are excluded from the
    counts and reported separately. ``wall_clock`` and ``state`` (None in a
    report built by hand) are in memory only, not in the serialized report.
    """

    n_traj: int
    sigma: float
    dt: float
    t_max: float
    seed: int
    checkpoints: tuple[float, ...]
    eigenvalues: tuple[float, ...]
    eigenspace_dims: tuple[int, ...]
    outcome_counts: dict[int, int]
    expected_born: dict[int, float]
    chi_square: float
    chi_square_dof: int
    chi_square_pvalue: float
    energy_mean_series: tuple[SeriesPoint, ...]
    variance_mean_series: tuple[SeriesPoint, ...]
    initial_energy: float
    initial_variance: float
    uncollapsed_count: int
    failed_indices: tuple[int, ...]
    wall_clock: float
    final_states: np.ndarray | None = field(default=None, repr=False)
    state: EnsembleState | None = field(default=None, repr=False, compare=False)

    def collapsed_count(self) -> int:
        return sum(self.outcome_counts.values())

    def to_json_dict(self) -> dict:
        """Report fields as plain JSON types, stable keys, reproducible values.

        ``wall_clock``, ``final_states`` and ``state`` are deliberately omitted: the
        serialized report must be byte-identical across reruns of the same
        (config, seed) with any worker count.
        """
        return {
            "n_traj": int(self.n_traj),
            "sigma": float(self.sigma),
            "dt": float(self.dt),
            "t_max": float(self.t_max),
            "seed": int(self.seed),
            "checkpoints": [float(t) for t in self.checkpoints],
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "eigenspace_dims": [int(d) for d in self.eigenspace_dims],
            "outcome_counts": {str(k): int(v) for k, v in self.outcome_counts.items()},
            "expected_born": {str(k): float(v) for k, v in self.expected_born.items()},
            "chi_square": float(self.chi_square),
            "chi_square_dof": int(self.chi_square_dof),
            "chi_square_pvalue": float(self.chi_square_pvalue),
            **{name: [{"t": float(s.t), "mean": float(s.mean), "stderr": float(s.stderr)}
                      for s in getattr(self, name)]
               for name in ("energy_mean_series", "variance_mean_series")},
            "initial_energy": float(self.initial_energy),
            "initial_variance": float(self.initial_variance),
            "uncollapsed_count": int(self.uncollapsed_count),
            "failed_indices": [int(i) for i in self.failed_indices],
        }


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of one statistical test over an ensemble report."""

    name: str
    passed: bool
    applicable: bool = True
    details: dict = field(default_factory=dict)


def born_expected(H: Observable, psi0) -> dict[int, float]:
    """Born probabilities per eigenspace: the eigenbasis probabilities of ``psi0``
    (``hilbert.eigen_probabilities``) summed over each of ``eigensystem``'s spaces."""
    return _born(eigenspace_index_map(eigensystem(H)), eigen_probabilities(H, psi0, "psi0")[1])


def _born(group_map: np.ndarray, p: np.ndarray) -> dict[int, float]:
    return dict(enumerate(np.bincount(group_map, p).tolist()))


def _run_block(args) -> BatchResult:
    # Module-level, so the pool pickles it by name: a traced run_reduction_batch is a closure.
    return run_reduction_batch(**args)


def run_ensemble(
    cfg: EnsembleConfig,
    n_workers: int = 1,
    collect_final_states: bool = False,
) -> EnsembleReport:
    """Run the ensemble and report the statistics of its ``EnsembleState``.

    Parameters
    ----------
    cfg : EnsembleConfig
    n_workers : int
        Number of trajectory blocks, an integer >= 1 (not a bool); at most
        one per noise group (``dynamics.block_bounds``). The pool has one
        process per block, up to the usable CPUs. Purely a throughput knob:
        the report is bit-identical for any value because trajectory blocks
        are independent and joined in canonical index order.
    collect_final_states : bool
        Attach ``EnsembleState.final_states()``, (n_traj, dim) in the original
        basis, to the report for geometric diagnostics. Not serialized.

    Raises ValidationError for any other ``n_workers``, and
    EnsembleFailureError if more than 1% of trajectories fail to integrate.
    """
    t_start = time.perf_counter()
    if not (_is(numbers.Integral, n_workers) and n_workers >= 1):
        raise ValidationError(f"n_workers must be an integer >= 1, got {n_workers!r}")
    start = _start(cfg.hamiltonian, cfg.initial_state, cfg.base)
    problem = dict(evals=start.evals, group_map=start.group_map, psi0_eig=start.psi0_eig,
                   sigma=cfg.base.sigma, dt=cfg.base.dt, n_steps=cfg.base.n_steps,
                   tol=start.tol, seed=cfg.base.seed, checkpoint_steps=cfg.steps)
    bounds = block_bounds(cfg.n_traj, int(n_workers))
    blocks = [dict(problem, lo=lo, hi=hi) for lo, hi in zip(bounds, bounds[1:])]
    if len(blocks) == 1:
        batch = _run_block(blocks[0])
    else:
        # Imported here: the process pool pulls in multiprocessing, which a
        # single-block run or ``qreduce simulate`` never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(blocks), _usable_cpus())) as pool:
            results = [f.result() for f in [pool.submit(_run_block, b) for b in blocks]]
        # Blocks are contiguous and in index order, so joining each field
        # along its row axis in block order puts every row at its global index.
        batch = BatchResult(**{name: np.concatenate([getattr(r, name) for r in results], axis)
                               for name, axis in (("outcome_group", 0), ("hit_step", 0),
                                                  ("checkpoint_probs", 2), ("final_probs", 0))})
    state = EnsembleState(batch=batch, start=start, steps=cfg.steps, dt=cfg.base.dt,
                          n_steps=cfg.base.n_steps)
    failed = state.failed_indices()
    if len(failed) > 0.01 * cfg.n_traj:
        raise EnsembleFailureError(
            f"{len(failed)} of {cfg.n_traj} trajectories failed to integrate")
    chi2, dof, pval = state.chi_square()
    energy_series, var_series = state.moment_series()
    m0, v0 = state.start_moments()
    return EnsembleReport(
        n_traj=cfg.n_traj, sigma=cfg.base.sigma, dt=cfg.base.dt, t_max=cfg.base.t_max,
        seed=cfg.base.seed, checkpoints=cfg.checkpoints,
        eigenvalues=tuple(float(e.eigenvalue) for e in start.spaces),
        eigenspace_dims=tuple(int(e.dimension) for e in start.spaces),
        outcome_counts=state.outcome_counts(), expected_born=state.expected_born(),
        chi_square=chi2, chi_square_dof=dof, chi_square_pvalue=pval,
        energy_mean_series=energy_series, variance_mean_series=var_series,
        initial_energy=m0, initial_variance=v0,
        uncollapsed_count=state.uncollapsed_count(), failed_indices=failed,
        final_states=state.final_states() if collect_final_states else None, state=state,
        wall_clock=time.perf_counter() - t_start,
    )


def _chi_square(counts: dict[int, int], expected: dict[int, float]) -> tuple[float, int, float]:
    """Goodness-of-fit statistic of collapse counts against Born weights.

    Uncollapsed/failed trajectories are already excluded from ``counts``.
    The degrees of freedom are the eigenspaces with Born weight, minus one
    (at least 1). An eigenspace with zero Born weight contributes only if
    observed, and then the statistic is infinite. With no collapsed
    trajectories the statistic is 0 with 0 degrees of freedom.

    The p-value is ``chi2_sf(dof, stat)``, so no run imports scipy.
    """
    n_coll = sum(counts.values())
    if n_coll == 0:
        return 0.0, 0, 1.0
    stat = 0.0
    n_cells = 0
    for k, p in expected.items():
        obs = counts.get(k, 0)
        if p > 0.0:
            exp = p * n_coll
            stat += (obs - exp) ** 2 / exp
            n_cells += 1
        elif obs > 0:
            stat = math.inf
    dof = max(n_cells - 1, 1)
    return float(stat), dof, chi2_sf(dof, stat)


def chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with a positive integer ``dof``.

    With h = x / 2 the tail is a finite sum: ``e^-h sum_{j<n} h^j / j!`` for
    dof = 2n, and ``erfc(sqrt h) + e^-h sum_{j<n} h^(j+1/2) / Gamma(j+3/2)``
    for dof = 2n + 1. Each term is exp(log(term) - h), its logarithm taken
    from the one before, so neither e^-h nor h^j / j! under- or overflows on
    its own.
    """
    h = x / 2.0
    if h <= 0.0:
        return 1.0
    if h == math.inf:
        return 0.0  # the terms would be exp(inf - inf)
    n, odd = divmod(dof, 2)
    log_h = math.log(h)
    if odd:
        q, a, log_term = math.erfc(math.sqrt(h)), 1.5, 0.5 * log_h - math.lgamma(1.5)
    else:
        q, a, log_term = 0.0, 1.0, 0.0
    for _ in range(n):
        q += math.exp(log_term - h)
        log_term += log_h - math.log(a)
        a += 1.0
    return min(q, 1.0)  # rounding can pass 1 when x is near 0


# The verdicts' fixed thresholds.
Z_LIMIT = 4.0            # standard errors a checkpoint mean may stray (martingale, decay)
FINAL_FRACTION = 0.01    # of V_0: the final mean V of a fully reduced horizon
HORIZON_THRESHOLD = 50.0  # sigma^2 V_0 t_max from which full reduction is expected
SIGNIFICANCE = 0.01      # chi-square p-value below which the Born counts fail


def martingale_test(report: EnsembleReport) -> TestVerdict:
    """Check that the ensemble mean energy stays at its initial value.

    The reduction dynamics makes <H> a martingale, so at every checkpoint the
    z-score (mean_t - mean_0) / stderr_t must be small; the verdict passes iff
    all |z| < ``Z_LIMIT``. A checkpoint with zero spread and a mean within
    roundoff of the initial energy scores exactly 0.
    """
    if len(report.energy_mean_series) < 2:
        raise ValidationError("martingale test needs at least two checkpoints")
    m0 = report.initial_energy
    scale = max(1.0, abs(m0))
    z_scores = []
    for pt in report.energy_mean_series:
        diff = pt.mean - m0
        if pt.stderr > 0.0:
            z = diff / pt.stderr
        else:
            z = 0.0 if abs(diff) <= 1e-10 * scale else math.inf
        z_scores.append(float(z))
    passed = all(abs(z) < Z_LIMIT for z in z_scores)
    return TestVerdict(
        name="energy_martingale",
        passed=passed,
        details={"z_scores": z_scores, "z_limit": Z_LIMIT},
    )


def variance_decay_test(report: EnsembleReport) -> TestVerdict:
    """Check monotone decay of the mean uncertainty across checkpoints.

    The mean of V is non-increasing for the reduction dynamics; each
    consecutive checkpoint pair must satisfy mean_{k+1} <= mean_k within
    ``Z_LIMIT`` combined standard errors. When the horizon is long enough for
    full reduction (sigma^2 V_0 t_max >= ``HORIZON_THRESHOLD``, to a relative
    4 ulps, so the rounding of V_0 cannot decide it) the final mean must
    additionally drop below ``FINAL_FRACTION`` of V_0. With sigma = 0 the
    flow preserves V and the test is not applicable.
    """
    if len(report.variance_mean_series) < 2:
        raise ValidationError("variance decay test needs at least two checkpoints")
    series = report.variance_mean_series
    if report.sigma == 0.0:
        return TestVerdict(
            name="variance_decay",
            passed=True,
            applicable=False,
            details={"reason": "sigma = 0 preserves the uncertainty"},
        )
    increases = []
    monotone = True
    for a, b in zip(series, series[1:]):
        allowance = Z_LIMIT * math.hypot(a.stderr, b.stderr)
        if b.mean > a.mean + allowance:
            monotone = False
        increases.append(b.mean - a.mean)
    v0 = report.initial_variance
    details: dict = {"monotone": monotone, "increments": increases}
    passed = monotone
    horizon = report.sigma**2 * v0 * report.t_max
    if horizon >= HORIZON_THRESHOLD * (1.0 - 4 * sys.float_info.epsilon) and v0 > 0.0:
        final_ok = series[-1].mean < FINAL_FRACTION * v0
        details["final_mean"] = series[-1].mean
        details["final_bound"] = FINAL_FRACTION * v0
        passed = passed and final_ok
    return TestVerdict(name="variance_decay", passed=passed, details=details)


def born_frequency_test(report: EnsembleReport) -> TestVerdict:
    """Chi-square verdict of collapse counts against the Born weights: passes
    iff the p-value is at least ``SIGNIFICANCE``."""
    if report.collapsed_count() == 0:
        return TestVerdict(
            name="born_frequencies",
            passed=True,
            applicable=False,
            details={"reason": "no collapsed trajectories"},
        )
    passed = report.chi_square_pvalue >= SIGNIFICANCE
    return TestVerdict(
        name="born_frequencies",
        passed=passed,
        details={
            "chi_square": report.chi_square,
            "dof": report.chi_square_dof,
            "p_value": report.chi_square_pvalue,
            "significance": SIGNIFICANCE,
        },
    )


def independence_test(report: EnsembleReport) -> TestVerdict:
    """Check that no two trajectories share their noise, from ``report.state``.

    Independent rows that have taken a step differ almost surely, so two
    non-failed rows with bitwise-equal probabilities at the first checkpoint
    after t = 0 drew the same increments. The marginal law of such rows is
    right, so no other verdict sees them. Rows that retired at step 0 (an
    eigenvector start) have not moved and are left out. The verdict is not
    applicable with sigma = 0, without a checkpoint after t = 0 or with
    fewer than two rows that moved. It costs one sort of the rows.
    """
    state = report.state
    if state is None:
        raise ValidationError("independence test needs the report's ensemble state")
    after = [i for i, s in enumerate(state.steps) if s > 0]
    moved = (state.batch.outcome_group != -2) & (state.batch.hit_step != 0)
    n_moved = int(np.count_nonzero(moved))
    if report.sigma == 0.0 or not after or n_moved < 2:
        return TestVerdict(name="independence", passed=True, applicable=False,
                           details={"reason": "no two rows moved by noise before a checkpoint"})
    rows = np.ascontiguousarray(state.batch.checkpoint_probs[:, after[0]].compress(moved, 1).T)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    duplicates = n_moved - np.unique(keys).size
    return TestVerdict(
        name="independence",
        passed=duplicates == 0,
        details={"t": state.steps[after[0]] * state.dt, "rows": n_moved,
                 "duplicates": duplicates},
    )

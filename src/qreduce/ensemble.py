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
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (SdeConfig, _amplitudes, _batch_moments, _is, _start, _usable_cpus,
                       run_reduction_batch)
from .errors import EnsembleFailureError, ValidationError
from .hilbert import (
    Observable,
    StateVector,
    amplitudes_for,
    eigenspace_weights,
    eigensystem,
    moment_kernel,
    squared_norm,
)


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


@dataclass
class EnsembleReport:
    """Aggregated results of one ensemble run.

    ``outcome_counts`` maps eigenspace index to the number of trajectories
    collapsed there; uncollapsed and failed trajectories are excluded from the
    counts and reported separately. ``wall_clock`` is informational and not
    part of the serialized report.
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

    def collapsed_count(self) -> int:
        return sum(self.outcome_counts.values())

    def to_json_dict(self) -> dict:
        """Report fields as plain JSON types, stable keys, reproducible values.

        ``wall_clock`` and ``final_states`` are deliberately omitted: the
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
            "energy_mean_series": [
                {"t": float(s.t), "mean": float(s.mean), "stderr": float(s.stderr)}
                for s in self.energy_mean_series
            ],
            "variance_mean_series": [
                {"t": float(s.t), "mean": float(s.mean), "stderr": float(s.stderr)}
                for s in self.variance_mean_series
            ],
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
    """Born probabilities per eigenspace: squared projection of the initial state."""
    z = amplitudes_for(H, psi0, "psi0")
    n2 = squared_norm(z, "psi0")
    out = {i: w / n2 for i, w in enumerate(eigenspace_weights(eigensystem(H), z))}
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def _run_block(args) -> "object":
    return run_reduction_batch(**args)


def run_ensemble(
    cfg: EnsembleConfig,
    n_workers: int = 1,
    collect_final_states: bool = False,
) -> EnsembleReport:
    """Run the ensemble and aggregate outcome and moment statistics.

    Parameters
    ----------
    cfg : EnsembleConfig
    n_workers : int
        Number of trajectory blocks, an integer >= 1 (not a bool); capped at
        ``n_traj``. The process pool has one worker per block, up to the
        number of CPUs this process may run on. Purely a throughput knob:
        the report is bit-identical for any value because trajectory blocks
        are independent and aggregation happens in canonical index order.
    collect_final_states : bool
        Attach an (n_traj, dim) array of final states (original basis) to the
        report for geometric diagnostics. Not serialized.

    Raises ValidationError for any other ``n_workers``, and
    EnsembleFailureError if more than 1% of trajectories fail to integrate.
    """
    t_start = time.perf_counter()
    if not (_is(numbers.Integral, n_workers) and n_workers >= 1):
        raise ValidationError(f"n_workers must be an integer >= 1, got {n_workers!r}")
    H = cfg.hamiltonian
    start = _start(H, cfg.initial_state, cfg.base)
    spaces = eigensystem(H)
    n_steps = cfg.base.n_steps
    problem = dict(
        evals=start.evals,
        group_map=start.group_map,
        psi0_eig=start.psi0_eig,
        sigma=cfg.base.sigma,
        dt=cfg.base.dt,
        n_steps=n_steps,
        tol=start.tol,
        seed=cfg.base.seed,
        checkpoint_steps=cfg.steps,
    )
    # n_blocks <= n_traj, so the block bounds are strictly increasing.
    n_blocks = min(int(n_workers), cfg.n_traj)
    bounds = np.linspace(0, cfg.n_traj, n_blocks + 1).astype(int)
    blocks = [dict(problem, lo=int(lo), hi=int(hi)) for lo, hi in zip(bounds, bounds[1:])]
    if len(blocks) == 1:
        results = [_run_block(b) for b in blocks]
    else:
        # Imported here: the process pool pulls in multiprocessing, which a
        # single-block run or ``qreduce simulate`` never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(blocks), _usable_cpus())) as pool:
            futures = [pool.submit(_run_block, b) for b in blocks]
            results = [f.result() for f in futures]

    # Blocks are contiguous and in index order, so joining them in block
    # order puts every trajectory at its global index.
    n = cfg.n_traj
    outcome = np.concatenate([r.outcome_group for r in results])
    hit_step = np.concatenate([r.hit_step for r in results])
    cp_probs = np.concatenate([r.checkpoint_probs for r in results], axis=2)

    failed = np.nonzero(outcome == -2)[0]
    if failed.size > 0.01 * n:
        raise EnsembleFailureError(
            f"{failed.size} of {n} trajectories failed to integrate"
        )
    ok = outcome != -2
    uncollapsed = int(np.count_nonzero(outcome == -1))
    counts = {
        i: int(np.count_nonzero(outcome == i)) for i in range(len(spaces))
    }
    expected = born_expected(H, start.z)
    chi2, dof, pval = _chi_square(counts, expected)

    # Moment series over all non-failed trajectories, canonical index order,
    # one checkpoint at a time (a stacked call holds (live, cp, n) temporaries).
    energy_series = []
    var_series = []
    n_ok = int(np.count_nonzero(ok))
    for i_cp, s in enumerate(cfg.steps):
        t = s * cfg.base.dt
        m, _, v = _batch_moments(start.lam[:, None], cp_probs[:, i_cp].compress(ok, axis=1))
        for series, vals in ((energy_series, m), (var_series, v)):
            mean = float(vals.mean()) if n_ok else math.nan
            std = float(vals.std(ddof=1)) if n_ok > 1 else 0.0
            series.append(SeriesPoint(t=t, mean=mean, stderr=std / math.sqrt(max(n_ok, 1))))

    final_states = None
    if collect_final_states:
        # Reattach the phases of the live components at each trajectory's end time.
        t_end = np.where(hit_step >= 0, hit_step, n_steps) * cfg.base.dt
        final_probs = np.vstack([r.final_probs for r in results])
        final_states = _amplitudes(start.basis, final_probs, start.phase0, start.lam,
                                   t_end[:, None])

    m0, v0 = moment_kernel(H.matrix, start.z, 1.0)[:2]

    return EnsembleReport(
        n_traj=n,
        sigma=cfg.base.sigma,
        dt=cfg.base.dt,
        t_max=cfg.base.t_max,
        seed=cfg.base.seed,
        checkpoints=cfg.checkpoints,
        eigenvalues=tuple(float(s.eigenvalue) for s in spaces),
        eigenspace_dims=tuple(int(s.dimension) for s in spaces),
        outcome_counts=counts,
        expected_born=expected,
        chi_square=chi2,
        chi_square_dof=dof,
        chi_square_pvalue=pval,
        energy_mean_series=tuple(energy_series),
        variance_mean_series=tuple(var_series),
        initial_energy=m0,
        initial_variance=v0,
        uncollapsed_count=uncollapsed,
        failed_indices=tuple(int(i) for i in failed),
        wall_clock=time.perf_counter() - t_start,
        final_states=final_states,
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


def martingale_test(report: EnsembleReport, z_limit: float = 4.0) -> TestVerdict:
    """Check that the ensemble mean energy stays at its initial value.

    The reduction dynamics makes <H> a martingale, so at every checkpoint the
    z-score (mean_t - mean_0) / stderr_t must be small; the verdict passes iff
    all |z| < ``z_limit``. A checkpoint with zero spread and a mean within
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
    passed = all(abs(z) < z_limit for z in z_scores)
    return TestVerdict(
        name="energy_martingale",
        passed=passed,
        details={"z_scores": z_scores, "z_limit": z_limit},
    )


def variance_decay_test(
    report: EnsembleReport,
    z_limit: float = 4.0,
    final_fraction: float = 0.01,
    horizon_threshold: float = 50.0,
) -> TestVerdict:
    """Check monotone decay of the mean uncertainty across checkpoints.

    The mean of V is non-increasing for the reduction dynamics; each
    consecutive checkpoint pair must satisfy mean_{k+1} <= mean_k within
    ``z_limit`` combined standard errors. When the horizon is long enough for
    full reduction (sigma^2 V_0 t_max >= ``horizon_threshold``) the final mean
    must additionally drop below ``final_fraction`` of V_0. With sigma = 0 the
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
        allowance = z_limit * math.hypot(a.stderr, b.stderr)
        if b.mean > a.mean + allowance:
            monotone = False
        increases.append(b.mean - a.mean)
    v0 = report.initial_variance
    details: dict = {"monotone": monotone, "increments": increases}
    passed = monotone
    if report.sigma**2 * v0 * report.t_max >= horizon_threshold and v0 > 0.0:
        final_ok = series[-1].mean < final_fraction * v0
        details["final_mean"] = series[-1].mean
        details["final_bound"] = final_fraction * v0
        passed = passed and final_ok
    return TestVerdict(name="variance_decay", passed=passed, details=details)


def born_frequency_test(report: EnsembleReport, significance: float = 0.01) -> TestVerdict:
    """Chi-square verdict of collapse counts against the Born weights."""
    if not 0.0 < significance < 1.0:
        raise ValidationError("significance must be in (0, 1)")
    if report.collapsed_count() == 0:
        return TestVerdict(
            name="born_frequencies",
            passed=True,
            applicable=False,
            details={"reason": "no collapsed trajectories"},
        )
    passed = report.chi_square_pvalue >= significance
    return TestVerdict(
        name="born_frequencies",
        passed=passed,
        details={
            "chi_square": report.chi_square,
            "dof": report.chi_square_dof,
            "p_value": report.chi_square_pvalue,
            "significance": significance,
        },
    )

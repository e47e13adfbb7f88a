"""Time evolution: Schrodinger flow and the energy-driven reduction SDE.

The reduction SDE on the ambient Hilbert space is

    d psi = [-i H - (sigma^2/8) (H - <H>)^2] psi dt + (sigma/2) (H - <H>) psi dW,

followed by renormalization. Ito calculus on it gives exactly

    d<H> = sigma V dW                      (energy martingale)
    dV   = -sigma^2 V^2 dt + sigma B dW    (uncertainty decay)

where V is the quantum uncertainty and B its third central moment, which is
the calibration the drift/diffusion coefficients were chosen for. The drift
forces V -> 0 almost surely, i.e. collapse onto a Hamiltonian eigenspace.

Noise streams are counter-based: the Gaussian increment of trajectory ``i``
at step ``k`` is normal ``i mod 2048`` of the ziggurat stream of a Philox-4x64
generator with key (seed, 0) and counter (0, i // 2048, 0, k). Trajectories
come in groups of 2048 with one stream each, so an entry depends only on
(seed, k, i): every trajectory is bit-reproducible regardless of batching,
scheduling or worker count, and entry ``i`` costs at most the 2048 normals of
its own group, not the ``i`` before it. Group 0 is the single stream keyed by
(seed, k) of earlier versions, so trajectories 0..2047 keep their noise;
entries from 2048 on changed with the grouping.

There is one integration scheme, the split step. Each step is an exact
unitary half (spectral propagator) followed by the Euler-Maruyama
stochastic half. In the Hamiltonian eigenbasis the unitary half is a pure
phase and the stochastic half a real, componentwise multiplier, so the
probabilities p_j evolve on their own and the phases advance
deterministically. The ensemble engine (``run_reduction_batch``) steps the
probabilities of many trajectories at once; ``simulate_trajectory`` steps
one row of it and reattaches the phases only at the steps it records, and
``reduction_step`` is one such step. A plain Euler step in the ambient space
would multiply p_j by an extra 1 + lam_j^2 dt^2, which renormalisation turns
into a drift of the log-odds toward the larger |lam|: a Born bias of O(dt).

The ensemble engine steps only the *live* eigencomponents, those with
nonzero weight in the initial state: the multiplier is componentwise, so an
exact zero stays exactly zero and dropping it changes no result (the spin-0
singlet under the split filter has 2 live components of 4). Probabilities
are stored as a (live components, active trajectories) array and every
per-trajectory sum runs over the components in a fixed order with
elementwise operations, so a trajectory's numbers do not depend on which or
how many other trajectories share its batch. The engine needs only numpy,
and so does the ensemble's chi-square tail (``qreduce.chi2``).
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import (
    ConfigurationError,
    InsufficientDataError,
    IntegrationFailureError,
    ValidationError,
)
from .geometry import quadric_residual
from .hilbert import (Observable, Ray, StateVector, amplitudes_for, eigenspace_index_map,
                      eigensystem, variance)

# Hard ceiling on sigma^2 ||H||^2 dt; beyond this the Euler noise kicks are
# no longer small relative to the state and the discretization is unreliable.
STABILITY_LIMIT = 0.1

_U64_MAX = 2**64 - 1

# Trajectories per noise stream: see step_normals.
NOISE_GROUP = 2048

# Per-thread cache of the generator behind step_normals.
_NOISE = threading.local()


def _is(kind, v) -> bool:
    """``v`` is a ``kind`` of number, not a bool, and finite as a float."""
    return isinstance(v, kind) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass(frozen=True)
class SdeConfig:
    """Parameters of one reduction integration, and the one check of them.

    sigma : noise strength >= 0, units energy^-1 time^-1/2
    dt : time step > 0
    t_max : integration horizon; it must round to a finite number >= 1 of steps
    collapse_variance_tol : uncertainty threshold > 0 declaring collapse;
        None selects 1e-8 * V(psi0) (with a tiny absolute floor for
        eigenvector starts) at simulation time
    seed : 64-bit unsigned seed of the noise streams
    record_stride : record every this many steps, >= 1

    Numbers must be finite, seed and record_stride integers, and none a
    bool. A ValidationError's message starts with the field's name, which
    ``config.named`` turns into the config key.
    """

    sigma: float
    dt: float
    t_max: float
    collapse_variance_tol: float | None = None
    seed: int = 0
    record_stride: int = 1

    def __post_init__(self):
        if not (_is(numbers.Real, self.sigma) and self.sigma >= 0.0):
            raise ValidationError("sigma must be finite and >= 0")
        if not (_is(numbers.Real, self.dt) and self.dt > 0.0):
            raise ValidationError("dt must be finite and > 0")
        if not (_is(numbers.Real, self.t_max) and self.t_max > 0.0):
            raise ValidationError("t_max must be finite and > 0")
        steps = self.t_max / self.dt
        if not (math.isfinite(steps) and round(steps) >= 1):
            raise ValidationError(f"t_max must round to a finite number >= 1 of steps of "
                                  f"dt = {self.dt:g} (t_max / dt = {steps:g})")
        tol = self.collapse_variance_tol
        if tol is not None and not (_is(numbers.Real, tol) and tol > 0.0):
            raise ValidationError("collapse_variance_tol must be finite and > 0")
        if not (_is(numbers.Integral, self.seed) and 0 <= self.seed <= _U64_MAX):
            raise ValidationError("seed must be an unsigned 64-bit integer")
        if not (_is(numbers.Integral, self.record_stride) and self.record_stride >= 1):
            raise ValidationError("record_stride must be an integer >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_max / self.dt))


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """State of one trajectory at a recorded step.

    ``quadric_residual`` is populated only for four-dimensional states;
    ``wiener_increment_sum`` is the realized W_t up to this time.
    """

    time: float
    ray: Ray
    energy_mean: float
    variance: float
    third_moment: float
    quadric_residual: float | None
    wiener_increment_sum: float


@dataclass(frozen=True)
class CollapseOutcome:
    collapsed: bool
    eigenspace_index: int | None
    hitting_time: float | None
    final_record: TrajectoryRecord


def step_normals(seed: int, step: int, count: int, start: int = 0) -> np.ndarray:
    """Standard normals ``start..count-1`` of the noise stream for one time step.

    Entry ``i`` is normal ``i mod NOISE_GROUP`` of the ziggurat stream of a
    Philox generator with key (seed, 0) and counter (0, i // NOISE_GROUP, 0,
    step), so it is a pure function of (seed, step, i) and costs at most the
    ``NOISE_GROUP`` normals of its own group: ``step_normals(s, k, i + 1,
    i)[0] == step_normals(s, k, n)[i]`` bit for bit for any ``n > i``. The
    first ``NOISE_GROUP`` entries equal ``Generator(Philox(key=[seed, 0],
    counter=[0, 0, 0, step])).standard_normal(NOISE_GROUP)``, the whole
    stream of versions before the grouping; entries from ``NOISE_GROUP`` on
    differ from those versions.

    Instead of building a generator per group (which also reads OS entropy
    it never uses), each thread caches one Philox generator and resets its
    whole state (counter, key and output buffer) once for every group the
    range touches; a group entered part-way discards its first ``start mod
    NOISE_GROUP`` normals. The cache is per thread, so concurrent threads
    never share a generator; forked worker processes inherit a copy, which
    the reset makes harmless.
    """
    group, skip = divmod(start, NOISE_GROUP)
    if count <= (group + 1) * NOISE_GROUP:
        return _group_stream(seed, step, group, skip).standard_normal(max(count - start, 0))
    out = np.empty(count - start)
    pos = start
    while pos < count:
        group, skip = divmod(pos, NOISE_GROUP)
        end = min(count, (group + 1) * NOISE_GROUP)
        _group_stream(seed, step, group, skip).standard_normal(out=out[pos - start:end - start])
        pos = end
    return out


def _group_stream(seed: int, step: int, group: int, skip: int) -> Generator:
    """This thread's generator, reset to normal ``skip`` of ``group``'s stream at ``step``."""
    cached = getattr(_NOISE, "generator", None)
    if cached is None:
        cached = _NOISE.generator = Generator(Philox(0))
    cached.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, group, 0, int(step)], "key": [int(seed), 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    if skip:
        cached.standard_normal(skip)
    return cached


def stability_guard(H: Observable, cfg: SdeConfig) -> None:
    """Raise ConfigurationError unless sigma^2 ||H||^2 dt < 0.1 (spectral norm)."""
    value = cfg.sigma**2 * H.spectral_norm() ** 2 * cfg.dt
    if not value < STABILITY_LIMIT:
        raise ConfigurationError(
            f"stability guard violated: sigma^2 ||H||^2 dt = {value:.3g} >= {STABILITY_LIMIT}"
        )


def resolve_collapse_tol(cfg: SdeConfig, H: Observable, psi0) -> float:
    """Collapse threshold: configured value, or 1e-8 * V(psi0) with a floor.

    The floor 1e-20 ||H||^2 keeps eigenvector starts (V numerically ~0)
    classifiable as collapsed without admitting genuinely uncollapsed states.
    """
    if cfg.collapse_variance_tol is not None:
        return cfg.collapse_variance_tol
    v0 = variance(H, psi0)
    return max(1e-8 * v0, 1e-20 * max(H.spectral_norm(), 1e-150) ** 2)


def integration_start(H: Observable, psi0, cfg: SdeConfig) -> tuple[np.ndarray, float]:
    """The checked start of every integrator: unit-norm ``psi0`` and the threshold.

    Applies ``stability_guard``, checks ``psi0`` against ``H``, normalises it
    and returns it with ``resolve_collapse_tol``.
    """
    stability_guard(H, cfg)
    z = amplitudes_for(H, psi0, "psi0")
    z = z / np.linalg.norm(z)
    return z, resolve_collapse_tol(cfg, H, z)


def unitary_evolve(H: Observable, psi0, t: float) -> StateVector:
    """exp(-i H t) psi0 through the spectral decomposition; norm-preserving."""
    if not np.isfinite(t):
        raise ValidationError("t must be finite")
    z = amplitudes_for(H, psi0, "psi0")
    evals, evecs = H.eig()
    phases = np.exp(-1j * evals * t)
    return StateVector(evecs @ (phases * (evecs.conj().T @ z)))


def reduction_step(H: Observable, psi, cfg: SdeConfig, dw: float) -> StateVector:
    """One split step of the reduction SDE (the engine's step), renormalized.

    ``dw`` is a Gaussian increment of variance ``cfg.dt``. With sigma = 0 the
    step is the exact unitary flow up to round-off; an eigenvector input is
    fixed up to global phase for any ``dw``.
    """
    stability_guard(H, cfg)
    _, lam, basis, phase0, p = _one_row(H, amplitudes_for(H, psi))
    _, w, _ = _batch_moments(lam, p)
    _split_step(p, w, dw, 0.5 * cfg.sigma, (cfg.sigma**2 / 8.0) * cfg.dt)
    if not np.isfinite(p).all():
        raise IntegrationFailureError("state became non-finite in reduction step")
    return StateVector(_amplitudes(basis, p, phase0, lam, cfg.dt))


def _one_row(H: Observable, z: np.ndarray):
    """One trajectory at ``z`` as the engine starts it, in the eigenbasis of ``H``.

    Returns the live components, their eigenvalues, eigenvectors (columns)
    and start phases, and their probabilities as a (live,) vector.
    """
    evals, evecs = H.eig()
    c = evecs.conj().T @ z
    live, p = _live_start(c, 1)
    return live, evals[live], evecs[:, live], c[live] / np.abs(c[live]), p[:, 0]


def _amplitudes(basis, p, phase0, lam, t) -> np.ndarray:
    """The state ``sum_j sqrt(p_j) phase0_j exp(-i lam_j t) basis[:, j]``.

    The split step changes only the moduli and the unitary half turns each
    start phase at its eigenvalue's rate. A 2-d ``p`` holds one trajectory
    per row, with its time in the column ``t``.
    """
    return (np.sqrt(p) * phase0 * np.exp(-1j * t * lam)) @ basis.T


def simulate_trajectory(
    H: Observable,
    psi0,
    cfg: SdeConfig,
    trajectory_index: int = 0,
) -> tuple[list[TrajectoryRecord], CollapseOutcome]:
    """Integrate one reduction trajectory with collapse detection.

    Steps row ``trajectory_index`` of the ensemble engine alone, with its
    moments, split step, noise entry and retirement test, so the outcome,
    hit step, final energy and final uncertainty equal that row of
    ``run_reduction_batch`` bit for bit. Records are taken every
    ``cfg.record_stride`` steps and at the first and last step; only they
    rebuild the state from the probability and start phase of each live
    component, and they build their ``Ray`` and quadric residual through the
    checked public functions. Collapse is declared when V drops below the
    resolved threshold, onto the eigenspace of largest weight.

    Returns (records, outcome). Without collapse by t_max the outcome has
    ``collapsed=False`` and carries the final record. Raises
    IntegrationFailureError (with the last record attached) if V turns NaN,
    where the engine marks the row failed.
    """
    z, tol = integration_start(H, psi0, cfg)
    if trajectory_index < 0:
        raise ValidationError("trajectory_index must be >= 0")
    live, lam, basis, phase0, p = _one_row(H, z)  # (live,) vectors: the sums are scalars
    to_group = _group_matrix(eigenspace_index_map(eigensystem(H)), live)
    n_steps = cfg.n_steps
    sqdt = math.sqrt(cfg.dt)
    c1 = 0.5 * cfg.sigma
    c2 = (cfg.sigma**2 / 8.0) * cfg.dt

    records: list[TrajectoryRecord] = []
    w_sum = 0.0
    for k in range(n_steps + 1):
        t = k * cfg.dt
        m, w, v = _batch_moments(lam, p)
        collapsed = not v >= tol  # NaN compares false
        if collapsed and math.isnan(v):
            raise IntegrationFailureError(
                f"state became non-finite at step {k}", last_record=records[-1]
            )
        if collapsed or k == n_steps or k % cfg.record_stride == 0:
            psi = _amplitudes(basis, p, phase0, lam, t)
            records.append(TrajectoryRecord(
                time=t, ray=Ray(psi), energy_mean=float(m), variance=float(v),
                third_moment=float(_row_sum(p * (w * w * w))),
                quadric_residual=quadric_residual(psi) if psi.size == 4 else None,
                wiener_increment_sum=w_sum))
        if collapsed:
            return records, CollapseOutcome(
                collapsed=True,
                eigenspace_index=int(np.argmax(to_group @ p)),
                hitting_time=t,
                final_record=records[-1],
            )
        if k == n_steps:
            break
        dw = float(step_normals(cfg.seed, k, trajectory_index + 1, trajectory_index)[0]) * sqdt
        _split_step(p, w, dw, c1, c2)
        w_sum += dw

    return records, CollapseOutcome(
        collapsed=False, eigenspace_index=None, hitting_time=None, final_record=records[-1]
    )


# ---------------------------------------------------------------------------
# Batched ensemble engine
# ---------------------------------------------------------------------------

@dataclass
class BatchResult:
    """Per-trajectory results of one batch, in trajectory order lo..hi-1."""

    outcome_group: np.ndarray      # eigenspace index, -1 uncollapsed, -2 failed
    hit_step: np.ndarray           # collapse step, -1 if none
    checkpoint_energy: np.ndarray  # (n_checkpoints, batch)
    checkpoint_variance: np.ndarray
    final_energy: np.ndarray
    final_variance: np.ndarray
    final_probs: np.ndarray | None  # eigenbasis |amplitude|^2 at end, if collected


def _row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``a`` in row order (``np.add.reduce`` may pair them)."""
    total = a[0]
    for j in range(1, len(a)):
        total = total + a[j]
    return total


def _live_start(psi0_eig: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Live components of an eigenbasis start and their probabilities.

    Returns the indices of the components with nonzero ``|psi0_eig|^2`` and
    the normalised start probabilities of ``n`` trajectories, laid out as
    (live components, trajectories).
    """
    p0 = np.abs(psi0_eig) ** 2
    live = np.flatnonzero(p0)
    p = np.repeat(p0[live, None], n, axis=1)
    p /= _row_sum(p)
    return live, p


def _group_matrix(group_map: np.ndarray, live: np.ndarray) -> np.ndarray:
    """0/1 (eigenspaces, live components) map: ``to_group @ p`` sums ``p`` per eigenspace."""
    to_group = np.zeros((int(group_map.max()) + 1, live.size))
    to_group[group_map[live], np.arange(live.size)] = 1.0
    return to_group


def _batch_moments(lam: np.ndarray, p: np.ndarray):
    """Mean energy, deviations and uncertainty of each trajectory.

    ``p`` holds eigenbasis probabilities as (components, trajectories) and
    the column ``lam`` the eigenvalues of its rows; for one trajectory both
    may be (components,) vectors, and m and V are then scalars. Returns m =
    sum_j lam_j p_j, the deviations w_j = lam_j - m and V = sum_j p_j w_j^2.
    The sums run over the components in a fixed order with elementwise
    operations, so a trajectory's values do not depend on the shape of its
    batch, nor on whether it has one.
    """
    m = _row_sum(lam * p)
    w = lam - m
    return m, w, _row_sum(p * (w * w))


def _split_step(p: np.ndarray, w: np.ndarray, dw: np.ndarray, c1: float, c2: float) -> None:
    """Stochastic half of a split step, applied to ``p`` in place.

    Multiplies component j by (1 + w_j (c1 dW - c2 w_j))^2 and renormalises
    each trajectory.
    """
    mult = c1 * dw - c2 * w
    mult *= w
    mult += 1.0
    mult *= mult
    p *= mult
    p /= _row_sum(p)


def run_reduction_batch(
    evals: np.ndarray,
    group_map: np.ndarray,
    psi0_eig: np.ndarray,
    sigma: float,
    dt: float,
    n_steps: int,
    tol: float,
    seed: int,
    lo: int,
    hi: int,
    checkpoint_steps: tuple[int, ...],
    collect_final_probs: bool = False,
) -> BatchResult:
    """Advance trajectories lo..hi-1 of an ensemble through the reduction SDE.

    Works in the Hamiltonian eigenbasis, where one split step (exact unitary
    then stochastic Euler part) multiplies each amplitude by a phase times the
    real factor 1 + (lam_k - <H>)((sigma/2) dW - (sigma^2 dt / 8)(lam_k - <H>)).
    Squared amplitudes therefore evolve autonomously and the engine tracks
    them directly; phases advance deterministically and are reattached by the
    caller when final states are needed. (The real factor could in principle
    go negative and flip a phase, but under the stability guard that is a
    >10-sigma event per step; it would not affect probabilities.)

    Only the live components (nonzero ``|psi0_eig|^2``) are stepped, as one
    (live, active trajectories) array; an exact zero stays exactly zero, so
    the result equals that of the problem restricted to ``evals[live]`` and
    ``psi0_eig[live]``. Live columns are mapped to eigenspaces only at
    retirement and scattered back to all components only for
    ``final_probs``. A step makes only the numpy calls its arithmetic needs
    (``_batch_moments``, ``step_normals`` up to the largest active index,
    ``_split_step``) and one reduction, ``min(V) >= tol``, which is false if
    any trajectory retires: V below ``tol`` collapses it onto the eigenspace
    of largest weight, a NaN V marks it failed (-2). A checkpoint records the
    active rows. The one loop exit (no row active, or step ``n_steps``) gives
    the active rows their final values; after the loop, each retired row gets
    its retirement values (zeros if failed) at every later checkpoint.

    Rows are independent: every per-trajectory sum is elementwise in a fixed
    order, so results for a trajectory do not depend on which batch it runs
    in, which makes ensembles bit-reproducible for any partitioning into
    batches or workers.
    """
    n = hi - lo
    live, p = _live_start(psi0_eig, n)
    lam = evals[live, None]
    to_group = _group_matrix(group_map, live)
    active = np.arange(lo, hi, dtype=np.int64)

    outcome = np.full(n, -1, dtype=np.int64)
    hit_step = np.full(n, -1, dtype=np.int64)
    n_cp = len(checkpoint_steps)
    cp_energy = np.zeros((n_cp, n))
    cp_var = np.zeros((n_cp, n))
    last_energy = np.zeros(n)
    last_var = np.zeros(n)
    last_probs = np.zeros((live.size, n)) if collect_final_probs else None

    cp_pos = {int(s): i for i, s in enumerate(checkpoint_steps)}
    sqdt = math.sqrt(dt)
    c1 = 0.5 * sigma
    c2 = (sigma**2 / 8.0) * dt

    for k in range(n_steps + 1):
        m, w, v = _batch_moments(lam, p)
        if k in cp_pos:
            cp_energy[cp_pos[k], active - lo] = m
            cp_var[cp_pos[k], active - lo] = v
        if not np.minimum.reduce(v, initial=math.inf) >= tol:  # NaN compares false
            keep = v >= tol  # False for collapsed rows and for NaN (failed) rows
            done = ~keep
            rows = active[done] - lo
            failed = ~np.isfinite(v[done])
            p_done = p.compress(done, axis=1)  # compress: a column mask is slow as an index
            group = np.argmax(to_group @ p_done, axis=0)
            outcome[rows] = np.where(failed, -2, group)
            hit_step[rows] = k
            last_energy[rows] = np.where(failed, 0.0, m[done])
            last_var[rows] = np.where(failed, 0.0, v[done])
            if last_probs is not None:
                last_probs[:, rows] = p_done
            p, w, active = p.compress(keep, axis=1), w.compress(keep, axis=1), active[keep]
            m, v = m[keep], v[keep]
        if active.size == 0 or k == n_steps:
            rows = active - lo
            last_energy[rows] = m
            last_var[rows] = v
            if last_probs is not None:
                last_probs[:, rows] = p
            break
        dw = step_normals(seed, k, int(active[-1]) + 1)[active]
        dw *= sqdt
        _split_step(p, w, dw, c1, c2)

    retired = (hit_step >= 0) & (hit_step < np.array(checkpoint_steps)[:, None])
    np.copyto(cp_energy, last_energy, where=retired)
    np.copyto(cp_var, last_var, where=retired)
    final_probs = None
    if last_probs is not None:
        final_probs = np.zeros((n, evals.size))
        final_probs[:, live] = last_probs.T
    return BatchResult(
        outcome_group=outcome,
        hit_step=hit_step,
        checkpoint_energy=cp_energy,
        checkpoint_variance=cp_var,
        final_energy=last_energy,
        final_variance=last_var,
        final_probs=final_probs,
    )


def variance_drift_estimate(
    H: Observable,
    psi0,
    cfg: SdeConfig,
    n_traj: int,
) -> tuple[float, float]:
    """Calibration check of the uncertainty drift against -sigma^2 V^2.

    Runs ``n_traj`` trajectories and regresses the ensemble-averaged per-step
    change of V on the predicted drift -sigma^2 E[V^2] dt, over the segment
    before any trajectory collapses. A correctly calibrated integrator gives
    slope 1.

    Returns (slope, stderr). Raises InsufficientDataError when there is no
    usable pre-collapse data (sigma = 0, an eigenvector start, or immediate
    collapse).
    """
    if n_traj < 100:
        raise ValidationError("n_traj must be >= 100 for the drift estimate")
    z, tol = integration_start(H, psi0, cfg)
    evals, evecs = H.eig()
    live, p = _live_start(evecs.conj().T @ z, n_traj)
    lam = evals[live, None]

    sqdt = math.sqrt(cfg.dt)
    c1 = 0.5 * cfg.sigma
    c2 = (cfg.sigma**2 / 8.0) * cfg.dt
    mean_v: list[float] = []
    mean_v2: list[float] = []
    for k in range(cfg.n_steps + 1):
        _, w, v = _batch_moments(lam, p)
        if not np.all(np.isfinite(v)):
            break
        mean_v.append(float(v.mean()))
        if np.any(v < tol) or k == cfg.n_steps:
            break
        mean_v2.append(float((v * v).mean()))
        dw = step_normals(cfg.seed, k, n_traj) * sqdt
        _split_step(p, w, dw, c1, c2)

    y = np.diff(np.asarray(mean_v))
    x = -cfg.sigma**2 * np.asarray(mean_v2)[: y.size] * cfg.dt
    if y.size < 2:
        raise InsufficientDataError("fewer than two pre-collapse steps")
    sxx = float(x @ x)
    if sxx <= 0.0:
        raise InsufficientDataError("predicted drift is identically zero")
    slope = float(x @ y) / sxx
    resid = y - slope * x
    stderr = math.sqrt(float(resid @ resid) / ((y.size - 1) * sxx))
    return slope, stderr

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

Because an entry is a pure function of (seed, k, i), it can be drawn before
its step runs. Each integrator loop (``run_reduction_batch``,
``simulate_trajectory``, ``variance_drift_estimate``) forks one companion
process for its run, which draws the rows the loop will ask for up to 64
steps ahead into a shared ring of two slots (``_read_ahead``). The loop
still calls ``step_normals`` once per step with the same arguments and gets
the same bytes, a fresh copy of a ring row, while the companion draws the
next chunk on another CPU. A loop that reaches a chunk the companion has
not finished draws that chunk's rows itself, from the last row back, while
the companion goes on from the front; the two meet in the chunk, and the
loop waits only once it has drawn every row. Where the companion cannot run
beside the loop (``_read_ahead`` says when), ``step_normals`` draws in the
loop as before.

There is one integration scheme, the split step. Each step is an exact
unitary half (spectral propagator) followed by the Euler-Maruyama
stochastic half. In the Hamiltonian eigenbasis the unitary half is a pure
phase and the stochastic half a real, componentwise multiplier, so the
probabilities p_j evolve on their own and the phases advance
deterministically. The ensemble engine (``run_reduction_batch``) steps the
probabilities of many trajectories at once; ``simulate_trajectory`` steps
one row of it, keeps the probabilities of the steps it records and
reattaches their phases in blocks of records, and ``reduction_step`` is one
such step. A plain Euler step in the ambient space
would multiply p_j by an extra 1 + lam_j^2 dt^2, which renormalisation turns
into a drift of the log-odds toward the larger |lam|: a Born bias of O(dt).

The ensemble engine steps only the *live* eigencomponents, those with
nonzero weight in the initial state: the multiplier is componentwise, so an
exact zero stays exactly zero and dropping it changes no result (the spin-0
singlet under the split filter has 2 live components of 4). Probabilities
are stored as a (live components, active trajectories) array and every
per-trajectory sum runs over the components in a fixed order with
elementwise operations, so a trajectory's numbers do not depend on which or
how many other trajectories share its batch. The states rebuilt from them
(``_amplitudes``), their rays (``hilbert.canonicalize``) and quadric
residuals (``geometry.quadric_residual``) take a stack of rows with the same
arithmetic as one row, in float array operations only, so a record of
``simulate_trajectory`` does not depend on its block and equals the final
state ``run_ensemble`` rebuilds for that row bit for bit. The engine needs
only numpy, and so does the ensemble's chi-square tail
(``qreduce.ensemble.chi2_sf``).
"""

from __future__ import annotations

import contextlib
import math
import mmap
import numbers
import os
import select
import signal
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
from .hilbert import (Observable, Ray, StateVector, amplitudes_for, complex_product,
                      eigenspace_index_map, eigensystem, rays, row_sum, variance)

# Hard ceiling on sigma^2 ||H||^2 dt; beyond this the Euler noise kicks are
# no longer small relative to the state and the discretization is unreliable.
STABILITY_LIMIT = 0.1

_U64_MAX = 2**64 - 1

# Trajectories per noise stream: see step_normals.
NOISE_GROUP = 2048

# Per-thread cache of the generator behind step_normals, and its read-ahead.
_NOISE = threading.local()

# Read-ahead of step_normals: at most this many steps per chunk, and bytes per slot.
_AHEAD_STEPS = 64
_AHEAD_SLOT_BYTES = 256 * 1024

# Records simulate_trajectory builds in one pass: see _block_records.
_RECORD_BLOCK = 128


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

    Inside an integrator loop the entries usually come from this thread's
    read-ahead (``_read_ahead``): a fresh copy of a row that a companion
    process drew ahead of time with the same ``_draw``. Any request the
    read-ahead does not hold is drawn here. The bits are the same either way.
    """
    ahead = getattr(_NOISE, "ahead", None)
    if ahead is not None:
        row = ahead.row(seed, step, count, start)
        if row is not None:
            return row
    return _draw(seed, step, count, start)


def _draw(seed: int, step: int, count: int, start: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """The one definition of the noise: entries ``start..count-1`` of ``step``, into ``out``.

    Instead of building a generator per group (which also reads OS entropy
    it never uses), each thread caches one Philox generator and resets its
    whole state (counter, key and output buffer) once for every group the
    range touches; a group entered part-way discards its first ``start mod
    NOISE_GROUP`` normals. The cache is per thread, so concurrent threads
    never share a generator; forked processes inherit a copy, which the
    reset makes harmless.
    """
    if out is None:
        out = np.empty(max(count - start, 0))
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


class _ReadAhead:
    """A ring of two slots that a forked companion process fills a chunk ahead of the loop.

    Chunk c holds the rows of ``steps`` steps from step ``c * steps`` on, in
    slot ``c % 2``; a row holds entries ``start`` up to the count the loop
    published when the chunk's slot was freed. ``head`` holds the published
    width (count - start; widths fit in 64 bits where counts may not) and,
    per slot, the first row the loop took. The counts of an integrator loop
    never rise, so a later step asks for no more entries than the published
    count, and the stream is prefix-stable, so a shorter request is a slice
    of the row.

    Two pipes carry one-byte tokens: the companion fills chunks 0 and 1 at
    once, then each chunk c >= 2 after a token on ``free`` says chunk c - 2
    is done with, and it writes a token on ``ready`` after each chunk. The
    loop reads one ready token per chunk it enters, and frees a slot only
    for a chunk that exists, so no token is ever written to a companion that
    has finished. While the token has not come, the loop draws the chunk's
    rows itself, last row first, lowering the slot's mark before each row;
    the companion draws forward and stops at the first row at or past the
    mark. The mark is only a hint: the loop reads a companion row only after
    the ready token, and a row drawn by both holds the same bytes, so a
    stale mark costs a duplicate draw, never a wrong one. The loop resets a
    slot's mark before it frees the slot.
    """

    def __init__(self, seed: int, n_steps: int, count: int, start: int):
        width = count - start
        self.seed, self.n_steps, self.start = seed, n_steps, start
        self.steps = min(_AHEAD_STEPS, n_steps, _AHEAD_SLOT_BYTES // (8 * width))
        self.chunks = -(-n_steps // self.steps)
        ring = mmap.mmap(-1, 8 * (3 + 2 * self.steps * width))  # shared with the companion
        self.head = np.ndarray(3, np.int64, ring)
        self.head[:] = width, self.steps, self.steps
        self.slots = np.ndarray((2, self.steps, width), np.float64, ring, 24)
        self.chunk, self.end = -1, 0  # the chunk the loop holds, and its count
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        free_r, self.free, self.ready, ready_w = fds
        if self.pid == 0:
            try:
                os.close(self.free)
                os.close(self.ready)
                self._fill(free_r, ready_w)
            finally:
                os._exit(0)  # no exit hooks: they belong to the parent
        os.close(free_r)
        os.close(ready_w)
        os.set_blocking(self.ready, False)

    def _fill(self, free: int, ready: int) -> None:
        """The companion: every chunk in turn, once its slot is free (EOF: the loop ended).

        It calls ``_draw``, never the module's ``step_normals``, which a
        caller may have replaced with a wrapper that has effects of its own.
        """
        for c in range(self.chunks):
            if c >= 2 and not os.read(free, 1):
                return
            width, slot = int(self.head[0]), c % 2
            for j, k in enumerate(range(c * self.steps, min((c + 1) * self.steps, self.n_steps))):
                if j >= self.head[1 + slot]:  # the loop took this row and the rest
                    break
                _draw(self.seed, k, self.start + width, self.start, self.slots[slot, j, :width])
            os.write(ready, b"\0")

    def row(self, seed: int, step: int, count: int, start: int) -> np.ndarray | None:
        """A fresh copy of entries ``start..count-1`` of ``step`` if the ring holds them, else None.

        A step in a later chunk frees the held chunk's slot and takes the next
        chunk (``_enter``); one in a freed chunk is not held any more.
        """
        if not (seed == self.seed and self.start <= start < count and 0 <= step < self.n_steps):
            return None
        chunk = step // self.steps
        while self.chunk < chunk:
            self._enter(self.chunk + 1, count)
        if chunk != self.chunk or count > self.end:
            return None
        return self.slots[chunk % 2, step - chunk * self.steps,
                          start - self.start:count - self.start].copy()

    def _enter(self, chunk: int, count: int) -> None:
        """Free chunk - 1's slot for chunk + 1, publishing ``count``, and take ``chunk``.

        The loop holds ``chunk`` up to ``count`` (at most the published
        width), which every row of it holds, whoever drew it. A companion
        that has died leaves EOF on ``ready`` (or a broken ``free`` pipe);
        the loop then holds no chunk and draws directly.
        """
        width = min(count - self.start, int(self.head[0]))
        try:
            if 1 <= chunk < self.chunks - 1:
                self.head[0] = width
                self.head[1 + (chunk + 1) % 2] = self.steps
                os.write(self.free, b"\0")
            alive = self._take(chunk, width)
        except BrokenPipeError:
            alive = b""
        self.chunk = chunk if alive else self.chunks
        self.end = self.start + width

    def _take(self, chunk: int, width: int) -> bytes:
        """``chunk``'s ready token; until it comes, its rows drawn here from the last one back."""
        rows, first = self.slots[chunk % 2], chunk * self.steps
        for j in reversed(range(min(self.steps, self.n_steps - first))):
            with contextlib.suppress(BlockingIOError):
                return os.read(self.ready, 1)
            self.head[1 + chunk % 2] = j
            _draw(self.seed, first + j, self.start + width, self.start, rows[j, :width])
        select.select([self.ready], [], [])  # every row is drawn: only the token is left
        return os.read(self.ready, 1)

    def close(self) -> None:
        """End the companion, whatever state it is in, and reap it."""
        os.close(self.free)
        os.close(self.ready)
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _read_ahead(seed: int, n_steps: int, count: int, start: int = 0):
    """Serve this thread's ``step_normals`` from a ring filled a chunk ahead, for one loop.

    The ring holds steps ``0..n_steps-1``, entries ``start`` up to at most
    ``count``. A forked companion process draws them while the loop does
    its arithmetic, so it needs a second CPU; the loop draws the rows of a
    chunk the companion has not finished itself, from the back (see
    ``_ReadAhead``). Without a second CPU, without ``os.fork``, in a process
    with other threads (a forked copy of a threaded process may find a lock
    held forever), with a row larger than the slot budget, or when a pipe or
    the fork fails, the loop draws directly. The companion is killed and
    reaped when the block ends, however it ends.
    """
    ahead = None
    if (hasattr(os, "fork") and _usable_cpus() > 1 and threading.active_count() == 1
            and 0 < 8 * (count - start) <= _AHEAD_SLOT_BYTES and n_steps > 0):
        with contextlib.suppress(OSError):
            ahead = _ReadAhead(seed, n_steps, count, start)
    previous, _NOISE.ahead = getattr(_NOISE, "ahead", None), ahead
    try:
        yield
    finally:
        _NOISE.ahead = previous
        if ahead is not None:
            ahead.close()


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


@dataclass(frozen=True)
class _Start:
    """The checked start of every integrator, in the eigenbasis of ``H``.

    ``tol`` is the collapse threshold and ``z`` the unit-norm ``psi0``;
    ``evals``, ``group_map`` and ``psi0_eig`` are the engine's arguments.
    The rest describe the live components (nonzero weight in ``psi0_eig``):
    their eigenvalues ``lam``, their (eigenspaces, live) map ``to_group``,
    probabilities ``p0``, eigenvectors ``basis`` (columns) and start phases
    ``phase0``.
    """

    tol: float
    z: np.ndarray
    evals: np.ndarray
    group_map: np.ndarray
    psi0_eig: np.ndarray
    lam: np.ndarray
    to_group: np.ndarray
    p0: np.ndarray
    basis: np.ndarray
    phase0: np.ndarray


def _start(H: Observable, psi0, cfg: SdeConfig) -> _Start:
    """``stability_guard``, ``psi0`` checked against ``H`` and normalised, the
    threshold, and the one transform of the start into the eigenbasis."""
    stability_guard(H, cfg)
    z = amplitudes_for(H, psi0, "psi0")
    z = z / np.linalg.norm(z)
    evals, evecs = H.eig()
    group_map = eigenspace_index_map(eigensystem(H))
    psi0_eig = evecs.conj().T @ z
    live, lam, to_group, p0 = _live(evals, group_map, psi0_eig)
    return _Start(tol=resolve_collapse_tol(cfg, H, z), z=z, evals=evals, group_map=group_map,
                  psi0_eig=psi0_eig, lam=lam, to_group=to_group, p0=p0, basis=evecs[:, live],
                  phase0=psi0_eig[live] / np.abs(psi0_eig[live]))


def _live(evals: np.ndarray, group_map: np.ndarray, psi0_eig: np.ndarray):
    """The live components of an eigenbasis start, those with nonzero ``|psi0_eig|^2``.

    Returns their indices, their eigenvalues, the 0/1 (eigenspaces, live)
    map ``to_group`` (``to_group @ p`` sums ``p`` per eigenspace) and their
    normalised start probabilities.
    """
    p0 = np.abs(psi0_eig) ** 2
    live = np.flatnonzero(p0)
    to_group = np.zeros((int(group_map.max()) + 1, live.size))
    to_group[group_map[live], np.arange(live.size)] = 1.0
    p0 = p0[live]
    return live, evals[live], to_group, p0 / row_sum(p0)


def unitary_evolve(H: Observable, psi0, t: float) -> StateVector:
    """exp(-i H t) psi0 through the spectral decomposition; norm-preserving."""
    if not np.isfinite(t):
        raise ValidationError("t must be finite")
    z = amplitudes_for(H, psi0, "psi0")
    evals, evecs = H.eig()
    phases = np.exp(-1j * evals * t)
    return StateVector(evecs @ (phases * (evecs.conj().T @ z)))


def reduction_step(H: Observable, psi, cfg: SdeConfig, dw: float) -> StateVector:
    """One split step of the reduction SDE (the engine's step) from ``psi``, normalised first.

    ``dw`` is a Gaussian increment of variance ``cfg.dt``. With sigma = 0 the
    step is the exact unitary flow up to round-off; an eigenvector input is
    fixed up to global phase for any ``dw``.
    """
    s = _start(H, psi, cfg)
    p = s.p0.copy()
    _, w, _ = _batch_moments(s.lam, p)
    _split_step(p, w, dw, cfg.sigma, cfg.dt)
    if not np.isfinite(p).all():
        raise IntegrationFailureError("state became non-finite in reduction step")
    return StateVector(_amplitudes(s.basis, p, s.phase0, s.lam, cfg.dt))


def _amplitudes(basis, p, phase0, lam, t) -> np.ndarray:
    """The state ``sum_j sqrt(p_j) phase0_j exp(-i lam_j t) basis[:, j]``.

    The split step changes only the moduli and the unitary half turns each
    start phase at its eigenvalue's rate. A 2-d ``p`` holds one trajectory
    per row, with its time in the column ``t``, and gives one state per row.
    A 1-d ``p`` is done as a stack of one row. Every operation is a float
    operation on a column of rows (``complex_product`` for the products),
    and the sum runs over the live components in a fixed order, so row j's
    state equals the state of row j alone bit for bit, whatever the stack.
    Column operations also need none of the iterator buffers numpy
    allocates for a broadcast (64 KB per operand), so the final states of a
    large ensemble take little more memory than the result.
    """
    rows = np.reshape(p, (-1, np.shape(p)[-1]))
    t = np.reshape(t, -1)
    phased = []  # sqrt(p_j) phase0_j exp(-i lam_j t), all made before the result
    for j, s in enumerate(np.sqrt(rows.T)):
        theta = t * lam[j]
        phased.append(complex_product(s * phase0[j].real, s * phase0[j].imag,
                                      np.cos(theta), -np.sin(theta)))
    out = np.zeros((len(rows), basis.shape[0]), dtype=complex)
    re, im = out.real, out.imag
    for j, (c_re, c_im) in enumerate(phased):
        for d in range(basis.shape[0]):
            b_re, b_im = basis[d, j].real, basis[d, j].imag
            re[:, d] += c_re * b_re - c_im * b_im  # complex_product, added part by part
            im[:, d] += c_re * b_im + c_im * b_re
    return out.reshape(np.shape(p)[:-1] + basis.shape[:1])


def _block_records(lam, basis, phase0, dt, steps, w_sums, P) -> list[TrajectoryRecord]:
    """The records of one trajectory at ``steps``, from its probabilities ``P`` (one row each).

    Every value comes from a row-independent kernel, so a record does not
    depend on the block it is built in: the moments are ``_batch_moments``
    and ``row_sum`` on the columns of ``P``, bit for bit the values of the
    step loop; the states are one ``_amplitudes`` call, their rays one
    ``canonicalize`` (``hilbert.rays``) and, in dimension 4, their quadric
    residuals one ``quadric_residual`` call.
    """
    t = np.asarray(steps) * dt
    m, w, v = _batch_moments(lam[:, None], P.T)
    third = row_sum(P.T * (w * w * w))
    psi = _amplitudes(basis, P, phase0, lam, t[:, None])
    residual = quadric_residual(psi).tolist() if psi.shape[1] == 4 else [None] * len(steps)
    return [TrajectoryRecord(time=tj, ray=ray, energy_mean=mj, variance=vj, third_moment=cj,
                             quadric_residual=rj, wiener_increment_sum=wj)
            for tj, ray, mj, vj, cj, rj, wj in zip(t.tolist(), rays(psi), m.tolist(), v.tolist(),
                                                   third.tolist(), residual, w_sums)]


def simulate_trajectory(
    H: Observable,
    psi0,
    cfg: SdeConfig,
    trajectory_index: int = 0,
) -> tuple[list[TrajectoryRecord], CollapseOutcome]:
    """Integrate one reduction trajectory with collapse detection.

    Steps row ``trajectory_index`` (an integer in [0, NOISE_GROUP * 2**64),
    the range of the noise streams' counter) of the ensemble engine
    alone, with its moments, split step, noise entry and retirement test,
    so the outcome, hit step, final energy and final uncertainty equal that
    row of ``run_reduction_batch`` bit for bit. Records are taken every
    ``cfg.record_stride`` steps and at the first and last step. The step
    loop keeps only the step, the Wiener sum and a copy of the probabilities
    of a record; every ``_RECORD_BLOCK`` records, and at the end, one pass
    of ``_block_records`` turns them into records with row-independent
    kernels, so a record's bits do not depend on the block: its energy and
    uncertainty are the loop's, and its state is the one ``run_ensemble``
    rebuilds for a final state at that step, bit for bit. Collapse is
    declared when V drops below the resolved threshold, onto the eigenspace
    of largest weight.

    Returns (records, outcome). Without collapse by t_max the outcome has
    ``collapsed=False`` and carries the final record. Raises
    IntegrationFailureError (with the last record attached) if V turns NaN,
    where the engine marks the row failed.
    """
    s = _start(H, psi0, cfg)
    if not (_is(numbers.Integral, trajectory_index)
            and 0 <= trajectory_index < NOISE_GROUP * 2**64):  # the noise counter's range
        raise ValidationError(
            f"trajectory_index must be an integer >= 0 and < {NOISE_GROUP} * 2**64")
    lam, p = s.lam, s.p0.copy()  # (live,) vectors: the sums are scalars
    n_steps = cfg.n_steps
    sqdt = math.sqrt(cfg.dt)

    records: list[TrajectoryRecord] = []
    steps: list[int] = []
    w_sums: list[float] = []
    P = np.empty((_RECORD_BLOCK, lam.size))

    def flush():
        if not steps:
            return
        records.extend(_block_records(lam, s.basis, s.phase0, cfg.dt, steps, w_sums,
                                      P[:len(steps)]))
        steps.clear()
        w_sums.clear()

    with _read_ahead(cfg.seed, n_steps, trajectory_index + 1, trajectory_index):
        w_sum = 0.0
        for k in range(n_steps + 1):
            _, w, v = _batch_moments(lam, p)
            collapsed = not v >= s.tol  # NaN compares false
            if collapsed and math.isnan(v):
                flush()
                raise IntegrationFailureError(
                    f"state became non-finite at step {k}", last_record=records[-1]
                )
            if collapsed or k == n_steps or k % cfg.record_stride == 0:
                P[len(steps)] = p
                steps.append(k)
                w_sums.append(w_sum)
                if len(steps) == _RECORD_BLOCK:
                    flush()
            if collapsed:
                flush()
                return records, CollapseOutcome(
                    collapsed=True,
                    eigenspace_index=int(np.argmax(s.to_group @ p)),
                    hitting_time=k * cfg.dt,
                    final_record=records[-1],
                )
            if k == n_steps:
                break
            dw = float(step_normals(cfg.seed, k, trajectory_index + 1, trajectory_index)[0]) * sqdt
            _split_step(p, w, dw, cfg.sigma, cfg.dt)
            w_sum += dw

    flush()
    return records, CollapseOutcome(
        collapsed=False, eigenspace_index=None, hitting_time=None, final_record=records[-1]
    )


# ---------------------------------------------------------------------------
# Batched ensemble engine
# ---------------------------------------------------------------------------

@dataclass
class BatchResult:
    """Per-trajectory results of one batch, in trajectory order lo..hi-1: states, no statistic."""

    outcome_group: np.ndarray      # eigenspace index, -1 uncollapsed, -2 failed
    hit_step: np.ndarray           # collapse step, -1 if none
    checkpoint_probs: np.ndarray   # (live components, checkpoints, batch)
    final_probs: np.ndarray        # (batch, live components) probabilities at the end


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
    m = row_sum(lam * p)
    w = lam - m
    return m, w, row_sum(p * (w * w))


def _split_step(p: np.ndarray, w: np.ndarray, dw, sigma: float, dt: float) -> None:
    """Stochastic half of a split step, applied to ``p`` in place.

    Multiplies component j by (1 + w_j (c1 dW - c2 w_j))^2, with c1 = sigma / 2
    and c2 = sigma^2 dt / 8, and renormalises each trajectory.
    """
    c1 = 0.5 * sigma
    c2 = (sigma**2 / 8.0) * dt
    mult = c1 * dw - c2 * w
    mult *= w
    mult += 1.0
    mult *= mult
    p *= mult
    p /= row_sum(p)


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
    retirement. The engine records probabilities and no statistic:
    ``checkpoint_probs`` holds each row's live probabilities at each
    checkpoint and ``final_probs`` those at its end, from which
    ``run_ensemble`` derives the energy and uncertainty series and rebuilds
    final states. A step makes only the numpy calls its arithmetic needs
    (``_batch_moments``, ``step_normals`` up to the largest active index,
    ``_split_step``) and one reduction, ``min(V) >= tol``, which is false if
    any trajectory retires: V below ``tol`` collapses it onto the eigenspace
    of largest weight, a NaN V marks it failed (-2). A checkpoint records the
    active rows. The one loop exit (no row active, or step ``n_steps``) gives
    the active rows their final probabilities; after the loop, each retired
    row gets its retirement probabilities (non-finite if failed) at every
    later checkpoint.

    Rows are independent: every per-trajectory sum is elementwise in a fixed
    order, so results for a trajectory do not depend on which batch it runs
    in, which makes ensembles bit-reproducible for any partitioning into
    batches or workers.
    """
    n = hi - lo
    _, lam, to_group, p0 = _live(evals, group_map, psi0_eig)
    p = np.repeat(p0[:, None], n, axis=1)
    lam = lam[:, None]
    active = np.arange(lo, hi, dtype=np.int64)

    outcome = np.full(n, -1, dtype=np.int64)
    hit_step = np.full(n, -1, dtype=np.int64)
    cp_probs = np.zeros((lam.size, len(checkpoint_steps), n))
    last_probs = np.zeros((lam.size, n))

    cp_pos = {int(s): i for i, s in enumerate(checkpoint_steps)}
    sqdt = math.sqrt(dt)

    with _read_ahead(seed, n_steps, hi):
        for k in range(n_steps + 1):
            _, w, v = _batch_moments(lam, p)
            if k in cp_pos:
                cp_probs[:, cp_pos[k], active - lo] = p
            if not np.minimum.reduce(v, initial=math.inf) >= tol:  # NaN compares false
                keep = v >= tol  # False for collapsed rows and for NaN (failed) rows
                done = ~keep
                rows = active[done] - lo
                p_done = p.compress(done, axis=1)  # compress: a column mask is slow as an index
                group = np.argmax(to_group @ p_done, axis=0)
                outcome[rows] = np.where(np.isfinite(v[done]), group, -2)
                hit_step[rows] = k
                last_probs[:, rows] = p_done
                p, w, active = p.compress(keep, axis=1), w.compress(keep, axis=1), active[keep]
            if active.size == 0 or k == n_steps:
                last_probs[:, active - lo] = p
                break
            dw = step_normals(seed, k, int(active[-1]) + 1)[active]
            dw *= sqdt
            _split_step(p, w, dw, sigma, dt)

    retired = (hit_step >= 0) & (hit_step < np.array(checkpoint_steps)[:, None])
    np.copyto(cp_probs, last_probs[:, None], where=retired)
    return BatchResult(outcome_group=outcome, hit_step=hit_step, checkpoint_probs=cp_probs,
                       final_probs=last_probs.T)


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

    Returns (slope, stderr). Raises ValidationError unless ``n_traj`` is an
    integer >= 100 (not a bool), and InsufficientDataError when there is no
    usable pre-collapse data (sigma = 0, an eigenvector start, or immediate
    collapse).
    """
    if not (_is(numbers.Integral, n_traj) and n_traj >= 100):
        raise ValidationError(f"n_traj must be an integer >= 100 for the drift estimate, "
                              f"got {n_traj!r}")
    s = _start(H, psi0, cfg)
    lam = s.lam[:, None]
    p = np.repeat(s.p0[:, None], n_traj, axis=1)
    sqdt = math.sqrt(cfg.dt)
    mean_v: list[float] = []
    mean_v2: list[float] = []
    with _read_ahead(cfg.seed, cfg.n_steps, n_traj):
        for k in range(cfg.n_steps + 1):
            _, w, v = _batch_moments(lam, p)
            if not np.all(np.isfinite(v)):
                break
            mean_v.append(float(v.mean()))
            if np.any(v < s.tol) or k == cfg.n_steps:
                break
            mean_v2.append(float((v * v).mean()))
            dw = step_normals(cfg.seed, k, n_traj) * sqdt
            _split_step(p, w, dw, cfg.sigma, cfg.dt)

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

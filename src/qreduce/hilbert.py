"""Finite-dimensional Hilbert-space primitives.

State vectors, rays (projective equivalence classes), Hermitian observables,
and the statistical moments of an observable in a state. Everything here is
an immutable value; all operations are pure functions, so objects can be
shared freely between concurrent workers.

Conventions: hbar = 1 throughout, so energies are inverse times. Matrices are
dense; dimensions up to ~64 are the intended regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

# Magnitude below which an amplitude is treated as zero when picking the
# phase-fixing component of a canonical ray representative.
NONZERO_THRESHOLD = 1e-14

# Relative tolerance for accepting a matrix as Hermitian.
HERMITIAN_RTOL = 1e-12


def _as_complex(psi) -> np.ndarray:
    """The wrapped array of a StateVector or Ray, else ``psi`` as a complex array."""
    if not isinstance(psi, np.ndarray):
        for attr in ("amplitudes", "vector"):
            wrapped = getattr(psi, attr, None)
            if isinstance(wrapped, np.ndarray):
                return wrapped
    return np.asarray(psi, dtype=complex)


def coerce_amplitudes(psi, name: str = "psi") -> np.ndarray:
    """Coerce ``psi`` to a complex 1-d array of amplitudes, without scanning them.

    Accepts StateVector, Ray (also imported as geometry.ProjectivePoint) or
    any array-like; a complex array comes back as it is. Raises
    ValidationError for any other shape than a nonempty 1-d vector. The
    values are left to ``scan_amplitudes``, or to a norm that the caller
    computes anyway and checks first.
    """
    arr = _as_complex(psi)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d amplitude vector")
    return arr


def coerce_rows(psi, name: str = "psi") -> np.ndarray:
    """``coerce_amplitudes``, except that a nonempty 2-d stack of row vectors passes too."""
    arr = _as_complex(psi)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty amplitude vector or 2-d stack of them")
    return arr


def scan_amplitudes(z: np.ndarray, name: str = "psi") -> None:
    """ValidationError if an amplitude is not finite, then DomainError if all are zero."""
    if not np.isfinite(z).all():
        raise ValidationError(f"{name} contains non-finite amplitudes")
    if not z.any():
        raise DomainError(f"{name} is the zero vector")


def as_amplitudes(psi, name: str = "psi") -> np.ndarray:
    """Coerce ``psi`` to a complex 1-d array of amplitudes and scan them.

    The checks run in this order: the shape (``coerce_amplitudes``,
    ValidationError), then every amplitude finite (ValidationError), then
    not the zero vector (DomainError).
    """
    z = coerce_amplitudes(psi, name)
    scan_amplitudes(z, name)
    return z


def amplitudes_for(H: Observable, psi, name: str = "psi") -> np.ndarray:
    """``as_amplitudes(psi, name)``, checked against the dimension of ``H``."""
    z = as_amplitudes(psi, name)
    if z.size != H.dim:
        raise ValidationError(f"{name} dimension {z.size} != observable dimension {H.dim}")
    return z


def squared_norm(z: np.ndarray, name: str = "psi") -> float:
    """``<z|z>`` of coerced amplitudes, in (0, inf) or an error.

    Only when ``<z|z>`` is not in (0, inf) does ``scan_amplitudes`` run, so
    a non-finite amplitude raises its ValidationError and the zero vector
    its DomainError; finite amplitudes whose squared norm over- or
    underflows raise DomainError.
    """
    n2 = float(np.vdot(z, z).real)
    if not 0.0 < n2 < math.inf:
        scan_amplitudes(z, name)
        raise DomainError(f"{name} has no finite positive squared norm")
    return n2


def row_sum(a: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``a`` in row order (``np.add.reduce`` may pair them)."""
    total = a[0]
    for j in range(1, len(a)):
        total = total + a[j]
    return total


def row_squared_norms(rows: np.ndarray, name: str, message: str) -> np.ndarray:
    """``|z_0|^2 + |z_1|^2 + ...`` of each row of a 2-d stack, each in (0, inf) or an error.

    Each square is ``re*re + im*im`` and the squares are added in component
    order with elementwise array operations, so a row's bits do not depend
    on the other rows, on its strides or on a BLAS kernel. A row outside
    (0, inf) raises the error of the first such row: ``scan_amplitudes``'s
    ValidationError (non-finite) or DomainError (zero), else
    ``DomainError(message)`` (over- or underflow). Nothing warns.
    """
    with np.errstate(over="ignore"):  # an overflowing row raises DomainError below
        n2 = row_sum((rows.real * rows.real + rows.imag * rows.imag).T)
    ok = (0.0 < n2) & (n2 < math.inf)
    if not ok.all():
        scan_amplitudes(rows[int(ok.argmin())], name)
        raise DomainError(message)
    return n2


def complex_product(a_re, a_im, b_re, b_im):
    """Real and imaginary parts of ``(a_re + i a_im)(b_re + i b_im)``, from float arrays.

    Each part is two float multiplies and one add or subtract, which round
    alike for any number of elements. numpy's complex multiply does not
    always: its vector loops can round one element alone differently, in
    the last bit, from the same element among several.
    """
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def canonicalize(amplitudes) -> np.ndarray:
    """Canonical ray representative: unit norm, first nonzero amplitude real > 0.

    ``amplitudes`` is one vector or a 2-d stack of them, one per row; row j
    of a stack's result equals the result for row j alone, bit for bit, for
    any number of rows. A vector is done as a stack of one row, in float
    array operations only: the norm is ``row_squared_norms``'s fixed-order
    sum, and each row is divided by it and turned by ``complex_product``
    with the conjugate phase of its first component of modulus above
    ``NONZERO_THRESHOLD``, which is then set to its modulus.

    The checks run in this order: the shape (``coerce_rows``,
    ValidationError), then the norms (``row_squared_norms``): a stack raises
    what its first bad row would, a non-finite amplitude ValidationError,
    the zero vector DomainError, and finite amplitudes whose norm over- or
    underflows DomainError. Nothing warns.
    """
    z = coerce_rows(amplitudes)
    rows = z.reshape(-1, z.shape[-1])
    nrm = np.sqrt(row_squared_norms(rows, "psi", "amplitudes have no finite positive norm"))
    re, im = rows.real / nrm[:, None], rows.imag / nrm[:, None]
    mags = np.sqrt(re * re + im * im)
    # Each norm is 1, so at least one component of a row exceeds the threshold.
    at = np.arange(len(rows)), (mags > NONZERO_THRESHOLD).argmax(axis=1)
    mk = mags[at]
    out = np.empty(rows.shape, dtype=complex)
    out.real, out.imag = complex_product(re, im, (re[at] / mk)[:, None], (-im[at] / mk)[:, None])
    out[at] = mk
    out.flags.writeable = False
    return out.reshape(z.shape)


class StateVector:
    """An unnormalized vector of complex probability amplitudes."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        arr = coerce_amplitudes(amplitudes, "amplitudes").copy()
        squared_norm(arr, "amplitudes")
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    def __setattr__(self, *_):
        raise AttributeError("StateVector is immutable")

    def __reduce__(self):
        return StateVector, (self.amplitudes,)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm())

    def ray(self) -> "Ray":
        return Ray(self.amplitudes)

    def __repr__(self):
        return f"StateVector({self.amplitudes.tolist()!r})"


class Ray:
    """A projective equivalence class of state vectors, stored canonically.

    This is the one class for a point of CP^{n-1}; ``geometry.ProjectivePoint``
    is another name for it. Two vectors related by any nonzero complex scalar
    canonicalize to the same representative (to floating tolerance), so rays
    compare by value. Distances between rays are ``geometry.fs_distance``.
    """

    __slots__ = ("vector",)

    def __init__(self, state):
        object.__setattr__(self, "vector", canonicalize(coerce_amplitudes(state)))

    def __setattr__(self, *_):
        raise AttributeError("Ray is immutable")

    def __reduce__(self):
        return canonical_ray, (self.vector,)

    @property
    def dim(self) -> int:
        return self.vector.size

    def state(self) -> StateVector:
        return StateVector(self.vector)

    def approx_eq(self, other: "Ray", tol: float = 1e-12) -> bool:
        if other.dim != self.dim:
            raise ValidationError("points live in different projective spaces")
        return bool(np.allclose(self.vector, other.vector, rtol=0.0, atol=tol))

    def __repr__(self):
        return f"Ray({self.vector.tolist()!r})"


def canonical_ray(vector: np.ndarray) -> Ray:
    """The Ray that holds ``vector``, a row ``canonicalize`` made, with no second pass.

    ``vector`` is made read-only and kept as it is, so the ray's vector is
    ``vector`` bit for bit (a trace record's ray is a view of its block).
    """
    vector.flags.writeable = False
    ray = Ray.__new__(Ray)
    object.__setattr__(ray, "vector", vector)
    return ray


class Observable:
    """A Hermitian matrix in energy units, with a cached spectral decomposition."""

    __slots__ = ("matrix", "_eig")

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError("observable must be a nonempty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("observable contains non-finite entries")
        # Scaled to entries of modulus <= sqrt(2), so that neither norm over- or underflows.
        unit = arr / (max(np.abs(arr.real).max(), np.abs(arr.imag).max()) or 1.0)
        if np.linalg.norm(unit - unit.conj().T) > HERMITIAN_RTOL * np.linalg.norm(unit):
            raise ValidationError("observable is not Hermitian to relative tolerance 1e-12")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_eig", None)

    def __setattr__(self, *_):
        raise AttributeError("Observable is immutable")

    def __reduce__(self):
        return Observable, (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eig(self):
        """Eigenvalues (ascending) and orthonormal eigenvectors, cached."""
        if self._eig is None:
            evals, evecs = np.linalg.eigh(self.matrix)
            evals.flags.writeable = False
            evecs.flags.writeable = False
            object.__setattr__(self, "_eig", (evals, evecs))
        return self._eig

    def spectral_norm(self) -> float:
        evals, _ = self.eig()
        return float(np.max(np.abs(evals)))

    def spectral_spread(self) -> float:
        """``max lam - min lam``, which an energy offset ``H + c I`` leaves alone."""
        evals, _ = self.eig()
        return float(evals[-1] - evals[0])

    def __repr__(self):
        return f"Observable({self.matrix.tolist()!r})"


@dataclass(frozen=True)
class MomentTriple:
    """Mean, variance and third central moment of an observable in a state.

    Units: energy, energy^2, energy^3. All three vanish together exactly
    when the state is an eigenvector.
    """

    mean: float
    variance: float
    third: float

    def __post_init__(self):
        if self.variance < 0.0:
            raise ValidationError("variance must be nonnegative")


@dataclass(frozen=True)
class Eigenspace:
    """One (possibly degenerate) eigenspace: eigenvalue and orthogonal projector."""

    eigenvalue: float
    projector: np.ndarray
    dimension: int


def eigen_probabilities(H: Observable, psi, name: str = "psi") -> tuple[np.ndarray, np.ndarray]:
    """The one checked projection of ``psi`` onto the eigenbasis of ``H``.

    ``psi`` must pass ``amplitudes_for`` and have a squared norm in (0, inf)
    (``squared_norm``). Returns the amplitudes ``c`` of the unit-norm state
    in the eigenvectors of ``H.eig()`` and ``p = |c|^2 / row_sum(|c|^2)``.
    """
    z = amplitudes_for(H, psi, name)
    squared_norm(z, name)
    c = H.eig()[1].conj().T @ (z / np.linalg.norm(z))
    p = np.abs(c) ** 2
    return c, p / row_sum(p)


def moment_kernel(lam: np.ndarray, p: np.ndarray):
    """Mean energy m, deviations w and uncertainty V of eigenbasis probabilities.

    ``p`` holds eigenbasis probabilities as (components, trajectories) and
    the column ``lam`` the eigenvalues of its rows; for one state both may
    be (components,) vectors, and m and V are then scalars. Returns m =
    sum_j lam_j p_j, the deviations w_j = lam_j - m and V = sum_j p_j w_j^2.
    The sums run over the components in a fixed order with elementwise
    operations, so a trajectory's values do not depend on the shape of its
    batch, nor on whether it has one. The third central moment is
    ``row_sum(p * (w * w * w))``.
    """
    m = row_sum(lam * p)
    w = lam - m
    return m, w, row_sum(p * (w * w))


def _moments_raw(H: Observable, psi) -> tuple[float, float, float]:
    _, p = eigen_probabilities(H, psi)
    m, w, v = moment_kernel(H.eig()[0], p)
    return float(m), float(v), float(row_sum(p * (w * w * w)))


def expectation(H: Observable, psi) -> float:
    """Expectation value sum_j lam_j p_j of ``H`` in ``psi``, p from ``eigen_probabilities``.

    Invariant under rescaling of ``psi`` by any nonzero complex number, up
    to the rounding of p.
    """
    return _moments_raw(H, psi)[0]


def variance(H: Observable, psi) -> float:
    """Quantum uncertainty <(H - <H>)^2> of ``H`` in the state ``psi``.

    Computed as sum_j p_j (lam_j - <H>)^2, nonnegative by construction and
    bit for bit the uncertainty the integrators compute at their first step.
    """
    return _moments_raw(H, psi)[1]


def third_central_moment(H: Observable, psi) -> float:
    """Third central moment sum_j p_j (lam_j - <H>)^3 of ``H`` in the state ``psi``.

    This is the noise coefficient of the uncertainty process driven by the
    energy-based reduction dynamics (see the dynamics module).
    """
    return _moments_raw(H, psi)[2]


def moments(H: Observable, psi) -> MomentTriple:
    """All three moments from one projection onto the eigenbasis."""
    return MomentTriple(*_moments_raw(H, psi))


def eigensystem(H: Observable) -> list[Eigenspace]:
    """Spectral decomposition with near-degenerate eigenvalues merged.

    Neighbouring eigenvalues merge into one eigenspace when they are no
    further apart than max(1e-9 (max lam - min lam), 64 eps max |lam|): the
    spread ignores an energy offset, and the floor, the rounding of ``eigh``,
    keeps a rotated c * I one space. This is the one merge rule.

    Returns
    -------
    list of Eigenspace, eigenvalues ascending. Projectors are mutually
    orthogonal and sum to the identity. The eigenvalue reported for a merged
    space is the mean of its members.
    """
    evals, evecs = H.eig()
    merge = max(1e-9 * H.spectral_spread(), 64 * np.finfo(float).eps * H.spectral_norm())
    spaces: list[Eigenspace] = []
    start = 0
    for i in range(1, evals.size + 1):
        if i == evals.size or evals[i] - evals[i - 1] > merge:
            block = evecs[:, start:i]
            proj = block @ block.conj().T
            proj.flags.writeable = False
            spaces.append(
                Eigenspace(
                    eigenvalue=float(np.mean(evals[start:i])),
                    projector=proj,
                    dimension=i - start,
                )
            )
            start = i
    return spaces


def eigenspace_index_map(spaces: list[Eigenspace]) -> np.ndarray:
    """Map from raw eigh eigenvector index to its index in ``eigensystem``'s spaces."""
    dims = [s.dimension for s in spaces]
    return np.repeat(np.arange(len(dims), dtype=np.int64), dims)

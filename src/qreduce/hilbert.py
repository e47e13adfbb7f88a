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


def coerce_amplitudes(psi, name: str = "psi") -> np.ndarray:
    """Coerce ``psi`` to a complex 1-d array of amplitudes, without scanning them.

    Accepts StateVector, Ray (also imported as geometry.ProjectivePoint) or
    any array-like; a complex array comes back as it is. Raises
    ValidationError for any other shape than a nonempty 1-d vector. The
    values are left to ``scan_amplitudes``, or to a norm that the caller
    computes anyway and checks first.
    """
    if not isinstance(psi, np.ndarray):
        for attr in ("amplitudes", "vector"):
            wrapped = getattr(psi, attr, None)
            if isinstance(wrapped, np.ndarray):
                return wrapped
    arr = np.asarray(psi, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError(f"{name} must be a nonempty 1-d amplitude vector")
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


def vector_norm(z: np.ndarray) -> float:
    """``np.linalg.norm(z)`` of a complex 1-d array, bit for bit, without its dispatch.

    The same arithmetic: ``sqrt(re.re + im.im)`` with numpy's ``dot``, which
    warns when a square or the sum overflows.
    """
    re, im = z.real, z.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def canonicalize(amplitudes) -> np.ndarray:
    """Canonical ray representative: unit norm, first nonzero amplitude real > 0.

    The checks run in this order: the shape (``coerce_amplitudes``,
    ValidationError), then the norm. Only a norm outside (0, inf) runs
    ``scan_amplitudes``: a non-finite amplitude raises ValidationError, the
    zero vector DomainError, and finite amplitudes whose norm over- or
    underflows DomainError. ``vector_norm`` warns on overflow, so it runs
    under ``np.errstate(over="ignore")`` only when ``<z|z>`` (whose ``vdot``
    never warns) is 1e300 or more; below that no square or sum can overflow.
    """
    z = coerce_amplitudes(amplitudes)
    if float(np.vdot(z, z).real) < 1e300:
        nrm = vector_norm(z)
    else:
        with np.errstate(over="ignore"):  # an overflowing norm raises DomainError
            nrm = vector_norm(z)
    if not 0.0 < nrm < math.inf:
        scan_amplitudes(z)
        raise DomainError("amplitudes have no finite positive norm")
    z = z / nrm  # a fresh array, never the caller's
    mags = np.abs(z)
    # Norm is 1, so at least one component exceeds the threshold.
    k = int((mags > NONZERO_THRESHOLD).argmax())
    z *= mags[k] / z[k]
    z.flags.writeable = False
    return z


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
        object.__setattr__(self, "vector", canonicalize(state))

    def __setattr__(self, *_):
        raise AttributeError("Ray is immutable")

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


class Observable:
    """A Hermitian matrix in energy units, with a cached spectral decomposition."""

    __slots__ = ("matrix", "_eig")

    def __init__(self, matrix):
        arr = np.asarray(matrix, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValidationError("observable must be a nonempty square matrix")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("observable contains non-finite entries")
        scale = np.linalg.norm(arr)
        if np.linalg.norm(arr - arr.conj().T) > HERMITIAN_RTOL * max(scale, 1e-300):
            raise ValidationError("observable is not Hermitian to relative tolerance 1e-12")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_eig", None)

    def __setattr__(self, *_):
        raise AttributeError("Observable is immutable")

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


def moment_kernel(Hmat: np.ndarray, z: np.ndarray, n2: float) -> tuple[float, float, float]:
    """Mean, variance and third central moment of ``Hmat`` in ``z``, unchecked.

    ``n2`` is the squared norm of ``z``; unit-norm callers pass 1.0 (exact).
    """
    Hz = Hmat @ z
    mean = float(np.vdot(z, Hz).real) / n2
    r = Hz - mean * z
    Dr = Hmat @ r - mean * r
    var = float(np.vdot(r, r).real) / n2
    third = float(np.vdot(r, Dr).real) / n2
    return mean, var, third


def _moments_raw(H: Observable, psi) -> tuple[float, float, float]:
    z = amplitudes_for(H, psi)
    return moment_kernel(H.matrix, z, squared_norm(z))


def expectation(H: Observable, psi) -> float:
    """Expectation value sum_{j,k} H_{j,k} z^j conj(z^k) / sum |z^j|^2.

    Invariant under rescaling of ``psi`` by any nonzero complex number.
    """
    return _moments_raw(H, psi)[0]


def variance(H: Observable, psi) -> float:
    """Quantum uncertainty <(H - <H>)^2> of ``H`` in the state ``psi``.

    Computed as ||(H - <H>)psi||^2 / ||psi||^2, which is nonnegative by
    construction and vanishes exactly when ``psi`` is an eigenvector.
    """
    return _moments_raw(H, psi)[1]


def third_central_moment(H: Observable, psi) -> float:
    """Third central moment <(H - <H>)^3> of ``H`` in the state ``psi``.

    This is the noise coefficient of the uncertainty process driven by the
    energy-based reduction dynamics (see the dynamics module).
    """
    return _moments_raw(H, psi)[2]


def moments(H: Observable, psi) -> MomentTriple:
    """All three moments in one pass over the state."""
    mean, var, third = _moments_raw(H, psi)
    return MomentTriple(mean=mean, variance=max(var, 0.0), third=third)


def eigensystem(H: Observable, degeneracy_tol: float | None = None) -> list[Eigenspace]:
    """Spectral decomposition with near-degenerate eigenvalues merged.

    Parameters
    ----------
    H : Observable
    degeneracy_tol : float, optional
        Eigenvalues closer than this merge into a single eigenspace.
        Defaults to 1e-9 * spectral_norm(H). Use 0.0 to forbid merging.

    Returns
    -------
    list of Eigenspace, eigenvalues ascending. Projectors are mutually
    orthogonal and sum to the identity. The eigenvalue reported for a merged
    space is the mean of its members.
    """
    evals, evecs = H.eig()
    if degeneracy_tol is None:
        degeneracy_tol = 1e-9 * H.spectral_norm()
    spaces: list[Eigenspace] = []
    start = 0
    for i in range(1, evals.size + 1):
        if i == evals.size or evals[i] - evals[i - 1] > degeneracy_tol:
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


def eigenspace_weights(spaces: list[Eigenspace], z: np.ndarray) -> list[float]:
    """Squared projection <z|P|z> of ``z`` onto each of ``eigensystem``'s spaces."""
    return [float(np.vdot(z, s.projector @ z).real) for s in spaces]


def eigenspace_index_map(spaces: list[Eigenspace]) -> np.ndarray:
    """Map from raw eigh eigenvector index to its index in ``eigensystem``'s spaces."""
    dims = [s.dimension for s in spaces]
    return np.repeat(np.arange(len(dims), dtype=np.int64), dims)

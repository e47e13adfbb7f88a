"""The two-filter singlet experiment: states, Hamiltonians, Born predictions.

The measurement apparatus is modelled as a filter-induced perturbation whose
eigenstates are the (possibly rotated) one-particle product states, with one
real coupling per product state. Reduction under this Hamiltonian carries the
singlet onto the product-state quadric with the Born weights computed here in
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import TWO_QUBIT_BASIS
from .hilbert import Observable, StateVector


@dataclass(frozen=True)
class FilterCoupling:
    """Couplings lambda[i, j] of the filter pair, i, j in {1, 2} (1 = up, 2 = down).

    Entry [i-1, j-1] is the energy assigned to the product state v_i (x) v_j.
    """

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float)
        if arr.shape != (2, 2) or not np.all(np.isfinite(arr)):
            raise ValidationError("coupling must be a finite 2x2 real matrix")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def from_values(cls, l11: float, l12: float, l22: float, l21: float) -> "FilterCoupling":
        """Build from the conventional flat ordering (l11, l12, l22, l21)."""
        return cls(np.array([[l11, l12], [l21, l22]]))

    @property
    def values(self) -> tuple[float, float, float, float]:
        """Couplings in the flat ordering (l11, l12, l22, l21)."""
        m = self.matrix
        return (float(m[0, 0]), float(m[0, 1]), float(m[1, 1]), float(m[1, 0]))

    def is_nondegenerate(self, tol: float | None = None) -> bool:
        """True iff all four couplings are pairwise distinct beyond ``tol``."""
        vals = sorted(self.values)
        if tol is None:
            tol = 1e-9 * max(1.0, max(abs(v) for v in vals))
        return all(vals[i + 1] - vals[i] > tol for i in range(3))


@dataclass(frozen=True)
class FilterOrientation:
    """Relative angle between the two analyzer axes and which side is rotated."""

    theta: float = 0.0
    side: int = 1

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise ValidationError("theta must lie in [0, pi]")
        if self.side not in (1, 2):
            raise ValidationError("side must be 1 or 2")


def singlet_state() -> StateVector:
    """The total-spin-0 state (up(x)down - down(x)up)/sqrt(2) = (1, 0, 0, -1)/sqrt(2)."""
    return StateVector(np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0))


def rotated_basis(theta: float) -> tuple[StateVector, StateVector]:
    """Analyzer basis tilted by ``theta`` relative to the z axis.

    Returns the orthonormal pair
        nw = cos(theta/2) up + sin(theta/2) down
        se = -sin(theta/2) up + cos(theta/2) down
    whose change-of-basis matrix has determinant 1.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return StateVector([c, s]), StateVector([-s, c])


def build_epr_hamiltonian(
    coupling: FilterCoupling,
    orientation: FilterOrientation = FilterOrientation(),
    e0: float = 0.0,
) -> Observable:
    """Filter Hamiltonian sum_ij lambda[i,j] |v_i w_j><v_i w_j| + e0 * identity.

    The first factor's basis (v_1, v_2) is the rotated pair when
    ``orientation.side == 1`` (and likewise for the second factor with side 2);
    theta = 0 reproduces the standard up/down basis exactly, making the matrix
    diagonal in the two-qubit convention order. ``e0`` is a constant energy
    offset standing in for the spin-independent part of the full Hamiltonian.
    It shifts every eigenvalue, and it also enters the stability guard and
    the tolerances, which scale with max |eigenvalue|: at sigma = 1 and dt =
    2e-3, e0 = 10 fails the guard (0.338 >= 0.1) and e0 = 0 passes it.
    """
    if not np.isfinite(e0):
        raise ValidationError("e0 must be finite")
    up = np.array([1.0, 0.0], dtype=complex)
    down = np.array([0.0, 1.0], dtype=complex)
    std = (up, down)
    nw, se = rotated_basis(orientation.theta)
    rot = (nw.amplitudes, se.amplitudes)
    first = rot if orientation.side == 1 else std
    second = rot if orientation.side == 2 else std

    H = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            v = TWO_QUBIT_BASIS.product_vector(first[i], second[j])
            H += coupling.matrix[i, j] * np.outer(v, v.conj())
    H += e0 * np.eye(4)
    return Observable(H)


def epr_born_joint(theta: float) -> dict[str, float]:
    """Born probabilities of the singlet against the tilted product basis.

    The basis is {nw(x)down, nw(x)up, se(x)down, se(x)up} with nw, se from
    ``rotated_basis(theta)``. The table is
        {1/2 cos^2(theta/2), 1/2 sin^2(theta/2),
         1/2 sin^2(theta/2), 1/2 cos^2(theta/2)}
    and always sums to 1; the factor 1/2 is the singlet's weight on each
    z-component sector.
    """
    FilterOrientation(theta)  # the range check of the angle
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    return {
        "nw_down": 0.5 * c2,
        "nw_up": 0.5 * s2,
        "se_down": 0.5 * s2,
        "se_up": 0.5 * c2,
    }


def epr_born_conditional(theta: float) -> float:
    """Probability of finding particle 1 along nw given particle 2 measured down.

    Equals cos^2(theta/2): the coincidence rate quoted for analyzer angle
    theta in polarization-correlation experiments.
    """
    joint = epr_born_joint(theta)
    return joint["nw_down"] / (joint["nw_down"] + joint["se_down"])

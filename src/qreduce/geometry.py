"""Projective geometry of pure states.

Fubini-Study distances and transition probabilities on CP^{n-1}, affine
charts, and the entanglement geometry of two qubits in CP^3: the quadric of
product states cut out by x*w = y*z, the conic of equal-axis product states,
the standard named spin points, and the Segre embedding of CP^1 x CP^1.

A point of CP^{n-1} is a ``hilbert.Ray``; ``ProjectivePoint`` is another name
for that class, and its canonical representative is ``.vector``.

Incidence statements about the named points are checked in exact integer
arithmetic (see ``geometry_selftest``); floating point is used
everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, ValidationError
from .hilbert import (Observable, Ray, as_amplitudes, coerce_amplitudes, scan_amplitudes,
                      squared_norm)


ProjectivePoint = Ray


@dataclass(frozen=True)
class ChartCoordinates:
    """Affine coordinates z^a / z^chart in the patch where z^chart != 0.

    ``chart_index`` is 1-based, matching the homogeneous coordinate labels
    (z^1 : ... : z^n). ``affine`` lists the remaining n-1 ratios in
    coordinate order, skipping the chart coordinate itself.
    """

    chart_index: int
    affine: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.affine, dtype=complex)
        arr.flags.writeable = False
        object.__setattr__(self, "affine", arr)


def as_point(p) -> Ray:
    if isinstance(p, Ray):
        return p
    return Ray(p)


def transition_probability(X, Y) -> float:
    """|<X|Y>|^2 / (<X|X><Y|Y>): symmetric and representative-independent."""
    x = as_amplitudes(X, "X")
    y = as_amplitudes(Y, "Y")
    if x.size != y.size:
        raise ValidationError("points live in different projective spaces")
    x = x / math.sqrt(squared_norm(x, "X"))
    y = y / math.sqrt(squared_norm(y, "Y"))
    return float(min(abs(np.vdot(x, y)) ** 2, 1.0))


def fs_distance(X, Y) -> float:
    """Fubini-Study geodesic distance theta in [0, pi].

    Defined through cos^2(theta/2) = transition_probability(X, Y); orthogonal
    points are at distance pi.
    """
    return 2.0 * math.acos(math.sqrt(transition_probability(X, Y)))


def to_chart(p, chart_index: int) -> ChartCoordinates:
    """Affine coordinates of ``p`` in the patch z^chart_index != 0 (1-based).

    Raises ChartDomainError if the chart coordinate of the canonical
    representative has magnitude <= 1e-12.
    """
    pt = as_point(p)
    n = pt.dim
    if not 1 <= chart_index <= n:
        raise ValidationError(f"chart_index must be in [1, {n}], got {chart_index}")
    z = pt.vector
    pivot = z[chart_index - 1]
    if abs(pivot) <= 1e-12:
        raise ChartDomainError(chart_index, abs(pivot))
    affine = np.delete(z, chart_index - 1) / pivot
    return ChartCoordinates(chart_index=chart_index, affine=affine)


def from_chart(coords: ChartCoordinates) -> Ray:
    """Inverse of ``to_chart``: reinsert 1 at the chart coordinate."""
    z = np.insert(coords.affine, coords.chart_index - 1, 1.0 + 0.0j)
    return Ray(z)


# ---------------------------------------------------------------------------
# Two-qubit conventions and the quadric of product states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoQubitBasisConvention:
    """Fixed basis order for C^2 (x) C^2 and its homogeneous coordinates.

    The order is (up(x)down, up(x)up, down(x)down, down(x)up), written
    (x : y : z : w). Under this order the product of one-particle states
    (a, b) and (c, d) has coordinates (a*d : a*c : b*d : b*c), so the product
    states are exactly the solutions of x*w = y*z, and the singlet
    (up(x)down - down(x)up)/sqrt(2) reads (1 : 0 : 0 : -1).
    """

    labels: tuple = ("up_down", "up_up", "down_down", "down_up")
    # Position of each convention coordinate in the standard Kronecker order
    # (up up, up down, down up, down down) of numpy.kron(first, second).
    kron_positions: tuple = (1, 0, 3, 2)

    def product_vector(self, first, second) -> np.ndarray:
        """Coordinates of first (x) second in convention order."""
        a = np.asarray(first, dtype=complex)
        c = np.asarray(second, dtype=complex)
        if a.shape != (2,) or c.shape != (2,):
            raise ValidationError("tensor factors must be 2-component vectors")
        return np.kron(a, c)[list(self.kron_positions)]

    def from_kron(self, v) -> np.ndarray:
        """Reorder a standard-Kronecker-order vector into convention order."""
        v = np.asarray(v, dtype=complex)
        return v[list(self.kron_positions)]

    def to_kron(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        out = np.empty(4, dtype=complex)
        out[list(self.kron_positions)] = v
        return out


TWO_QUBIT_BASIS = TwoQubitBasisConvention()


def segre_embed(first, second) -> Ray:
    """Embed a pair of one-particle rays as the product state in CP^3.

    ((a : b), (c : d)) -> (a*d : a*c : b*d : b*c). The image always satisfies
    x*w = y*z and equals the ray of (a up + b down) (x) (c up + d down) under
    the two-qubit basis convention. A (0 : 0) pair raises DomainError.
    """
    return Ray(TWO_QUBIT_BASIS.product_vector(first, second))


def quadric_residual(p) -> float:
    """Normalized distance of a CP^3 point from the product-state quadric.

    Returns 2|x*w - y*z| / (|x|^2 + |y|^2 + |z|^2 + |w|^2), which is 0 exactly
    on product states and 1 on maximally entangled states (for a two-qubit
    pure state this is its concurrence).

    The checks run in this order: the shape (``coerce_amplitudes``,
    ValidationError); for any other size than 4, ``scan_amplitudes`` and
    then ValidationError; then ``squared_norm``, which runs the scans only
    when the squared norm is not in (0, inf), so a non-finite amplitude
    raises ValidationError, the zero vector DomainError, and a squared norm
    that over- or underflows DomainError. The product is taken in Python
    complex arithmetic, bit for bit the numpy-scalar one.
    """
    z = coerce_amplitudes(p, "p")
    if z.size != 4:
        scan_amplitudes(z, "p")
        raise ValidationError("quadric_residual is defined on CP^3 (4 coordinates)")
    n2 = squared_norm(z, "p")
    x, y, zz, w = z.tolist()
    return 2.0 * abs(x * w - y * zz) / n2


def is_disentangled(p, tol: float) -> bool:
    """True iff quadric_residual(p) < tol."""
    if not tol > 0.0:
        raise ValidationError("tol must be positive")
    return quadric_residual(p) < tol


def named_points() -> dict[str, Ray]:
    """The standard spin points of the two-qubit geometry.

    singlet       (1 : 0 : 0 : -1)  total-spin-0 state, off the quadric
    triplet_z0    (1 : 0 : 0 : 1)   spin-z = 0 triplet, intersection of the
                                    conic tangents at up_up and down_down
    up_up         (0 : 1 : 0 : 0)   on the conic
    down_down     (0 : 0 : 1 : 0)   on the conic, conjugate to up_up
    up_down       (1 : 0 : 0 : 0)   product point on the line singlet-triplet_z0
    down_up       (0 : 0 : 0 : 1)   the other product point on that line

    Built from ``_EXACT``, the integer coordinates the exact checks use.
    """
    return {name: Ray(coords) for name, coords in _EXACT.items()}


# ---------------------------------------------------------------------------
# Exact-arithmetic incidence checks
#
# All named points have integer coordinates, and every incidence statement
# below is polynomial with integer coefficients, so Python ints
# decide them exactly. No floating point enters these functions.
# ---------------------------------------------------------------------------

_EXACT = {
    "singlet": (1, 0, 0, -1),
    "triplet_z0": (1, 0, 0, 1),
    "up_up": (0, 1, 0, 0),
    "down_down": (0, 0, 1, 0),
    "up_down": (1, 0, 0, 0),
    "down_up": (0, 0, 0, 1),
}


def _inner(u, v):
    return sum(a * b for a, b in zip(u, v))


def _on_quadric(p) -> bool:
    x, y, z, w = p
    return x * w - y * z == 0


def _on_conic(p) -> bool:
    # C = {x^2 = y z} within the plane L = {x = w}.
    x, y, z, w = p
    return x == w and x * x - y * z == 0


def _conic_tangent_in_plane(p):
    """Tangent line of {x^2 - y z = 0} at a conic point, in plane coordinates.

    Plane L = {x = w} carries coordinates (x : y : z); the line is returned
    as its coefficient triple (the gradient of the defining quadratic).
    """
    x, y, z, _ = p
    return (2 * x, -z, -y)


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _proportional(u, v) -> bool:
    n = len(u)
    for i in range(n):
        for j in range(n):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return any(u) and any(v)


def tangent_intersection_check() -> bool:
    """Verify the conic-tangent construction of the spin-z = 0 triplet point.

    The tangent lines to the conic {x^2 = y z, x = w} at up_up and down_down
    are computed exactly and intersected; the check passes iff both points lie
    on the conic, both lines are genuinely tangent (double contact), and their
    intersection is (1 : 0 : 0 : 1) = {y = z = 0, x = w}.
    """
    pts = _EXACT
    p_uu, p_dd, p1 = pts["up_up"], pts["down_down"], pts["triplet_z0"]
    if not (_on_conic(p_uu) and _on_conic(p_dd)):
        return False
    t_uu = _conic_tangent_in_plane(p_uu)
    t_dd = _conic_tangent_in_plane(p_dd)
    # Tangency: restricted to the line, the conic quadratic must have a double
    # root at the contact point, i.e. gradient . direction = 0 at the point.
    for tang, pt in ((t_uu, p_uu), (t_dd, p_dd)):
        plane_pt = (pt[0], pt[1], pt[2])
        if _inner(tang, plane_pt) != 0:
            return False
    meet = _cross3(t_uu, t_dd)  # intersection of two lines in the plane
    candidate = (meet[0], meet[1], meet[2], meet[0])  # back into L = {x = w}
    if not _proportional(candidate, p1):
        return False
    # And triplet_z0 itself satisfies y = z = 0, x = w.
    return p1[1] == 0 and p1[2] == 0 and p1[0] == p1[3]


def line_quadric_intersection_check() -> bool:
    """Verify the line through singlet and triplet_z0 meets the quadric at mu = +-nu.

    The line is (mu + nu : 0 : 0 : mu - nu). Restricting x*w - y*z to it gives
    an exact integer quadratic form in (mu, nu); the check passes iff that form
    is proportional to mu^2 - nu^2 (distinct roots mu = +-nu) and the two root
    points are the product points up_down and down_up.
    """

    def line(mu, nu):
        return (mu + nu, 0, 0, mu - nu)

    def q(mu, nu):
        x, y, z, w = line(mu, nu)
        return x * w - y * z

    # Coefficients of a*mu^2 + b*mu*nu + c*nu^2 from exact samples.
    a, c = q(1, 0), q(0, 1)
    b = q(1, 1) - a - c
    if (a, b, c) != (1, 0, -1):
        return False
    if b * b - 4 * a * c <= 0:  # needs two distinct real roots
        return False
    p_up_down = line(1, 1)
    p_down_up = line(1, -1)
    if not (_on_quadric(p_up_down) and _on_quadric(p_down_up)):
        return False
    return _proportional(p_up_down, _EXACT["up_down"]) and _proportional(
        p_down_up, _EXACT["down_up"]
    )


def _segre_exact(a, b, c, d):
    return (a * d, a * c, b * d, b * c)


def geometry_selftest() -> list[tuple[str, bool]]:
    """Run every exact incidence check; returns (name, passed) pairs.

    Used by the command-line geometry self-test. Every check is decided in
    exact integer arithmetic with zero tolerance.
    """
    pts = _EXACT
    checks: list[tuple[str, bool]] = []
    checks.append(
        ("singlet orthogonal to triplet_z0", _inner(pts["singlet"], pts["triplet_z0"]) == 0)
    )
    checks.append(("up_up on conic", _on_conic(pts["up_up"])))
    checks.append(("down_down on conic", _on_conic(pts["down_down"])))
    checks.append(
        ("up_up conjugate to down_down", _inner(pts["up_up"], pts["down_down"]) == 0)
    )
    checks.append(("singlet off the quadric", not _on_quadric(pts["singlet"])))
    checks.append(("triplet_z0 off the quadric", not _on_quadric(pts["triplet_z0"])))
    checks.append(("up_down on quadric", _on_quadric(pts["up_down"])))
    checks.append(("down_up on quadric", _on_quadric(pts["down_up"])))
    checks.append(("tangent intersection is triplet_z0", tangent_intersection_check()))
    checks.append(("line meets quadric at mu = +-nu", line_quadric_intersection_check()))
    segre_samples = [
        ((1, 0), (1, 0), pts["up_up"]),
        ((0, 1), (0, 1), pts["down_down"]),
        ((1, 0), (0, 1), pts["up_down"]),
        ((0, 1), (1, 0), pts["down_up"]),
        ((1, 1), (1, -1), (-1, 1, -1, 1)),
        ((2, 3), (5, -7), None),
    ]
    ok = True
    for (a, b), (c, d), expect in segre_samples:
        img = _segre_exact(a, b, c, d)
        ok = ok and _on_quadric(img)
        if expect is not None:
            ok = ok and _proportional(img, expect)
    checks.append(("segre images on quadric", ok))
    return checks


# ---------------------------------------------------------------------------
# Hamiltonian flow check on CP^1
# ---------------------------------------------------------------------------

def fs_flow_check_cp1(H: Observable, p) -> float:
    """Discrepancy between the ambient Schrodinger flow and its Hamiltonian form.

    On CP^1 in the chart z^2 != 0 with affine coordinate zeta = z^1/z^2 =
    u + i v, the Fubini-Study metric normalized so that orthogonal points are
    at distance pi is ds^2 = 4 (du^2 + dv^2) / S^2 with S = 1 + u^2 + v^2, and
    the compatible symplectic structure has inverse components
    Omega^{uv} = -Omega^{vu} = S^2 / 4. The expectation function
    h(x) = <psi(x), H psi(x)> then generates the Schrodinger flow through

        dx^a/dt = 2 Omega^{ab} grad_b h .

    This evaluates both sides at ``p``: the right side from the closed-form
    gradient of h, the left side by projecting the ambient velocity -iH psi
    into the chart. Returns the maximum absolute discrepancy of the two real
    components (zero up to roundoff when the identity holds).
    """
    if H.dim != 2:
        raise ValidationError("fs_flow_check_cp1 requires a 2x2 observable")
    pt = as_point(p)
    if pt.dim != 2:
        raise ValidationError("fs_flow_check_cp1 requires a point of CP^1")
    z = pt.vector
    if abs(z[1]) <= 1e-12:
        raise ChartDomainError(2, abs(z[1]))
    zeta = z[0] / z[1]

    h11 = H.matrix[0, 0].real
    h22 = H.matrix[1, 1].real
    h21 = H.matrix[1, 0]
    S = 1.0 + abs(zeta) ** 2
    num = h11 * abs(zeta) ** 2 + 2.0 * (h21 * zeta).real + h22
    # Wirtinger derivative of h = num / S; for real h the chart gradient is
    # dh/du = 2 Re(dh/dzeta), dh/dv = -2 Im(dh/dzeta).
    dnum = h11 * np.conj(zeta) + h21
    dh = (dnum * S - num * np.conj(zeta)) / S**2
    du_h = 2.0 * dh.real
    dv_h = -2.0 * dh.imag

    pred_u = (S**2 / 2.0) * dv_h
    pred_v = -(S**2 / 2.0) * du_h

    psi = np.array([zeta, 1.0], dtype=complex)
    zdot = -1j * (H.matrix @ psi)
    dzeta = zdot[0] - zeta * zdot[1]

    return float(max(abs(dzeta.real - pred_u), abs(dzeta.imag - pred_v)))

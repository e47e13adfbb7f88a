"""Hilbert-space primitives: moments, rays, eigensystems."""

import warnings

import numpy as np
import pytest

from qreduce import (
    DomainError,
    MomentTriple,
    Observable,
    Ray,
    StateVector,
    ValidationError,
    eigensystem,
    expectation,
    fs_distance,
    moments,
    third_central_moment,
    variance,
)
from qreduce.dynamics import (
    SdeConfig,
    reduction_step,
    simulate_trajectory,
    unitary_evolve,
    variance_drift_estimate,
)
from qreduce.ensemble import born_expected
from qreduce.hilbert import canonicalize, eigenspace_index_map

SINGLET = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return Observable((a + a.conj().T) / 2.0)


def random_state(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def dense_expectation_oracle(H, z):
    # Independent evaluation: explicit double sum over matrix entries.
    num = 0.0 + 0.0j
    den = 0.0
    for j in range(len(z)):
        den += abs(z[j]) ** 2
        for k in range(len(z)):
            num += H[k, j] * z[j] * np.conj(z[k])
    return num.real / den


class TestExpectation:
    def test_diagonal_mixture(self):
        H = Observable(np.diag([0.0, 1.0]))
        psi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        assert expectation(H, psi) == pytest.approx(0.7, abs=1e-12)

    def test_eigenvector_gives_eigenvalue(self):
        H = Observable(np.diag([2.0, -1.0, 5.0]))
        assert expectation(H, [0, 0, 1]) == pytest.approx(5.0, abs=1e-12)

    def test_singlet_filter_hamiltonian(self):
        # Couplings in basis order (up-down, up-up, down-down, down-up).
        l11, l12, l22, l21 = 5.0, 2.0, 7.0, 3.0
        H = Observable(np.diag([l12, l11, l22, l21]))
        expected = dense_expectation_oracle(H.matrix, SINGLET)
        assert expected == pytest.approx((l12 + l21) / 2.0, abs=1e-12)
        assert expectation(H, SINGLET) == pytest.approx(expected, abs=1e-12)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8):
            H = random_hermitian(rng, n)
            z = random_state(rng, n)
            scale = (rng.normal() + 1j * rng.normal()) or 1.0
            for f in (expectation, variance, third_central_moment):
                assert f(H, z * scale) == pytest.approx(f(H, z), rel=1e-12, abs=1e-12)

    def test_zero_vector_rejected(self):
        H = Observable(np.eye(2))
        with pytest.raises(DomainError):
            expectation(H, [0.0, 0.0])
        # finite amplitudes whose squared norm overflows or underflows
        for f in (expectation, variance, third_central_moment):
            for bad in ([1e200, 1e200], [1e-170, 1e-170]):
                with pytest.raises(DomainError):
                    f(Observable(np.diag([0.0, 1.0])), bad)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            Observable([[0.0, 1.0], [0.0, 0.0]])


class TestVariance:
    def test_eigenvector_zero(self):
        H = Observable(np.diag([1.0, 4.0]))
        assert variance(H, [1, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_balanced_two_level(self):
        H = Observable(np.diag([0.0, 1.0]))
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        # <H^2> - <H>^2 = 1/2 - 1/4
        assert variance(H, psi) == pytest.approx(0.25, abs=1e-12)

    def test_singlet_two_point_distribution(self):
        l11, l12, l22, l21 = 5.0, 2.0, 7.0, 3.0
        H = Observable(np.diag([l12, l11, l22, l21]))
        # Outcome distribution puts weight 1/2 on l12 and 1/2 on l21.
        assert variance(H, SINGLET) == pytest.approx(((l12 - l21) / 2.0) ** 2, abs=1e-12)

    def test_moment_consistency(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 8):
            H = random_hermitian(rng, n)
            Hsq = Observable(H.matrix @ H.matrix)
            z = random_state(rng, n)
            direct = variance(H, z)
            via_square = expectation(Hsq, z) - expectation(H, z) ** 2
            assert direct == pytest.approx(via_square, rel=1e-10, abs=1e-10)

    def test_nonnegative_on_random_input(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            H = random_hermitian(rng, 4)
            assert variance(H, random_state(rng, 4)) >= 0.0

    def test_eigenvector_characterization_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            H = random_hermitian(rng, 4)
            z = random_state(rng, 4)
            z = z / np.linalg.norm(z)
            v = variance(H, z)
            resid = np.linalg.norm(H.matrix @ z - expectation(H, z) * z)
            for eps in (v * 1.0001 + 1e-300,):
                norm = np.linalg.norm(H.matrix, 2)
                assert resid < np.sqrt(eps) * (1.0 + norm)


class TestThirdCentralMoment:
    def test_eigenvector_zero(self):
        H = Observable(np.diag([0.0, 3.0]))
        assert third_central_moment(H, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_two_point(self):
        H = Observable(np.diag([0.0, 1.0]))
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert third_central_moment(H, psi) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_two_point(self):
        # Brute force over the outcome distribution {0: 0.3, 1: 0.7}:
        # 0.3 * (0 - 0.7)^3 + 0.7 * (1 - 0.7)^3 = -0.084
        H = Observable(np.diag([0.0, 1.0]))
        psi = np.array([np.sqrt(0.3), np.sqrt(0.7)])
        oracle = 0.3 * (-0.7) ** 3 + 0.7 * 0.3**3
        assert oracle == pytest.approx(-0.084, abs=1e-15)
        assert third_central_moment(H, psi) == pytest.approx(oracle, abs=1e-12)


class TestMoments:
    def test_triple_matches_scalars(self):
        rng = np.random.default_rng(19)
        H = random_hermitian(rng, 5)
        z = random_state(rng, 5)
        trip = moments(H, z)
        assert trip.mean == pytest.approx(expectation(H, z), abs=1e-12)
        assert trip.variance == pytest.approx(variance(H, z), abs=1e-12)
        assert trip.third == pytest.approx(third_central_moment(H, z), abs=1e-12)

    def test_all_vanish_only_on_eigenvectors(self):
        H = Observable(np.diag([0.0, 1.0, 2.0]))
        trip = moments(H, [0, 1, 0])
        assert abs(trip.mean - 1.0) < 1e-12
        assert trip.variance < 1e-24 and abs(trip.third) < 1e-24
        generic = moments(H, np.array([1.0, 1.0, 1.0]))
        assert generic.variance > 0.1

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            MomentTriple(mean=0.0, variance=-1.0, third=0.0)


class TestEigensystem:
    def test_two_level(self):
        spaces = eigensystem(Observable(np.diag([1.0, 0.0])))
        assert [s.eigenvalue for s in spaces] == [0.0, 1.0]
        np.testing.assert_allclose(spaces[0].projector, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(spaces[1].projector, np.diag([1.0, 0.0]), atol=1e-12)

    def test_scalar_matrix_single_space(self):
        spaces = eigensystem(Observable(3.5 * np.eye(4)))
        assert len(spaces) == 1
        assert spaces[0].dimension == 4
        np.testing.assert_allclose(spaces[0].projector, np.eye(4), atol=1e-12)
        assert eigenspace_index_map(spaces).tolist() == [0, 0, 0, 0]

    def test_degenerate_filter_merges(self):
        # l12 == l21: the up-down / down-up pair merges into one eigenspace.
        H = Observable(np.diag([2.0, 1.0, 5.0, 2.0]))
        spaces = eigensystem(H)
        assert [s.dimension for s in spaces] == [1, 2, 1]
        # eigh order: eigenvalues 1, 2, 2, 5; the pair at 2 maps to space 1
        assert eigenspace_index_map(spaces).tolist() == [0, 1, 1, 2]
        merged = spaces[1]
        assert merged.eigenvalue == pytest.approx(2.0)
        for axis in ([1, 0, 0, 0], [0, 0, 0, 1]):
            v = np.array(axis, dtype=complex)
            np.testing.assert_allclose(merged.projector @ v, v, atol=1e-12)

    def test_projectors_sum_to_identity(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 6):
            H = random_hermitian(rng, n)
            total = sum(s.projector for s in eigensystem(H))
            np.testing.assert_allclose(total, np.eye(n), atol=1e-10)

    def test_degeneracy_tol_is_configurable(self):
        H = Observable(np.diag([0.0, 1e-6, 1.0]))
        assert len(eigensystem(H, degeneracy_tol=1e-4)) == 2
        assert len(eigensystem(H, degeneracy_tol=0.0)) == 3

    def test_spectral_reconstruction(self):
        rng = np.random.default_rng(29)
        H = random_hermitian(rng, 6)
        evals, evecs = H.eig()
        rebuilt = (evecs * evals) @ evecs.conj().T
        assert np.linalg.norm(rebuilt - H.matrix) <= 1e-10 * np.linalg.norm(H.matrix)


class TestRay:
    def test_canonical_form(self):
        r = Ray([2.0j, 0.0])
        np.testing.assert_allclose(r.vector, [1.0, 0.0], atol=1e-15)

    def test_scalar_multiples_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            z = random_state(rng, 5)
            scale = rng.normal() + 1j * rng.normal()
            assert Ray(z).approx_eq(Ray(scale * z), tol=1e-12)

    def test_canonicalization_idempotent(self):
        rng = np.random.default_rng(37)
        z = random_state(rng, 4)
        r1 = Ray(z)
        r2 = Ray(r1.vector)
        assert r1.approx_eq(r2, tol=1e-12)

    def test_tiny_leading_amplitude_skipped(self):
        # First component below the nonzero threshold does not set the phase.
        r = Ray([1e-16, -2.0])
        assert r.vector[1].real == pytest.approx(1.0, abs=1e-12)
        assert abs(r.vector[1].imag) < 1e-15

    def test_distance_to(self):
        assert fs_distance(Ray([1, 0]), Ray([0, 1])) == pytest.approx(np.pi)
        assert fs_distance(Ray([1, 1]), Ray([1, 1])) == pytest.approx(0.0, abs=1e-7)

    def test_array_input_left_alone(self):
        # a complex array is used without a copy on the way in; the ray
        # must still own a fresh, read-only vector
        arr = np.array([2.0j, 1.0 - 1.0j, 0.5])
        before = arr.copy()
        r = Ray(arr)
        np.testing.assert_array_equal(arr, before)
        assert arr.flags.writeable
        assert not r.vector.flags.writeable
        assert not np.shares_memory(r.vector, arr)


class TestStateVector:
    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(DomainError):
            StateVector([0.0, 0.0])
        with pytest.raises(ValidationError):
            StateVector([np.inf, 1.0])

    def test_immutable(self):
        sv = StateVector([1.0, 2.0])
        with pytest.raises((AttributeError, ValueError)):
            sv.amplitudes = np.array([1.0])
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 5.0

    def test_normalized(self):
        sv = StateVector([3.0, 4.0]).normalized()
        assert sv.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("build", [Ray, canonicalize, StateVector])
def test_arrays_get_the_same_checks_as_lists(build):
    for bad in (np.array([np.nan, 1.0]), np.array([1.0, np.inf]), np.array([1j, np.inf]),
                np.eye(2, dtype=complex), np.zeros(0, dtype=complex)):
        with pytest.raises(ValidationError):
            build(bad)
    # zero, or finite amplitudes whose norm overflows or underflows: the
    # error, and no numpy warning before it
    for zero in (np.zeros(2), np.zeros(2, dtype=complex), np.array([1e200, 1e200]),
                 np.array([1e200j, 1e200]), np.array([1e-320, 0.0])):
        with warnings.catch_warnings(), pytest.raises(DomainError):
            warnings.simplefilter("error")
            build(zero)


TWO_LEVEL = Observable(np.diag([0.0, 1.0]))
STEP_CFG = SdeConfig(sigma=1.0, dt=1e-3, t_max=0.01, seed=1)
ENTRY_POINTS = {
    "expectation": lambda z: expectation(TWO_LEVEL, z),
    "variance": lambda z: variance(TWO_LEVEL, z),
    "moments": lambda z: moments(TWO_LEVEL, z),
    "unitary_evolve": lambda z: unitary_evolve(TWO_LEVEL, z, 0.5),
    "reduction_step": lambda z: reduction_step(TWO_LEVEL, z, STEP_CFG, 0.01),
    "simulate_trajectory": lambda z: simulate_trajectory(TWO_LEVEL, z, STEP_CFG),
    "variance_drift_estimate": lambda z: variance_drift_estimate(TWO_LEVEL, z, STEP_CFG, 100),
    "born_expected": lambda z: born_expected(TWO_LEVEL, z),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_state_dimension_checked_at_every_entry_point(entry):
    with pytest.raises(ValidationError, match="dimension 3 != observable dimension 2"):
        ENTRY_POINTS[entry]([1.0, 0.0, 0.0])

"""Projective geometry: distances, charts, the quadric, exact incidences."""

import numpy as np
import pytest

from qreduce import (
    TWO_QUBIT_BASIS,
    ChartDomainError,
    DomainError,
    Observable,
    ProjectivePoint,
    ValidationError,
    fs_distance,
    fs_flow_check_cp1,
    geometry_selftest,
    is_disentangled,
    named_points,
    quadric_residual,
    segre_embed,
    tangent_intersection_check,
    to_chart,
    transition_probability,
)
from qreduce.geometry import from_chart, line_quadric_intersection_check

SINGLET = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)


def random_point(rng, n):
    return ProjectivePoint(rng.normal(size=n) + 1j * rng.normal(size=n))


def haar_su2(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTransitionProbability:
    def test_identical_points(self):
        p = ProjectivePoint([1, 2j, -3])
        assert transition_probability(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_points(self):
        assert transition_probability([1, 0], [0, 1]) == 0.0

    def test_singlet_against_down_up(self):
        assert transition_probability(SINGLET, [0, 0, 0, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_representative_independent(self):
        rng = np.random.default_rng(41)
        for n in (2, 4, 8):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            p = transition_probability(x, y)
            assert transition_probability(y, x) == pytest.approx(p, abs=1e-12)
            s = 0.3 - 2.2j
            assert transition_probability(s * x, y) == pytest.approx(p, abs=1e-12)
            assert fs_distance(s * x, y) == pytest.approx(fs_distance(x, y), abs=1e-12)

    def test_zero_point_rejected(self):
        # zero, or finite amplitudes whose squared norm overflows or underflows
        for bad in ([0, 0], [1e200, 1e200], [1e-170, 1e-170]):
            with pytest.raises(DomainError):
                transition_probability(bad, [1, 0])
            with pytest.raises(DomainError):
                transition_probability([1, 0], bad)


class TestFsDistance:
    def test_coincident(self):
        assert fs_distance([1, 1j], [1, 1j]) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_is_pi(self):
        assert fs_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi, abs=1e-12)

    def test_half_probability_is_half_pi(self):
        # invert cos^2(theta/2) = 1/2
        assert fs_distance(SINGLET, [0, 0, 0, 1]) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_cos_squared_relation(self):
        rng = np.random.default_rng(43)
        for n in (2, 5, 8):
            x, y = random_point(rng, n), random_point(rng, n)
            theta = fs_distance(x, y)
            assert np.cos(theta / 2.0) ** 2 == pytest.approx(
                transition_probability(x, y), abs=1e-12
            )

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = rng.integers(2, 9)
            a, b, c = (random_point(rng, n) for _ in range(3))
            assert fs_distance(a, c) <= fs_distance(a, b) + fs_distance(b, c) + 1e-10


class TestCharts:
    def test_examples(self):
        np.testing.assert_allclose(to_chart([0, 1], 2).affine, [0.0], atol=1e-15)
        np.testing.assert_allclose(to_chart([1, 1], 2).affine, [1.0], atol=1e-15)
        np.testing.assert_allclose(
            to_chart(SINGLET, 1).affine, [0.0, 0.0, -1.0], atol=1e-15
        )

    def test_round_trip(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = rng.integers(2, 7)
            p = random_point(rng, n)
            chart = int(np.argmax(np.abs(p.vector))) + 1
            back = from_chart(to_chart(p, chart))
            assert back.approx_eq(p, tol=1e-12)

    def test_chart_domain_error_names_index(self):
        with pytest.raises(ChartDomainError) as err:
            to_chart([0, 1, 0], 3)
        assert err.value.chart_index == 3
        assert "3" in str(err.value)

    def test_chart_index_range_validated(self):
        with pytest.raises(ValidationError):
            to_chart([1, 0], 5)


class TestSegreEmbedding:
    def test_named_images(self):
        assert segre_embed([1, 0], [1, 0]).approx_eq(ProjectivePoint([0, 1, 0, 0]))
        assert segre_embed([0, 1], [0, 1]).approx_eq(ProjectivePoint([0, 0, 1, 0]))
        assert segre_embed([1, 1], [1, -1]).approx_eq(ProjectivePoint([-1, 1, -1, 1]))

    def test_image_is_on_quadric(self):
        rng = np.random.default_rng(59)
        for _ in range(25):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            assert quadric_residual(segre_embed(a, b)) < 1e-12

    def test_matches_tensor_product_convention(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            img = segre_embed(a, b)
            tensor = ProjectivePoint(TWO_QUBIT_BASIS.product_vector(a, b))
            assert img.approx_eq(tensor, tol=1e-12)

    def test_zero_pair_rejected(self):
        with pytest.raises(DomainError):
            segre_embed([0, 0], [1, 0])


class TestQuadricResidual:
    def test_singlet_is_maximal(self):
        assert quadric_residual(SINGLET) == pytest.approx(1.0, abs=1e-12)

    def test_triplet_z0_is_maximal(self):
        assert quadric_residual([1, 0, 0, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_product_point(self):
        assert quadric_residual([1, 0, 0, 0]) == 0.0

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            u = np.kron(haar_su2(rng), haar_su2(rng))
            rotated = TWO_QUBIT_BASIS.from_kron(u @ TWO_QUBIT_BASIS.to_kron(z))
            assert quadric_residual(rotated) == pytest.approx(
                quadric_residual(z), abs=1e-10
            )

    def test_small_residual_implies_rank_one(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            img = segre_embed(a, b)
            # amplitude matrix [[y, x], [w, z]]: rank 1 exactly on the quadric
            x, y, z, w = img.vector
            s = np.linalg.svd(np.array([[y, x], [w, z]]), compute_uv=False)
            assert s[1] <= 1e-12 * s[0]

    def test_requires_dimension_four(self):
        with pytest.raises(ValidationError):
            quadric_residual([1, 0])

    @pytest.mark.parametrize("bad", [[np.nan, 0, 0, 1], [np.inf, 0, 0, 1], [[1, 0], [0, 1]]])
    def test_malformed_arrays_rejected(self, bad):
        with pytest.raises(ValidationError):
            quadric_residual(np.array(bad, dtype=complex))

    def test_zero_array_rejected(self):
        with pytest.raises(DomainError):
            quadric_residual(np.zeros(4, dtype=complex))
        # finite amplitudes whose squared norm overflows or underflows
        for bad in ([1e200, 0, 0, 1e200], [1e-170, 0, 0, 1e-170]):
            with pytest.raises(DomainError):
                quadric_residual(np.array(bad, dtype=complex))


class TestIsDisentangled:
    def test_examples(self):
        assert is_disentangled([1, 0, 0, 0], 1e-9)
        assert not is_disentangled(SINGLET, 1e-9)
        assert is_disentangled([1.0, 1e-8, 0.0, 0.0], 1e-9)  # residual exactly 0

    def test_tolerance_validated(self):
        with pytest.raises(ValidationError):
            is_disentangled([1, 0, 0, 0], 0.0)


class TestNamedPoints:
    def test_incidences(self):
        pts = named_points()
        assert transition_probability(pts["singlet"], pts["triplet_z0"]) < 1e-24
        assert transition_probability(pts["up_up"], pts["down_down"]) < 1e-24
        for key in ("up_up", "down_down", "up_down", "down_up"):
            assert quadric_residual(pts[key]) < 1e-15
        assert quadric_residual(pts["singlet"]) == pytest.approx(1.0)
        # conic: x^2 = yz with x = w
        for key in ("up_up", "down_down"):
            x, y, z, w = pts[key].vector
            assert abs(x - w) < 1e-15 and abs(x * x - y * z) < 1e-15

    def test_product_points_span_spin_zero_sector(self):
        pts = named_points()
        line = pts["singlet"].vector + pts["triplet_z0"].vector
        assert ProjectivePoint(line).approx_eq(pts["up_down"])

    def test_singlet_convention(self):
        # The basis convention must place the singlet at (1 : 0 : 0 : -1).
        up, down = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        s = (
            TWO_QUBIT_BASIS.product_vector(up, down)
            - TWO_QUBIT_BASIS.product_vector(down, up)
        ) / np.sqrt(2.0)
        np.testing.assert_allclose(s, SINGLET, atol=1e-15)


class TestExactChecks:
    def test_tangent_intersection(self):
        assert tangent_intersection_check()

    def test_line_quadric_intersection(self):
        assert line_quadric_intersection_check()

    def test_selftest_all_pass(self):
        results = geometry_selftest()
        assert len(results) >= 10
        assert all(ok for _, ok in results)


class TestFsFlowCp1:
    def test_identity_hamiltonian_is_static(self):
        H = Observable(np.eye(2))
        assert fs_flow_check_cp1(H, [1.0, 1.0]) < 1e-12

    def test_two_level_at_equal_superposition(self):
        H = Observable(np.diag([0.0, 1.0]))
        assert fs_flow_check_cp1(H, [1.0, 1.0]) < 1e-8

    def test_eigenstate_is_critical_point(self):
        H = Observable(np.diag([0.0, 1.0]))
        assert fs_flow_check_cp1(H, [0.0, 1.0]) < 1e-12

    def test_random_cases(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            H = Observable((a + a.conj().T) / 2.0)
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            if abs(z[1]) < 1e-6:
                z[1] = 1.0
            assert fs_flow_check_cp1(H, ProjectivePoint(z)) < 1e-8

    def test_outside_chart_rejected(self):
        H = Observable(np.eye(2))
        with pytest.raises(ChartDomainError):
            fs_flow_check_cp1(H, [1.0, 0.0])

    def test_dimension_validated(self):
        with pytest.raises(ValidationError):
            fs_flow_check_cp1(Observable(np.eye(3)), [1.0, 1.0, 0.0])

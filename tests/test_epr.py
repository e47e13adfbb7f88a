"""Singlet scenario: filter Hamiltonians, rotated bases, Born predictions."""

import numpy as np
import pytest

from qreduce import (
    FilterCoupling,
    FilterOrientation,
    SdeConfig,
    ValidationError,
    build_epr_hamiltonian,
    eigensystem,
    epr_born_conditional,
    epr_born_joint,
    quadric_residual,
    rotated_basis,
    simulate_trajectory,
    singlet_state,
    transition_probability,
)
from qreduce.geometry import TWO_QUBIT_BASIS


class TestSingletState:
    def test_coordinates(self):
        s = singlet_state()
        np.testing.assert_allclose(
            s.amplitudes, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15
        )
        assert s.norm() == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_to_triplet_z0(self):
        overlap = np.vdot(singlet_state().amplitudes, [1, 0, 0, 1]) / np.sqrt(2)
        assert abs(overlap) < 1e-15

    def test_maximally_entangled(self):
        assert quadric_residual(singlet_state()) == pytest.approx(1.0, abs=1e-14)

    def test_half_overlap_with_product_point(self):
        assert transition_probability(singlet_state(), [1, 0, 0, 0]) == pytest.approx(
            0.5, abs=1e-12
        )


class TestRotatedBasis:
    def test_zero_angle_is_standard_basis(self):
        nw, se = rotated_basis(0.0)
        np.testing.assert_allclose(nw.amplitudes, [1, 0], atol=1e-15)
        np.testing.assert_allclose(se.amplitudes, [0, 1], atol=1e-15)

    def test_pi_swaps_with_sign(self):
        nw, se = rotated_basis(np.pi)
        np.testing.assert_allclose(nw.amplitudes, [0, 1], atol=1e-15)
        np.testing.assert_allclose(se.amplitudes, [-1, 0], atol=1e-15)

    def test_half_pi(self):
        nw, se = rotated_basis(np.pi / 2)
        np.testing.assert_allclose(nw.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(se.amplitudes, np.array([-1, 1]) / np.sqrt(2), atol=1e-12)

    def test_orthonormal_with_unit_determinant(self):
        rng = np.random.default_rng(79)
        for theta in rng.uniform(0, np.pi, size=10):
            nw, se = rotated_basis(theta)
            basis = np.column_stack([nw.amplitudes, se.amplitudes])
            np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
            assert np.linalg.det(basis).real == pytest.approx(1.0, abs=1e-12)


class TestFilterCoupling:
    def test_values_round_trip(self):
        c = FilterCoupling.from_values(1.0, 2.0, 1.5, 3.0)
        assert c.values == (1.0, 2.0, 1.5, 3.0)
        assert c.matrix[0, 1] == 2.0  # lambda_{1,2}
        assert c.matrix[1, 0] == 3.0  # lambda_{2,1}

    def test_nondegenerate_flag(self):
        assert FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0).is_nondegenerate()
        assert not FilterCoupling.from_values(1.0, 2.0, 1.0, 3.0).is_nondegenerate()
        assert not FilterCoupling.from_values(1.0, 2.0, 1.5, 2.0 + 1e-12).is_nondegenerate()

    def test_nondegenerate_is_the_eigensystem_grouping(self):
        # eigensystem merges only gaps below 1e-9 ||H|| = 3e-19, so these are
        # four eigenspaces, though every gap is below 1e-9.
        coupling = FilterCoupling.from_values(0.0, 1e-10, 2e-10, 3e-10)
        assert len(eigensystem(build_epr_hamiltonian(coupling))) == 4
        assert coupling.is_nondegenerate()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            FilterCoupling(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestFilterOrientation:
    def test_validation(self):
        with pytest.raises(ValidationError):
            FilterOrientation(theta=-0.1)
        with pytest.raises(ValidationError):
            FilterOrientation(theta=4.0)
        with pytest.raises(ValidationError):
            FilterOrientation(theta=0.5, side=3)


class TestBuildEprHamiltonian:
    def test_complete_degeneracy_is_scalar(self):
        H = build_epr_hamiltonian(FilterCoupling.from_values(2.5, 2.5, 2.5, 2.5))
        np.testing.assert_allclose(H.matrix, 2.5 * np.eye(4), atol=1e-15)

    def test_diagonal_placement(self):
        H = build_epr_hamiltonian(FilterCoupling.from_values(1.0, 2.0, 1.0, 3.0))
        np.testing.assert_allclose(H.matrix, np.diag([2.0, 1.0, 1.0, 3.0]), atol=1e-15)

    def test_rotated_eigenvector(self):
        theta = np.pi / 3
        coupling = FilterCoupling.from_values(1.0, 2.0, 1.5, 3.0)
        H = build_epr_hamiltonian(coupling, FilterOrientation(theta=theta, side=1))
        nw, _ = rotated_basis(theta)
        assert nw.amplitudes[0] == pytest.approx(np.cos(np.pi / 6), abs=1e-15)
        state = TWO_QUBIT_BASIS.product_vector(nw.amplitudes, [0.0, 1.0])
        np.testing.assert_allclose(H.matrix @ state, 2.0 * state, atol=1e-12)

    def test_side_switch(self):
        theta = 0.7
        coupling = FilterCoupling.from_values(1.0, 2.0, 1.5, 3.0)
        H = build_epr_hamiltonian(coupling, FilterOrientation(theta=theta, side=2))
        nw, _ = rotated_basis(theta)
        state = TWO_QUBIT_BASIS.product_vector([1.0, 0.0], nw.amplitudes)
        # side 2 rotated: v_1 (x) w_1 carries lambda_{1,1}
        np.testing.assert_allclose(H.matrix @ state, 1.0 * state, atol=1e-12)

    def test_energy_offset_shifts_spectrum_only(self):
        coupling = FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)
        H0 = build_epr_hamiltonian(coupling)
        H1 = build_epr_hamiltonian(coupling, e0=5.0)
        np.testing.assert_allclose(H1.matrix, H0.matrix + 5.0 * np.eye(4), atol=1e-12)

    def test_eigenvalues_are_couplings(self):
        rng = np.random.default_rng(83)
        lam = (0.3, 1.7, 0.9, 2.4)
        theta = float(rng.uniform(0, np.pi))
        H = build_epr_hamiltonian(FilterCoupling.from_values(*lam),
                                  FilterOrientation(theta=theta))
        evals, _ = H.eig()
        np.testing.assert_allclose(np.sort(evals), np.sort(lam), atol=1e-12)

    def test_eigenvectors_are_product_states(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            lam = np.sort(rng.uniform(0, 3, size=4))
            lam += np.arange(4) * 0.2  # enforce pairwise distinct
            theta = float(rng.uniform(0, np.pi))
            side = int(rng.integers(1, 3))
            H = build_epr_hamiltonian(
                FilterCoupling.from_values(*lam), FilterOrientation(theta=theta, side=side)
            )
            _, evecs = H.eig()
            for k in range(4):
                assert quadric_residual(evecs[:, k]) < 1e-12

    def test_degenerate_pair_merges_and_contains_singlet(self):
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 2.0))
        spaces = eigensystem(H)
        dims = [s.dimension for s in spaces]
        assert dims == [1, 1, 2]
        merged = spaces[-1]
        s = singlet_state().amplitudes
        np.testing.assert_allclose(merged.projector @ s, s, atol=1e-12)


class TestBornTables:
    def test_joint_at_zero(self):
        joint = epr_born_joint(0.0)
        assert joint == {
            "nw_down": pytest.approx(0.5),
            "nw_up": pytest.approx(0.0),
            "se_down": pytest.approx(0.0),
            "se_up": pytest.approx(0.5),
        }

    def test_joint_at_pi_thirds(self):
        joint = epr_born_joint(np.pi / 3)
        assert joint["nw_down"] == pytest.approx(0.375, abs=1e-12)

    def test_joint_sums_to_one(self):
        for theta in np.linspace(0, np.pi, 17):
            assert sum(epr_born_joint(theta).values()) == pytest.approx(1.0, abs=1e-12)

    def test_joint_matches_direct_inner_products(self):
        rng = np.random.default_rng(97)
        s = singlet_state().amplitudes
        for theta in rng.uniform(0, np.pi, size=8):
            nw, se = rotated_basis(theta)
            states = {
                "nw_down": TWO_QUBIT_BASIS.product_vector(nw.amplitudes, [0, 1]),
                "nw_up": TWO_QUBIT_BASIS.product_vector(nw.amplitudes, [1, 0]),
                "se_down": TWO_QUBIT_BASIS.product_vector(se.amplitudes, [0, 1]),
                "se_up": TWO_QUBIT_BASIS.product_vector(se.amplitudes, [1, 0]),
            }
            joint = epr_born_joint(theta)
            for key, vec in states.items():
                assert abs(np.vdot(vec, s)) ** 2 == pytest.approx(joint[key], abs=1e-12)

    def test_conditional_values(self):
        assert epr_born_conditional(0.0) == pytest.approx(1.0)
        assert epr_born_conditional(np.pi / 3) == pytest.approx(0.75, abs=1e-12)
        assert epr_born_conditional(np.pi) == pytest.approx(0.0, abs=1e-12)

    def test_rotational_invariance_of_singlet(self):
        # Rotating both analyzers by a common angle leaves every probability
        # unchanged: only the relative angle matters for the spin-0 state.
        s = singlet_state().amplitudes
        rng = np.random.default_rng(101)
        for _ in range(6):
            theta = float(rng.uniform(0, np.pi))
            alpha = float(rng.uniform(0, 2 * np.pi))
            ca, sa = np.cos(alpha / 2), np.sin(alpha / 2)
            rot = np.array([[ca, -sa], [sa, ca]])
            nw, se = rotated_basis(theta)
            joint = epr_born_joint(theta)
            pairs = [
                ("nw_down", nw.amplitudes, [0, 1]),
                ("nw_up", nw.amplitudes, [1, 0]),
                ("se_down", se.amplitudes, [0, 1]),
                ("se_up", se.amplitudes, [1, 0]),
            ]
            for key, first, second in pairs:
                vec = TWO_QUBIT_BASIS.product_vector(rot @ first, rot @ np.asarray(second, float))
                assert abs(np.vdot(vec, s)) ** 2 == pytest.approx(joint[key], abs=1e-12)

    def test_theta_range_validated(self):
        with pytest.raises(ValidationError):
            epr_born_joint(-0.5)


class TestSpinSectorConservation:
    def test_commutes_with_total_spin_z(self):
        # In convention order (ud, uu, dd, du) the total spin-z reads
        # diag(0, 1, -1, 0); an unrotated filter Hamiltonian commutes with it.
        sz = np.diag([0.0, 1.0, -1.0, 0.0])
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        assert np.linalg.norm(H.matrix @ sz - sz @ H.matrix) < 1e-14

    def test_trajectory_stays_in_spin_zero_sector(self):
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=60.0, seed=5, record_stride=200)
        records, outcome = simulate_trajectory(H, singlet_state(), cfg)
        assert outcome.collapsed
        for rec in records:
            amps = rec.ray.vector
            assert abs(amps[1]) <= 1e-10 and abs(amps[2]) <= 1e-10

"""Acceptance suite: the package's contractual statistical and geometric checks.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all):

1. Born frequencies of the split-filter singlet ensemble, 99% binomial CI.
2. Rotated-filter correlation: conditional cos^2(theta/2) and its joint rate.
3. Energy martingale z-scores across checkpoints.
4. Monotone uncertainty decay and full reduction of the ensemble mean.
5. Ito drift calibration: uncertainty drift slope = 1 on a two-level system.
6. Collapsed singlet trajectories land on the product-state quadric iff the
   filter couplings split the up-down / down-up degeneracy.
7. Exact-arithmetic geometry suite, zero tolerance.
8. First-order deterministic convergence and the CP^1 Hamiltonian-flow check.
9. Byte-identical ensemble reports across worker counts.
"""

import json
import math

import numpy as np
import pytest

from qreduce import (
    EnsembleConfig,
    FilterCoupling,
    FilterOrientation,
    Observable,
    Ray,
    SdeConfig,
    build_epr_hamiltonian,
    eigensystem,
    fs_distance,
    fs_flow_check_cp1,
    geometry_selftest,
    martingale_test,
    quadric_residual,
    rotated_basis,
    run_ensemble,
    simulate_trajectory,
    singlet_state,
    unitary_evolve,
    variance_decay_test,
    variance_drift_estimate,
)
from qreduce.cli import main
from qreduce.geometry import TWO_QUBIT_BASIS

LAMBDA_SPLIT = (0.0, 2.0, 1.0, 3.0)  # (l11, l12, l22, l21), pairwise distinct


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def singlet_report():
    cfg = EnsembleConfig(
        n_traj=20000,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=200.0, seed=20240),
        hamiltonian=build_epr_hamiltonian(FilterCoupling.from_values(*LAMBDA_SPLIT)),
        initial_state=singlet_state(),
        checkpoints=(0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0),
    )
    return run_ensemble(cfg, collect_final_states=True)


@pytest.fixture(scope="module")
def rotated_report():
    theta = math.pi / 3.0
    cfg = EnsembleConfig(
        n_traj=8000,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=100.0, seed=777),
        hamiltonian=build_epr_hamiltonian(
            FilterCoupling.from_values(*LAMBDA_SPLIT), FilterOrientation(theta=theta)
        ),
        initial_state=singlet_state(),
        checkpoints=(0.0, 100.0),
    )
    return run_ensemble(cfg)


def test_criterion_1_born_frequencies(singlet_report):
    rep = singlet_report
    n_coll = rep.collapsed_count()
    freqs = {k: rep.outcome_counts[k] / n_coll for k in rep.outcome_counts}
    # eigenspaces ascending by eigenvalue: indices 2 and 3 are the split pair
    in_ci = all(0.491 <= freqs[k] <= 0.509 for k in (2, 3))
    fast = rep.wall_clock < 120.0
    ok = in_ci and fast and freqs[0] == 0.0 and freqs[1] == 0.0
    report_line(
        1, ok,
        f"freqs={freqs[2]:.4f}/{freqs[3]:.4f} (CI [0.491, 0.509]), "
        f"runtime {rep.wall_clock:.1f}s < 120s",
    )
    assert in_ci
    assert fast


def test_criterion_2_rotated_filter_correlation(rotated_report):
    rep = rotated_report
    H = build_epr_hamiltonian(
        FilterCoupling.from_values(*LAMBDA_SPLIT),
        FilterOrientation(theta=math.pi / 3.0),
    )
    spaces = eigensystem(H)
    nw, se = rotated_basis(math.pi / 3.0)
    down = np.array([0.0, 1.0])
    nw_down = TWO_QUBIT_BASIS.product_vector(nw.amplitudes, down)
    se_down = TWO_QUBIT_BASIS.product_vector(se.amplitudes, down)

    def space_of(state):
        overlaps = [abs(np.vdot(state, s.projector @ state)) for s in spaces]
        return int(np.argmax(overlaps))

    i_nw_down, i_se_down = space_of(nw_down), space_of(se_down)
    n_coll = rep.collapsed_count()
    c_nw = rep.outcome_counts[i_nw_down]
    c_se = rep.outcome_counts[i_se_down]
    n_down = c_nw + c_se

    joint = c_nw / n_coll
    sigma_joint = math.sqrt(0.375 * 0.625 / n_coll)
    cond = c_nw / n_down
    sigma_cond = math.sqrt(0.75 * 0.25 / n_down)
    ok_joint = abs(joint - 0.375) <= 3.0 * sigma_joint
    ok_cond = abs(cond - 0.75) <= 3.0 * sigma_cond
    report_line(
        2, ok_joint and ok_cond,
        f"conditional={cond:.4f} (0.75 +- {3 * sigma_cond:.4f}), "
        f"joint={joint:.4f} (0.375 +- {3 * sigma_joint:.4f})",
    )
    assert ok_cond
    assert ok_joint


def test_criterion_3_energy_martingale():
    cfg = EnsembleConfig(
        n_traj=5000,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=60.0, seed=555),
        hamiltonian=build_epr_hamiltonian(FilterCoupling.from_values(*LAMBDA_SPLIT)),
        initial_state=singlet_state(),
        checkpoints=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0),
    )
    verdict = martingale_test(run_ensemble(cfg))
    worst = max(abs(z) for z in verdict.details["z_scores"])
    report_line(3, verdict.passed, f"max |z| = {worst:.2f} < 4 over 9 checkpoints")
    assert verdict.passed


def test_criterion_4_variance_decay(singlet_report):
    rep = singlet_report
    verdict = variance_decay_test(rep)
    horizon = rep.sigma**2 * rep.initial_variance * rep.t_max
    assert horizon >= 50.0  # config is in the full-reduction regime
    final = rep.variance_mean_series[-1].mean
    frac_unc = rep.uncollapsed_count / rep.n_traj
    ok = verdict.passed and frac_unc < 0.01
    report_line(
        4, ok,
        f"final mean V = {final:.2e} < {0.01 * rep.initial_variance:.2e}, "
        f"monotone at 4 stderr, uncollapsed {100 * frac_unc:.2f}% < 1%",
    )
    assert verdict.passed
    assert frac_unc < 0.01


def test_criterion_5_ito_drift_calibration():
    H = Observable(np.diag([0.0, 1.0]))
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cfg = SdeConfig(sigma=1.0, dt=1e-3, t_max=5.0, seed=5)
    slope, stderr = variance_drift_estimate(H, psi0, cfg, n_traj=2000)
    ok = abs(slope - 1.0) <= 0.1
    report_line(5, ok, f"slope = {slope:.4f} +- {stderr:.4f} (target 1 +- 0.1)")
    assert ok


def test_criterion_6_disentanglement_geometry(singlet_report):
    rep = singlet_report
    finals = rep.final_states
    assert finals is not None
    residuals = []
    for i in range(rep.n_traj):
        if i not in rep.failed_indices:
            residuals.append(quadric_residual(finals[i]))
    residuals = np.asarray(residuals)
    # nondegenerate couplings: every collapsed trajectory is a product state
    n_coll = rep.collapsed_count()
    worst = float(residuals.max())
    ok_split = worst < 1e-3 and rep.uncollapsed_count == 0

    # degenerate couplings l12 == l21: the singlet sits inside the merged
    # eigenspace, so reduction halts at an entangled point
    cfg = EnsembleConfig(
        n_traj=300,
        base=SdeConfig(sigma=1.0, dt=2e-3, t_max=1.0, seed=99),
        hamiltonian=build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 2.0)),
        initial_state=singlet_state(),
        checkpoints=(0.0, 1.0),
    )
    deg = run_ensemble(cfg, collect_final_states=True)
    deg_res = np.array([quadric_residual(deg.final_states[i]) for i in range(300)])
    frac_entangled = float(np.mean(deg_res > 0.5))
    ok_deg = frac_entangled > 0.0 and deg.uncollapsed_count == 0
    report_line(
        6, ok_split and ok_deg,
        f"split filter: max residual {worst:.2e} < 1e-3 over {n_coll} collapses; "
        f"degenerate filter: {100 * frac_entangled:.0f}% end entangled (residual > 0.5)",
    )
    assert ok_split
    assert ok_deg


def test_criterion_7_exact_geometry():
    results = geometry_selftest()
    ok = all(passed for _, passed in results)
    report_line(7, ok, f"{sum(p for _, p in results)}/{len(results)} exact checks")
    assert ok


def test_criterion_8_deterministic_limit():
    rng = np.random.default_rng(2025)
    ratios = []
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = Observable((a + a.conj().T) / 2.0)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SdeConfig(sigma=0.0, dt=dt, t_max=1.0, seed=0,
                            record_stride=max(1, int(round(0.1 / dt))))
            records, _ = simulate_trajectory(H, z, cfg)
            errs.append(max(
                fs_distance(r.ray, Ray(unitary_evolve(H, z, r.time).amplitudes))
                for r in records
            ))
        ratios += [errs[0] / errs[1], errs[1] / errs[2]]
    halving = all(1.5 < r < 3.0 for r in ratios)

    worst_flow = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        H2 = Observable((a + a.conj().T) / 2.0)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        if abs(z[1]) < 1e-3:
            z[1] = 1.0
        worst_flow = max(worst_flow, fs_flow_check_cp1(H2, z))
    flow_ok = worst_flow < 1e-8
    report_line(
        8, halving and flow_ok,
        f"error ratios in [{min(ratios):.2f}, {max(ratios):.2f}] (target ~2), "
        f"flow discrepancy {worst_flow:.1e} < 1e-8",
    )
    assert halving
    assert flow_ok


def test_criterion_9_reproducibility(tmp_path):
    config = {
        "scenario": {"type": "epr", "lambda": list(LAMBDA_SPLIT), "theta": 0.0, "e0": 0.0},
        "sde": {"sigma": 1.0, "dt": 0.002, "t_max": 40.0},
        "ensemble": {"n_traj": 1500, "checkpoints": [0.0, 10.0, 40.0], "seed": 31415},
        "output": {"path": str(tmp_path / "default.json"), "format": "json"},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    rc1 = main(["ensemble", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"])
    rc2 = main(["ensemble", "--config", str(cfg_path), "--out", str(out2), "--workers", "4"])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = identical and rc1 == 0 and rc2 == 0
    report_line(
        9, ok,
        f"ensemble JSON byte-identical across 1 and 4 workers "
        f"({len(out1.read_bytes())} bytes)",
    )
    assert rc1 == 0 and rc2 == 0
    assert identical

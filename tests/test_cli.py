"""Command-line interface: config validation, outputs, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import qreduce
from qreduce import (FilterCoupling, Observable, SdeConfig, build_epr_hamiltonian,
                     simulate_trajectory, singlet_state)
from qreduce.cli import canonical_json, main, trajectory_columns, write_trajectory
from qreduce.config import apply_quick, parse_run_config
from qreduce.errors import ValidationError

BASE_CONFIG = {
    "scenario": {"type": "epr", "lambda": [0.0, 2.0, 1.0, 3.0], "theta": 0.0, "e0": 0.0},
    "sde": {"sigma": 1.0, "dt": 0.002, "t_max": 80.0, "record_stride": 2000},
    "ensemble": {"n_traj": 400, "checkpoints": [0.0, 5.0, 20.0, 80.0], "seed": 42},
    "output": {"path": "out.json", "format": "json"},
}


def write_config(tmp_path, overrides=None, **sections):
    data = json.loads(json.dumps(BASE_CONFIG))
    for section, values in sections.items():
        data[section].update(values)
    if overrides:
        data.update(overrides)
    t_max = data["sde"]["t_max"]
    cps = [c for c in data["ensemble"]["checkpoints"] if c <= t_max]
    data["ensemble"]["checkpoints"] = cps or [0.0, t_max]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def write_ensemble_config(tmp_path, sde=(), **ensemble):
    """BASE_CONFIG with ``sde`` and ``ensemble`` keys replaced as given, unfiltered."""
    data = json.loads(json.dumps(BASE_CONFIG))
    data["sde"].update(sde)
    data["ensemble"].update(ensemble)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def ensemble_exits_2(tmp_path, capsys, monkeypatch, args=(), **ensemble):
    """Stderr of ``qreduce ensemble``, asserted to exit 2 before integrating."""
    import qreduce.cli as cli_mod

    cfg_path = write_ensemble_config(tmp_path, **ensemble)
    runs = []
    monkeypatch.setattr(cli_mod, "run_ensemble", lambda *a, **k: runs.append(a))
    out = tmp_path / "r.json"
    assert main(["ensemble", "--config", str(cfg_path), "--out", str(out), *args]) == 2
    assert runs == []
    assert not out.exists()
    return capsys.readouterr().err


def unwritable_output_exits_1(tmp_path, capsys, monkeypatch, command, integrator, out):
    """``qreduce <command> --out <out>`` exits 1 without calling ``integrator``
    and creates no file."""
    import qreduce.cli as cli_mod

    def never(*a, **k):
        raise AssertionError("integrated before checking the output")

    monkeypatch.setattr(cli_mod, integrator, never)
    cfg_path = write_config(tmp_path)
    files = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / out)]) == 1
    assert "i/o error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == files


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_run_config(BASE_CONFIG)
        assert parse_run_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_custom_scenario_round_trip(self):
        data = json.loads(json.dumps(BASE_CONFIG))
        data["scenario"] = {
            "type": "custom",
            "matrix": {"real": [[0.0, 0.5], [0.5, 1.0]], "imag": [[0.0, 0.1], [-0.1, 0.0]]},
            "initial_state": {"real": [1.0, 1.0]},
        }
        cfg = parse_run_config(data)
        assert parse_run_config(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_key_named(self):
        data = json.loads(json.dumps(BASE_CONFIG))
        data["sde"]["sigmaa"] = 1.0
        with pytest.raises(Exception, match="sde.sigmaa"):
            parse_run_config(data)

    def test_negative_sigma_named(self):
        data = json.loads(json.dumps(BASE_CONFIG))
        data["sde"]["sigma"] = -1.0
        with pytest.raises(Exception, match="sde.sigma"):
            parse_run_config(data)
        # an integer too large for a float (JSON allows it)
        data["sde"]["sigma"] = 10**400
        with pytest.raises(ValidationError, match="sde.sigma"):
            parse_run_config(data)

    # The ensemble section's ranges are checked by EnsembleConfig, which only
    # the ensemble command builds; parse_run_config checks their JSON types.
    def test_checkpoints_must_fit_horizon(self, tmp_path, capsys, monkeypatch):
        err = ensemble_exits_2(tmp_path, capsys, monkeypatch, checkpoints=[0.0, 500.0])
        assert "ensemble.checkpoints" in err

    def test_checkpoints_on_one_step_named(self, tmp_path, capsys, monkeypatch):
        # At dt = 0.002, t = 0.001 rounds to step 0, the step of t = 0.
        err = ensemble_exits_2(tmp_path, capsys, monkeypatch, checkpoints=[0.0, 0.001, 80.0])
        assert "ensemble.checkpoints" in err

    @pytest.mark.parametrize("args, names", [
        ([], ["ensemble.n_traj"]),
        (["--quick"], ["ensemble.n_traj", "--quick"]),
    ])
    def test_no_trajectories_named(self, tmp_path, capsys, monkeypatch, args, names):
        err = ensemble_exits_2(tmp_path, capsys, monkeypatch, args, n_traj=0)
        assert all(name in err for name in names)

    def test_quick_scales_down(self):
        cfg = apply_quick(parse_run_config(BASE_CONFIG))
        assert cfg.n_traj == 40
        assert cfg.sde.t_max == pytest.approx(8.0)
        assert cfg.checkpoints[-1] == pytest.approx(8.0)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("section, values, args, key", [
        ("sde", {"sigma": -1.0}, [], "sde.sigma"),
        ("sde", {"dt": 0.0}, [], "sde.dt"),
        ("sde", {"t_max": 0.0}, [], "sde.t_max"),
        ("sde", {"record_stride": 0}, [], "sde.record_stride"),
        ("sde", {"collapse_variance_tol": 0.0}, [], "sde.collapse_variance_tol"),
        ("ensemble", {"seed": -1}, [], "ensemble.seed"),
        ("ensemble", {"seed": 2**64}, [], "ensemble.seed"),
        ("scenario", {"theta": 4.0}, [], "scenario.theta"),
        ("scenario", {"side": 3}, [], "scenario.side"),
        ("ensemble", {}, ["--seed", "-1"], "seed"),
    ])
    def test_every_range_error_names_its_key(self, tmp_path, capsys, section, values,
                                             args, key):
        cfg_path = write_config(tmp_path, **{section: values})
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out), *args])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    # sha256 of canonical_json(parse_run_config(config).to_dict()): integer-valued
    # numbers are echoed as floats, and an absent record_stride as its default.
    @pytest.mark.parametrize("sde, scenario, digest", [
        ({"sigma": 1, "t_max": 100}, {"theta": 1, "e0": 0, "side": 2},
         "b1e4629cb9a4959629007a9355fe29ad1a4fbc6cc363f5e4fc3998c8c91dbf24"),
        ({"collapse_variance_tol": 1e-9, "record_stride": None}, {},
         "88830aaa2a949de03698339ef0ee8b5f219c59c0fadaf60b33fc934da2c9fea7"),
    ])
    def test_config_echo_is_pinned(self, sde, scenario, digest):
        data = json.loads(json.dumps(BASE_CONFIG))
        data["sde"].update(sde)
        data["sde"] = {k: v for k, v in data["sde"].items() if v is not None}
        data["scenario"].update(scenario)
        echo = canonical_json(parse_run_config(data).to_dict())
        assert hashlib.sha256(echo.encode("utf-8")).hexdigest() == digest


# sha256 of the files write_trajectory makes from one split-filter singlet
# trajectory (2 001 records, none collapsed) at an index in noise group 0 and
# one in group 9, and from two trajectories of COLLAPSE_CFG that end in a
# collapse record: index 2 and index 2048, the first of noise group 1. Any
# change to the arithmetic or the formatting of the simulate path changes
# them, so only a declared format change may edit them.
PINNED_TRACES = {
    (0, "csv"): "23a93762a97aaee2a3c5ebbaae3bf53e86d9cbbf5ad3c069485708daa9f0dad8",
    (0, "json"): "d2f94a07ad61bd5ca58d89a7fb9ef420d731cf5ebb10b61e708b3f1802d5be88",
    (19999, "csv"): "d34f03a90c82d93058c454b71d0cdf7c98d7c1e9a461bc10fd42617b80efdcb3",
    (19999, "json"): "4bd261c94a09d46f88e41375cab14bd9640723ef4c426719953163bacc9ac49b",
    (2, "csv"): "13e85cff08a3d99d1ae5cea5663145ea4fc30b5191023d3094112e7a84d41437",
    (2, "json"): "596608316f07e3bd62eb3d863dc18a14716c29beecef5a58c5ea43cb405ca2e7",
    (2048, "csv"): "12f366653f4cf5a14d86621eee738fd27fa6a960fef60b9782450174ff569216",
    (2048, "json"): "f1d33a34b5c8cd773b1ce22a40d2485d446dc9408afc3d973708fbad7b1470a1",
}
# sigma^2 (lam_max - lam_min)^2 dt = 0.072 under the stability guard's 0.1
COLLAPSE_CFG = SdeConfig(sigma=2.0, dt=2e-3, t_max=60.0, seed=20240, record_stride=1)


class TestSimulateCommand:
    @pytest.mark.parametrize("index", [0, 19999])
    def test_trajectory_bytes_are_pinned(self, tmp_path, index):
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=4.0, seed=20240, record_stride=1)
        records, outcome = simulate_trajectory(H, singlet_state(), cfg, index)
        assert len(records) == 2001 and not outcome.collapsed
        for fmt in ("csv", "json"):
            path = tmp_path / f"trace-{index}.{fmt}"
            write_trajectory(str(path), records, H.dim, fmt, {"seed": 20240})
            assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRACES[index, fmt]

    @pytest.mark.parametrize("index, step, space", [(2, 2508, 2), (2048, 4577, 3)])
    def test_collapsing_trajectory_bytes_are_pinned(self, tmp_path, index, step, space):
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        records, outcome = simulate_trajectory(H, singlet_state(), COLLAPSE_CFG, index)
        assert len(records) == step + 1 and outcome.collapsed
        assert outcome.eigenspace_index == space
        assert outcome.hitting_time == records[-1].time == step * COLLAPSE_CFG.dt
        for fmt in ("csv", "json"):
            path = tmp_path / f"trace-{index}.{fmt}"
            write_trajectory(str(path), records, H.dim, fmt, {"seed": 20240})
            assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRACES[index, fmt]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writing_adds_a_bounded_buffer(self, tmp_path, fmt):
        # the rows go to the file as they are formatted, never as a second copy
        H = build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0))
        cfg = SdeConfig(sigma=1.0, dt=2e-3, t_max=0.01, seed=20240)
        records = simulate_trajectory(H, singlet_state(), cfg)[0][-1:] * 20000
        path = tmp_path / f"trace.{fmt}"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_trajectory(str(path), records, H.dim, fmt, {"seed": 20240})
            added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 20000 * 150  # every row was written
        assert added < 1_000_000

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_records_of_another_dimension_raise_before_writing(self, tmp_path, fmt):
        # rows narrower or wider than the header would make a malformed trace
        records, _ = simulate_trajectory(Observable([[0.0, 0.0], [0.0, 1.0]]), [1.0, 1.0],
                                         SdeConfig(sigma=1.0, dt=1e-3, t_max=0.002))
        path = tmp_path / f"trace.{fmt}"
        for dim in (3, 4):
            with pytest.raises(ValidationError, match=f"8 trace columns, dimension {dim}"):
                write_trajectory(str(path), records, dim, fmt, {})
        assert not path.exists()
        write_trajectory(str(path), records, 2, fmt, {})
        assert path.exists()

    @pytest.mark.parametrize("out", ["missing/out", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_exits_1_before_integrating(self, tmp_path, capsys,
                                                          monkeypatch, out):
        unwritable_output_exits_1(tmp_path, capsys, monkeypatch, "simulate", "simulate_trajectory", out)

    def test_collapse_writes_csv_with_decaying_tail(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                   "--format", "csv", "--seed", "9"])
        assert rc == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        header = lines[0].split(",")
        assert header == trajectory_columns(4)
        var_col = header.index("variance")
        variances = [float(row.split(",")[var_col]) for row in lines[1:]]
        tail = variances[-4:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 1e-6

    def test_validation_error_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, sde={"sigma": -0.5})
        rc = main(["simulate", "--config", str(cfg_path)])
        assert rc == 2
        assert "sde.sigma" in capsys.readouterr().err

    def test_sigma_zero_exits_3(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, sde={"sigma": 0.0, "t_max": 0.5,
                                               "record_stride": 50})
        rc = main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / "t.csv"), "--format", "csv"])
        assert rc == 3

    @pytest.mark.parametrize("t_max, ensemble, args", [
        # scaled by --quick, t = 0.01 becomes 0.001, which rounds to step 0 at dt = 0.002
        (80.0, {"checkpoints": [0.0, 0.01, 8.0]}, ["--quick"]),
        # full scale: checkpoints beyond t_max and no trajectories
        (8.0, {"checkpoints": [0.0, 500.0], "n_traj": 0}, []),
    ], ids=["quick", "full-scale"])
    def test_quick_ignores_checkpoints(self, tmp_path, t_max, ensemble, args):
        # simulate reads neither checkpoints nor n_traj, so it still runs
        cfg_path = write_ensemble_config(tmp_path, sde={"t_max": t_max}, **ensemble)
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                   "--format", "csv", *args])
        assert rc in (0, 3)
        assert out.exists()

    @pytest.mark.parametrize("t_max, args, names", [
        (0.0005, [], ["sde.t_max"]),
        (0.008, ["--quick"], ["sde.t_max", "--quick"]),
    ])
    def test_horizon_under_half_a_step_exits_2(self, tmp_path, capsys, t_max, args, names):
        # dt = 0.002: t_max rounds to 0 steps, directly or once --quick divides it by 10
        cfg_path = write_config(tmp_path, sde={"t_max": t_max})
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names)
        assert not out.exists()

    def test_json_format(self, tmp_path):
        cfg_path = write_config(tmp_path, sde={"t_max": 0.1, "record_stride": 10})
        out = tmp_path / "traj.json"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc in (0, 3)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["columns"] == trajectory_columns(4)
        assert payload["config"]["ensemble"]["seed"] == 42
        assert set(payload["records"][0]) == set(trajectory_columns(4))

    def test_custom_two_level_has_no_residual_column(self, tmp_path):
        data = json.loads(json.dumps(BASE_CONFIG))
        data["scenario"] = {
            "type": "custom",
            "matrix": {"real": [[0.0, 0.0], [0.0, 1.0]]},
            "initial_state": {"real": [1.0, 1.0]},
        }
        data["sde"] = {"sigma": 1.0, "dt": 0.002, "t_max": 60.0, "record_stride": 1000}
        data["ensemble"]["checkpoints"] = [0.0, 60.0]
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                   "--format", "csv", "--seed", "5"])
        assert rc in (0, 3)
        header = out.read_text(encoding="utf-8").split("\n")[0].split(",")
        assert header == ["t", "re_z1", "im_z1", "re_z2", "im_z2",
                          "energy_mean", "variance", "third_moment"]


EXPECTED_REPORT_KEYS = {
    "version", "config", "n_traj", "sigma", "dt", "t_max", "seed", "checkpoints",
    "eigenvalues", "eigenspace_dims", "outcome_counts", "expected_born",
    "chi_square", "chi_square_dof", "chi_square_pvalue", "energy_mean_series",
    "variance_mean_series", "initial_energy", "initial_variance",
    "uncollapsed_count", "failed_indices", "verdicts",
}


# sha256 of small `qreduce ensemble` reports, by (scenario.theta, seed): the
# split singlet and the rotated filter, 50 trajectories to t = 100.
PINNED_REPORTS = {
    (0.0, 20240): "e4c2b2747f97ffcdb2dabdb3b6f5c4f66290c8a158c355d5d58a605c6f4edd59",
    (math.pi / 3.0, 777): "331d09ed2369b79130af7dd008f27ac22d5aa0760ef70470c8cd83fd1853a834",
}


class TestEnsembleCommand:
    @pytest.mark.parametrize("theta, seed", sorted(PINNED_REPORTS), ids=["singlet", "rotated"])
    def test_report_bytes_are_pinned(self, tmp_path, theta, seed):
        cfg_path = write_config(tmp_path, scenario={"theta": theta}, sde={"t_max": 100.0},
                                ensemble={"n_traj": 50, "checkpoints": [0.0, 100.0], "seed": seed})
        out = tmp_path / "report.json"
        main(["ensemble", "--config", str(cfg_path), "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[theta, seed]

    def test_small_run_passes_and_pins_schema(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, ensemble={"n_traj": 300})
        out = tmp_path / "report.json"
        rc = main(["ensemble", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert set(payload) == EXPECTED_REPORT_KEYS
        assert payload["outcome_counts"].keys() == {"0", "1", "2", "3"}
        assert payload["expected_born"]["2"] == pytest.approx(0.5)
        assert sum(payload["outcome_counts"].values()) + payload[
            "uncollapsed_count"
        ] + len(payload["failed_indices"]) == 300
        assert payload["config"]["ensemble"]["seed"] == 42
        err = capsys.readouterr().err
        assert "energy_martingale: pass" in err

    def test_runs_stay_scipy_free(self, tmp_path):
        # The chi-square tail is the closed form in qreduce.ensemble: neither
        # a library run at one or two workers nor the command loads scipy.
        # Two noise groups, so the 2-worker runs open a process pool.
        cfg_path = write_config(tmp_path, ensemble={"n_traj": 2088}, sde={"t_max": 20.0})
        code = textwrap.dedent("""
            import sys
            from qreduce import (EnsembleConfig, FilterCoupling, SdeConfig,
                                 build_epr_hamiltonian, run_ensemble, singlet_state)
            from qreduce.cli import main
            from qreduce.dynamics import NOISE_GROUP
            assert NOISE_GROUP < 2088
            cfg = EnsembleConfig(
                n_traj=2088, base=SdeConfig(sigma=1.0, dt=2e-3, t_max=20.0, seed=3),
                hamiltonian=build_epr_hamiltonian(FilterCoupling.from_values(0.0, 2.0, 1.0, 3.0)),
                initial_state=singlet_state(), checkpoints=(0.0, 20.0))
            for n_workers in (1, 2):
                assert run_ensemble(cfg, n_workers=n_workers).chi_square_dof == 1
            assert main(["ensemble", "--config", sys.argv[1], "--out", sys.argv[2],
                         "--workers", "2"]) == 0
            sys.exit(" ".join(m for m in sys.modules if m.split(".")[0] == "scipy") or None)
        """)
        src = os.path.dirname(os.path.dirname(qreduce.__file__))
        run = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(tmp_path / "r.json")],
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg_path = write_config(tmp_path, ensemble={"n_traj": 150},
                                sde={"t_max": 30.0},
                                )
        # keep checkpoints inside the shortened horizon
        data = json.loads(cfg_path.read_text())
        data["ensemble"]["checkpoints"] = [0.0, 10.0, 30.0]
        cfg_path.write_text(json.dumps(data))
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        assert main(["ensemble", "--config", str(cfg_path), "--out", str(out1),
                     "--workers", "1"]) == 0
        assert main(["ensemble", "--config", str(cfg_path), "--out", str(out2),
                     "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_three_noise_groups_give_the_same_bytes_at_any_worker_count(self, tmp_path):
        # 2 * 2048 + 5 trajectories: 1, 2, 3 and 3 blocks, a process pool from 2 workers on
        cfg_path = write_config(tmp_path, sde={"sigma": 2.0, "t_max": 4.0},
                                ensemble={"n_traj": 4101, "checkpoints": [0.0, 2.0, 4.0]})
        outs = []
        for workers in (1, 2, 3, 8):
            outs.append(tmp_path / f"w{workers}.json")
            assert main(["ensemble", "--config", str(cfg_path), "--out", str(outs[-1]),
                         "--workers", str(workers)]) == 0
        assert len({out.read_bytes() for out in outs}) == 1
        payload = json.loads(outs[0].read_text(encoding="utf-8"))
        assert payload["n_traj"] == 4101
        assert 0 < sum(payload["outcome_counts"].values()) < 4101

    def test_rotated_filter_worker_count_does_not_change_bytes(self, tmp_path):
        # Four live outcomes: per-trajectory moments must not depend on the
        # shape of the block a trajectory runs in.
        cfg_path = write_config(
            tmp_path,
            scenario={"theta": math.pi / 3.0},
            sde={"t_max": 100.0},
            ensemble={"n_traj": 40, "checkpoints": [0.0, 100.0], "seed": 777},
        )
        out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
        main(["ensemble", "--config", str(cfg_path), "--out", str(out1), "--workers", "1"])
        main(["ensemble", "--config", str(cfg_path), "--out", str(out2), "--workers", "2"])
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text(encoding="utf-8"))
        assert payload["variance_mean_series"][0]["stderr"] == 0.0
        assert payload["energy_mean_series"][0]["stderr"] == 0.0

    def test_zero_workers_exits_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        rc = main(["ensemble", "--config", str(cfg_path),
                   "--out", str(tmp_path / "r.json"), "--workers", "0"])
        assert rc == 2
        assert "n_workers" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_quick_checkpoints_on_one_step_named(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, ensemble={"checkpoints": [0.0, 0.01, 8.0]})
        rc = main(["ensemble", "--config", str(cfg_path),
                   "--out", str(tmp_path / "r.json"), "--quick"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ensemble.checkpoints" in err and "--quick" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("checkpoints", [[1.0], []])
    def test_fewer_than_two_checkpoints_exit_2_before_integrating(
            self, tmp_path, capsys, monkeypatch, checkpoints):
        err = ensemble_exits_2(tmp_path, capsys, monkeypatch, checkpoints=checkpoints)
        assert "ensemble.checkpoints" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_records_of_another_dimension_raise_before_writing(self, tmp_path, fmt):
        # rows narrower or wider than the header would make a malformed trace
        records, _ = simulate_trajectory(Observable([[0.0, 0.0], [0.0, 1.0]]), [1.0, 1.0],
                                         SdeConfig(sigma=1.0, dt=1e-3, t_max=0.002))
        path = tmp_path / f"trace.{fmt}"
        for dim in (3, 4):
            with pytest.raises(ValidationError, match=f"8 trace columns, dimension {dim}"):
                write_trajectory(str(path), records, dim, fmt, {})
        assert not path.exists()
        write_trajectory(str(path), records, 2, fmt, {})
        assert path.exists()

    @pytest.mark.parametrize("out", ["missing/out", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output_exits_1_before_integrating(self, tmp_path, capsys,
                                                          monkeypatch, out):
        unwritable_output_exits_1(tmp_path, capsys, monkeypatch, "ensemble", "run_ensemble", out)

    @pytest.mark.parametrize("t_max, args, names", [
        (0.0005, [], ["sde.t_max"]),
        (0.008, ["--quick"], ["sde.t_max", "--quick"]),
    ])
    def test_horizon_under_half_a_step_exits_2(self, tmp_path, capsys, t_max, args, names):
        # the file sets no checkpoints, so the error is the horizon's, not theirs
        cfg_path = write_config(tmp_path, sde={"t_max": t_max})
        data = json.loads(cfg_path.read_text())
        del data["ensemble"]["checkpoints"]
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert main(["ensemble", "--config", str(cfg_path), "--out", str(out), *args]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in names)
        assert "checkpoints" not in err
        assert not out.exists()

    def test_csv_format_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, output={"format": "csv"})
        rc = main(["ensemble", "--config", str(cfg_path),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 2

    def test_failing_verdict_exits_4_but_writes_report(self, tmp_path, monkeypatch):
        import qreduce.cli as cli_mod
        from qreduce.ensemble import TestVerdict as Verdict

        monkeypatch.setattr(
            cli_mod, "born_frequency_test",
            lambda report: Verdict(name="born_frequencies", passed=False,
                                   details={"forced": True}),
        )
        cfg_path = write_config(tmp_path, ensemble={"n_traj": 50},
                                sde={"t_max": 10.0})
        data = json.loads(cfg_path.read_text())
        data["ensemble"]["checkpoints"] = [0.0, 10.0]
        cfg_path.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        rc = main(["ensemble", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 4
        assert out.exists()
        payload = json.loads(out.read_text())
        assert payload["verdicts"]["born_frequencies"]["passed"] is False


class TestGeometrySelftestCommand:
    def test_all_checks_pass(self, capsys):
        rc = main(["geometry-selftest"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "11/11 exact geometry checks passed" in out


class TestPredictCommand:
    def test_zero_angle(self, capsys):
        rc = main(["predict", "0"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conditional"] == 1.0
        assert payload["joint"]["nw_down"] == 0.5

    def test_pi_thirds(self, capsys):
        rc = main(["predict", str(math.pi / 3)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conditional"] == pytest.approx(0.75)
        assert payload["joint"]["nw_down"] == pytest.approx(0.375)

    def test_half_pi_joint_uniform(self, capsys):
        rc = main(["predict", str(math.pi / 2)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(v == pytest.approx(0.25) for v in payload["joint"].values())
        assert sum(payload["joint"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_exits_2(self, capsys):
        assert main(["predict", "4.0"]) == 2
        assert main(["predict", "-0.5"]) == 2

    def test_deterministic_output(self, capsys):
        main(["predict", "1.0"])
        first = capsys.readouterr().out
        main(["predict", "1.0"])
        assert capsys.readouterr().out == first

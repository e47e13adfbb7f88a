"""Command-line interface: config validation, outputs, exit codes."""

import json
import math

import pytest

from qreduce.cli import main, trajectory_columns
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

    def test_checkpoints_must_fit_horizon(self):
        data = json.loads(json.dumps(BASE_CONFIG))
        data["ensemble"]["checkpoints"] = [0.0, 500.0]
        with pytest.raises(Exception, match="checkpoints"):
            parse_run_config(data)

    def test_checkpoints_on_one_step_named(self):
        # At dt = 0.002, t = 0.001 rounds to step 0, the step of t = 0.
        data = json.loads(json.dumps(BASE_CONFIG))
        data["ensemble"]["checkpoints"] = [0.0, 0.001, 80.0]
        with pytest.raises(ValidationError, match="ensemble.checkpoints"):
            parse_run_config(data)

    def test_quick_scales_down(self):
        cfg = apply_quick(parse_run_config(BASE_CONFIG))
        assert cfg.n_traj == 40
        assert cfg.sde["t_max"] == pytest.approx(8.0)
        assert cfg.checkpoints[-1] == pytest.approx(8.0)

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err


class TestSimulateCommand:
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

    def test_quick_ignores_checkpoints(self, tmp_path):
        # Scaled by --quick, t = 0.01 becomes 0.001, which rounds to step 0
        # at dt = 0.002; simulate has no checkpoints, so it still runs.
        cfg_path = write_config(tmp_path, ensemble={"checkpoints": [0.0, 0.01, 8.0]})
        out = tmp_path / "t.csv"
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                   "--format", "csv", "--quick"])
        assert rc in (0, 3)
        assert out.exists()

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


class TestEnsembleCommand:
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

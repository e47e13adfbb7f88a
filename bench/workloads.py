"""The benchmark's workloads: inputs made from the seed, timed calls, checks.

Every workload keeps the acceptance noise seed (20240 for the singlet, 777
for the rotated filter), so its work per run and the outcome of its
statistical checks do not depend on the benchmark seed. The benchmark seed
instead sets the global phase and the scale of the initial singlet, which
the reduction dynamics must ignore: every seed gives the same physics
through a different input vector. Seed 0 is the acceptance input itself.

A workload has four steps, each run in the child process:

* ``prepare`` (untimed, once per benchmark run) writes the inputs;
* ``setup`` (timed as set-up) builds the problem through the public API;
* ``run`` (timed) does the work a user waits for;
* ``check`` (untimed) checks the outputs and hashes them; it returns the
  number of failed trajectories, the failed checks and the hashes.

Nothing here imports qreduce at module level, so the child can time the
import itself.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from pathlib import Path

LAMBDA_SPLIT = (0.0, 2.0, 1.0, 3.0)
SINGLET_CHECKPOINTS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0)
SINGLET_SEED = 20240
ROTATED_SEED = 777
ROTATED_THETA = math.pi / 3.0
RESIDUAL_LIMIT = 1e-3


def initial_state(seed: int) -> list[complex]:
    """The singlet (1, 0, 0, -1)/sqrt(2) times a phase and scale set by ``seed``."""
    factor = 1.0 + 0.0j
    if seed:
        rng = random.Random(seed)
        scale = 2.0 ** rng.uniform(-1.0, 1.0)
        factor = scale * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    s = 1.0 / math.sqrt(2.0)
    return [s * factor, 0.0j, 0.0j, -s * factor]


def initial_state_json(seed: int) -> dict:
    """``initial_state(seed)`` in the real/imag form of a config file."""
    psi0 = initial_state(seed)
    return {"real": [z.real for z in psi0], "imag": [z.imag for z in psi0]}


def custom_scenario(H, seed: int) -> dict:
    """A config ``scenario`` section holding ``H`` and the seeded singlet."""
    return {
        "type": "custom",
        "matrix": {"real": H.matrix.real.tolist(), "imag": H.matrix.imag.tolist()},
        "initial_state": initial_state_json(seed),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Output checks: pure functions of the outputs, so the self-test can show
# that each of them fails on a wrong output.
# ---------------------------------------------------------------------------

def singlet_failures(counts: dict, uncollapsed: int, failed: int, verdicts: dict,
                     max_residual: float) -> list[str]:
    """Acceptance criteria 1, 4 and 6 on the split-filter singlet ensemble.

    The Born band is the acceptance interval [0.491, 0.509] at 20 000
    collapses, widened by sqrt(20 000 / n) for n collapses.
    """
    out = []
    n_coll = sum(counts.values())
    if n_coll == 0:
        return ["no trajectory collapsed"]
    half = 0.009 * math.sqrt(20000.0 / n_coll)
    for k in (2, 3):
        f = counts.get(k, 0) / n_coll
        if not 0.5 - half <= f <= 0.5 + half:
            out.append(f"Born frequency of outcome {k} is {f:.4f}, "
                       f"outside [{0.5 - half:.4f}, {0.5 + half:.4f}]")
    for k in (0, 1):
        if counts.get(k, 0):
            out.append(f"outcome {k} has zero Born weight but {counts[k]} collapses")
    if uncollapsed:
        out.append(f"{uncollapsed} trajectories uncollapsed at t_max")
    if failed:
        out.append(f"{failed} trajectories failed to integrate")
    for name, passed in sorted(verdicts.items()):
        if not passed:
            out.append(f"verdict {name} failed")
    if len(verdicts) != 3:
        out.append(f"expected three verdicts, got {sorted(verdicts)}")
    if not max_residual < RESIDUAL_LIMIT:
        out.append(f"final state off the product quadric: residual {max_residual:.3g}")
    return out


def rotated_failures(exit_code: int, counts: dict, nw_down: int, se_down: int,
                     same_as_reference: bool) -> list[str]:
    """Acceptance criterion 2 and byte-identity with the workers-1 report."""
    out = []
    if exit_code != 0:
        out.append(f"qreduce ensemble exited with {exit_code}")
    if not same_as_reference:
        out.append("workers-2 report differs from the workers-1 report")
    n_coll = sum(counts.values())
    n_down = counts.get(nw_down, 0) + counts.get(se_down, 0)
    if n_coll == 0 or n_down == 0:
        return out + ["no collapses onto the down-filter outcomes"]
    joint = counts.get(nw_down, 0) / n_coll
    cond = counts.get(nw_down, 0) / n_down
    sigma_joint = math.sqrt(0.375 * 0.625 / n_coll)
    sigma_cond = math.sqrt(0.75 * 0.25 / n_down)
    if abs(joint - 0.375) > 3.0 * sigma_joint:
        out.append(f"joint rate {joint:.4f} outside 0.375 +- {3 * sigma_joint:.4f}")
    if abs(cond - 0.75) > 3.0 * sigma_cond:
        out.append(f"conditional rate {cond:.4f} outside 0.75 +- {3 * sigma_cond:.4f}")
    return out


def trace_failures(index: int, collapsed: bool, n_records: int, hit_step: int | None,
                   final_residual: float) -> list[str]:
    """A recorded trajectory collapses, records every step, ends on the quadric."""
    if not collapsed:
        return [f"trajectory {index} did not collapse"]
    out = []
    if n_records != hit_step + 1:
        out.append(f"trajectory {index}: {n_records} records for hit step {hit_step}")
    if not final_residual < RESIDUAL_LIMIT:
        out.append(f"trajectory {index}: final residual {final_residual:.3g}")
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SingletSplit:
    """The acceptance singlet ensemble through ``run_ensemble`` (criterion 1)."""

    sizes = {"full": 2000, "tiny": 40}

    @staticmethod
    def prepare(run_dir: Path, seed: int, size: str) -> dict:
        return {"trajectories": SingletSplit.sizes[size], "psi0": initial_state_json(seed)}

    @staticmethod
    def setup(inputs: dict, run_dir: Path):
        import qreduce
        from qreduce import dynamics, hilbert

        H = qreduce.build_epr_hamiltonian(qreduce.FilterCoupling.from_values(*LAMBDA_SPLIT))
        base = qreduce.SdeConfig(sigma=1.0, dt=2e-3, t_max=200.0, seed=SINGLET_SEED)
        psi0 = inputs["psi0"]
        cfg = qreduce.EnsembleConfig(
            n_traj=inputs["trajectories"], base=base, hamiltonian=H,
            initial_state=qreduce.StateVector(
                [complex(re, im) for re, im in zip(psi0["real"], psi0["imag"])]),
            checkpoints=SINGLET_CHECKPOINTS,
        )
        hilbert.eigensystem(H)
        dynamics.stability_guard(H, base)
        return cfg

    @staticmethod
    def run(cfg, run_dir: Path):
        from qreduce import ensemble

        report = ensemble.run_ensemble(cfg, n_workers=1, collect_final_states=True)
        verdicts = [ensemble.martingale_test(report), ensemble.variance_decay_test(report),
                    ensemble.born_frequency_test(report)]
        return report, verdicts

    @staticmethod
    def check(cfg, output, inputs: dict, run_dir: Path):
        from qreduce.cli import canonical_json
        from qreduce.geometry import quadric_residual

        report, verdicts = output
        failed = set(report.failed_indices)
        residual = max((quadric_residual(s) for i, s in enumerate(report.final_states)
                        if i not in failed), default=math.inf)
        failures = singlet_failures(report.outcome_counts, report.uncollapsed_count,
                                    len(failed), {v.name: v.passed for v in verdicts},
                                    residual)
        digest = sha256(canonical_json(report.to_json_dict()).encode())
        return len(failed), failures, {"report": digest}


class RotatedCli:
    """``qreduce ensemble --workers 2`` on the rotated filter (criterion 2)."""

    sizes = {"full": 1100, "tiny": 40}

    @staticmethod
    def prepare(run_dir: Path, seed: int, size: str) -> dict:
        import numpy as np
        import qreduce
        from qreduce.cli import main
        from qreduce.geometry import TWO_QUBIT_BASIS

        H = qreduce.build_epr_hamiltonian(
            qreduce.FilterCoupling.from_values(*LAMBDA_SPLIT),
            qreduce.FilterOrientation(theta=ROTATED_THETA),
        )
        config = {
            "scenario": custom_scenario(H, seed),
            "sde": {"sigma": 1.0, "dt": 2e-3, "t_max": 100.0},
            "ensemble": {"n_traj": RotatedCli.sizes[size], "checkpoints": [0.0, 100.0],
                         "seed": ROTATED_SEED},
            # a relative path, so that the echoed config and the report's
            # sha256 do not depend on where the checkout is
            "output": {"path": "report.json", "format": "json"},
        }
        config_path = run_dir / "rotated.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        spaces = qreduce.eigensystem(H)
        nw, se = qreduce.rotated_basis(ROTATED_THETA)
        down = np.array([0.0, 1.0])

        def space_of(state):
            return int(np.argmax([abs(np.vdot(state, s.projector @ state)) for s in spaces]))

        reference = run_dir / "reference.json"
        code = main(["ensemble", "--config", str(config_path), "--out", str(reference),
                     "--workers", "1"])
        return {
            "trajectories": RotatedCli.sizes[size],
            "config": str(config_path),
            "reference": str(reference),
            "reference_exit_code": code,
            "nw_down": space_of(TWO_QUBIT_BASIS.product_vector(nw.amplitudes, down)),
            "se_down": space_of(TWO_QUBIT_BASIS.product_vector(se.amplitudes, down)),
        }

    @staticmethod
    def setup(inputs: dict, run_dir: Path):
        from qreduce import config, dynamics, hilbert

        cfg = config.load_run_config(inputs["config"])
        H, _ = config.build_problem(cfg)
        sde = config.make_sde_config(cfg)
        hilbert.eigensystem(H)
        dynamics.stability_guard(H, sde)
        return inputs["config"]

    @staticmethod
    def run(config_path, run_dir: Path):
        from qreduce import cli

        out = run_dir / "out" / "report.json"
        code = cli.main(["ensemble", "--config", config_path, "--out", str(out),
                         "--workers", "2"])
        return code, out

    @staticmethod
    def check(config_path, output, inputs: dict, run_dir: Path):
        code, out = output
        data = out.read_bytes()
        report = json.loads(data)
        counts = {int(k): v for k, v in report["outcome_counts"].items()}
        same = data == Path(inputs["reference"]).read_bytes()
        failures = rotated_failures(code, counts, inputs["nw_down"], inputs["se_down"], same)
        if inputs["reference_exit_code"] != 0:
            failures.append(f"workers-1 reference exited with {inputs['reference_exit_code']}")
        return len(report["failed_indices"]), failures, {"report": sha256(data)}


class TrajectoryTrace:
    """``simulate_trajectory`` with every step recorded, written as CSV."""

    sizes = {"full": [0, 19999], "tiny": [0]}

    @staticmethod
    def prepare(run_dir: Path, seed: int, size: str) -> dict:
        import qreduce

        H = qreduce.build_epr_hamiltonian(qreduce.FilterCoupling.from_values(*LAMBDA_SPLIT))
        config = {
            "scenario": custom_scenario(H, seed),
            "sde": {"sigma": 1.0, "dt": 2e-3, "t_max": 200.0, "record_stride": 1},
            "ensemble": {"n_traj": 1, "seed": SINGLET_SEED},
            "output": {"path": "trace.csv", "format": "csv"},
        }
        config_path = run_dir / "trajectory.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        indices = TrajectoryTrace.sizes[size]
        return {"trajectories": len(indices), "config": str(config_path), "indices": indices}

    @staticmethod
    def setup(inputs: dict, run_dir: Path):
        from qreduce import config, dynamics, hilbert

        cfg = config.load_run_config(inputs["config"])
        H, psi0 = config.build_problem(cfg)
        sde = config.make_sde_config(cfg)
        hilbert.eigensystem(H)
        dynamics.stability_guard(H, sde)
        return cfg, H, psi0, sde, inputs["indices"]

    @staticmethod
    def run(state, run_dir: Path):
        from qreduce import cli, dynamics
        from qreduce.errors import IntegrationFailureError

        cfg, H, psi0, sde, indices = state
        echo = cfg.to_dict()
        results = {}
        for i in indices:
            try:
                records, outcome = dynamics.simulate_trajectory(H, psi0, sde, i)
            except IntegrationFailureError as exc:
                results[i] = exc
                continue
            path = run_dir / "out" / f"trace-{i}.csv"
            cli.write_trajectory(str(path), records, H.dim, "csv", echo)
            results[i] = (len(records), outcome, path)
        return results

    @staticmethod
    def check(state, output, inputs: dict, run_dir: Path):
        sde = state[3]
        failures, digests = [], {}
        for i, result in output.items():
            if isinstance(result, Exception):
                failures.append(f"trajectory {i} raised {result!r}")
                continue
            n_records, outcome, path = result
            hit = round(outcome.hitting_time / sde.dt) if outcome.collapsed else None
            failures += trace_failures(i, outcome.collapsed, n_records, hit,
                                       outcome.final_record.quadric_residual)
            digests[f"trace-{i}"] = sha256(path.read_bytes())
        failed = sum(isinstance(r, Exception) for r in output.values())
        return failed, failures, digests


WORKLOADS = {
    "singlet-split": SingletSplit,
    "rotated-cli": RotatedCli,
    "trajectory-trace": TrajectoryTrace,
}

"""Command-line interface: simulate, ensemble, geometry-selftest, predict.

Exit codes
----------
0  success (simulate: trajectory collapsed; ensemble: all verdicts pass)
1  integration failure or I/O error
2  invalid configuration or arguments
3  simulate: no collapse by t_max
4  ensemble: a statistical verdict failed; geometry-selftest: a check failed

All file output is UTF-8 with LF line endings; floats are written with
shortest round-trip precision so outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import (
    apply_quick,
    build_problem,
    load_run_config,
    make_ensemble_config,
    make_sde_config,
)
from .dynamics import TrajectoryRecord, simulate_trajectory
from .ensemble import (
    born_frequency_test,
    checkpoint_steps,
    martingale_test,
    run_ensemble,
    variance_decay_test,
)
from .epr import epr_born_conditional, epr_born_joint
from .errors import IntegrationFailureError, QReduceError, ValidationError
from .geometry import geometry_selftest


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def trajectory_columns(dim: int) -> list[str]:
    cols = ["t"]
    for i in range(1, dim + 1):
        cols += [f"re_z{i}", f"im_z{i}"]
    cols += ["energy_mean", "variance", "third_moment"]
    if dim == 4:
        cols.append("quadric_residual")
    return cols


def _record_row(rec: TrajectoryRecord, dim: int) -> list[float]:
    row = [rec.time]
    for z in rec.ray.vector:
        row += [z.real, z.imag]
    row += [rec.energy_mean, rec.variance, rec.third_moment]
    if dim == 4:
        row.append(rec.quadric_residual)
    return row


def write_trajectory(path: str, records: list[TrajectoryRecord], dim: int,
                     fmt: str, config_echo: dict) -> None:
    cols = trajectory_columns(dim)
    if fmt == "csv":
        lines = [",".join(cols)]
        for rec in records:
            lines.append(",".join(repr(float(v)) for v in _record_row(rec, dim)))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        payload = {
            "version": __version__,
            "config": config_echo,
            "columns": cols,
            "records": [
                dict(zip(cols, (float(v) for v in _record_row(rec, dim))))
                for rec in records
            ],
        }
        Path(path).write_text(canonical_json(payload), encoding="utf-8", newline="\n")


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if args.quick:
        cfg = apply_quick(cfg)
    H, psi0 = build_problem(cfg)
    sde = make_sde_config(cfg, args.seed)
    out_path = args.out or cfg.output_path
    fmt = args.format or cfg.output_format
    try:
        records, outcome = simulate_trajectory(H, psi0, sde)
    except IntegrationFailureError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 1
    echo = cfg.to_dict()
    echo["ensemble"]["seed"] = sde.seed  # seed actually used, after overrides
    write_trajectory(out_path, records, H.dim, fmt, echo)
    if outcome.collapsed:
        print(
            f"collapsed to eigenspace {outcome.eigenspace_index} "
            f"at t = {outcome.hitting_time:g}; wrote {out_path}",
            file=sys.stderr,
        )
        return 0
    print(f"no collapse by t_max = {sde.t_max:g}; wrote {out_path}", file=sys.stderr)
    return 3


def cmd_ensemble(args) -> int:
    cfg = load_run_config(args.config)
    if args.quick:
        cfg = apply_quick(cfg)
        checkpoint_steps(cfg.checkpoints, cfg.sde["dt"], cfg.sde["t_max"],
                         "ensemble.checkpoints scaled by --quick")
    if (args.format or cfg.output_format) != "json":
        raise ValidationError("ensemble reports support only output.format = json")
    ens_cfg = make_ensemble_config(cfg, args.seed)
    report = run_ensemble(ens_cfg, n_workers=args.workers)
    verdicts = [
        martingale_test(report),
        variance_decay_test(report),
        born_frequency_test(report),
    ]
    out_path = args.out or cfg.output_path
    echo = cfg.to_dict()
    echo["ensemble"]["seed"] = ens_cfg.base.seed
    payload = {"version": __version__, "config": echo}
    payload.update(report.to_json_dict())
    payload["verdicts"] = {
        v.name: {"passed": v.passed, "applicable": v.applicable, **v.details}
        for v in verdicts
    }
    Path(out_path).write_text(canonical_json(payload), encoding="utf-8", newline="\n")
    all_pass = all(v.passed for v in verdicts)
    for v in verdicts:
        status = "pass" if v.passed else ("n/a" if not v.applicable else "FAIL")
        print(f"{v.name}: {status}", file=sys.stderr)
    print(f"wrote {out_path} ({report.wall_clock:.1f}s)", file=sys.stderr)
    return 0 if all_pass else 4


def cmd_geometry_selftest(_args) -> int:
    checks = geometry_selftest()
    width = max(len(name) for name, _ in checks)
    failed = 0
    for name, ok in checks:
        print(f"{name:<{width}}  {'ok' if ok else 'FAIL'}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} exact geometry checks passed")
    return 0 if failed == 0 else 4


def cmd_predict(args) -> int:
    theta = args.theta
    if not (math.isfinite(theta) and 0.0 <= theta <= math.pi):
        print("theta must lie in [0, pi]", file=sys.stderr)
        return 2
    payload = {
        "theta": theta,
        "joint": epr_born_joint(theta),
        "conditional": epr_born_conditional(theta),
    }
    sys.stdout.write(canonical_json(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreduce",
        description="Energy-driven stochastic state reduction: simulation and geometry tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override ensemble.seed")
        p.add_argument("--out", default=None, help="override output.path")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override output.format (ensemble: must resolve to json)")
        p.add_argument("--quick", action="store_true",
                       help="scale n_traj and t_max down 10x for CI")

    p_sim = sub.add_parser("simulate", help="integrate a single reduction trajectory")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_ens = sub.add_parser("ensemble", help="run a trajectory ensemble with statistics")
    add_common(p_ens)
    p_ens.add_argument("--workers", type=int, default=1,
                       help="worker processes (does not affect results)")
    p_ens.set_defaults(func=cmd_ensemble)

    p_geo = sub.add_parser("geometry-selftest",
                           help="exact checks of the product-state geometry")
    p_geo.set_defaults(func=cmd_geometry_selftest)

    p_pred = sub.add_parser("predict", help="closed-form Born table for a filter angle")
    p_pred.add_argument("theta", type=float, help="relative analyzer angle in [0, pi]")
    p_pred.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except QReduceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

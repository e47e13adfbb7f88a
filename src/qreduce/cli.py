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
import errno
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import (RunConfig, apply_quick, build_problem, load_run_config,
                     make_ensemble_config, named)
from .dynamics import TrajectoryRecord, simulate_trajectory, trajectory_columns
from .ensemble import (
    born_frequency_test,
    martingale_test,
    run_ensemble,
    variance_decay_test,
)
from .epr import epr_born_conditional, epr_born_joint
from .errors import IntegrationFailureError, QReduceError, ValidationError
from .geometry import geometry_selftest


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Records per encoder call in JSON traces: large enough to amortise the call,
# small enough that a block's dicts and text stay a bounded buffer.
_JSON_BLOCK = 128


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, trailing newline."""
    return _encode(obj) + "\n"


def write_trajectory(path: str, records: list[TrajectoryRecord], dim: int,
                     fmt: str, config_echo: dict) -> None:
    """Write a trajectory's records to ``path`` as ``csv`` or ``json``.

    CSV is a header of ``trajectory_columns(dim)`` and one line per record;
    JSON is ``canonical_json`` of ``{"columns", "config", "records",
    "version"}``, each record an object keyed by column, its values one
    read of its row (``TrajectoryRecord.trace_row``). Both are streamed: rows
    go to the file as they are formatted, so writing adds only a bounded
    buffer to memory, never a second copy of the trace. Records whose
    columns are not those of ``dim`` raise ValidationError before the file
    is opened.
    """
    cols = trajectory_columns(dim)
    if records and (width := len(records[0].trace_row())) != len(cols):
        raise ValidationError(f"records have {width} trace columns, "
                              f"dimension {dim} has {len(cols)}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if fmt == "csv":
            f.write(",".join(cols) + "\n")
            f.writelines(",".join(map(repr, rec.trace_row())) + "\n"
                         for rec in records)
        else:
            # The frame of canonical_json, top-level keys in sorted order.
            f.write(f'{{"columns":{_encode(cols)},"config":{_encode(config_echo)},"records":[')
            for lo in range(0, len(records), _JSON_BLOCK):
                block = [dict(zip(cols, rec.trace_row()))
                         for rec in records[lo:lo + _JSON_BLOCK]]
                f.write(("," if lo else "") + _encode(block)[1:-1])
            f.write(f'],"version":{_encode(__version__)}}}\n')


def _check_writable(path: str) -> None:
    """Raise OSError unless ``path`` could be written as a file: its directory
    exists and is writable, and ``path`` itself is no directory.

    Run before integrating, so a bad output path fails in milliseconds
    instead of after the whole run; no file is created.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), folder)
    if not os.access(folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), folder)


def _run_config(args) -> RunConfig:
    """The ``--config`` file with ``--seed`` and ``--quick`` applied."""
    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, sde=named({"seed": "--seed"}, replace, cfg.sde, seed=args.seed))
    return apply_quick(cfg) if args.quick else cfg


def cmd_simulate(args) -> int:
    cfg = _run_config(args)
    H, psi0 = build_problem(cfg)
    out_path = args.out or cfg.output_path
    fmt = args.format or cfg.output_format
    _check_writable(out_path)
    try:
        records, outcome = simulate_trajectory(H, psi0, cfg.sde)
    except IntegrationFailureError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 1
    write_trajectory(out_path, records, H.dim, fmt, cfg.to_dict())
    if outcome.collapsed:
        print(
            f"collapsed to eigenspace {outcome.eigenspace_index} "
            f"at t = {outcome.hitting_time:g}; wrote {out_path}",
            file=sys.stderr,
        )
        return 0
    print(f"no collapse by t_max = {cfg.sde.t_max:g}; wrote {out_path}", file=sys.stderr)
    return 3


def cmd_ensemble(args) -> int:
    cfg = _run_config(args)
    scaled = " scaled by --quick" if args.quick else ""
    ens_cfg = named({k: f"ensemble.{k}{scaled}" for k in ("n_traj", "checkpoints")},
                    make_ensemble_config, cfg)
    if (args.format or cfg.output_format) != "json":
        raise ValidationError("ensemble reports support only output.format = json")
    if len(cfg.checkpoints) < 2:
        # the martingale and variance verdicts compare checkpoints
        raise ValidationError("ensemble.checkpoints needs at least two times for the verdicts")
    out_path = args.out or cfg.output_path
    _check_writable(out_path)
    report = run_ensemble(ens_cfg, n_workers=args.workers)
    verdicts = [
        martingale_test(report),
        variance_decay_test(report),
        born_frequency_test(report),
    ]
    payload = {"version": __version__, "config": cfg.to_dict()}
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
    payload = {
        "theta": args.theta,
        "joint": epr_born_joint(args.theta),
        "conditional": epr_born_conditional(args.theta),
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
                       help="worker processes, at most one per 2048 trajectories; same results")
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

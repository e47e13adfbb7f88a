"""Strict parsing and validation of run-configuration files.

The file format is JSON with four sections (scenario, sde, ensemble, output).
Unknown keys are rejected and every numeric range violation is reported with
the dotted path of the offending key, so a typo in a physics parameter fails
loudly instead of silently producing a wrong run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dynamics import SdeConfig
from .ensemble import EnsembleConfig, checkpoint_steps
from .epr import FilterCoupling, FilterOrientation, build_epr_hamiltonian, singlet_state
from .errors import ValidationError
from .hilbert import Observable, StateVector

_U64_MAX = 2**64 - 1


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path} must be an object")
    return value


def _check_keys(d: dict, path: str, required: set[str], optional: set[str]) -> None:
    for key in d:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown key: {path}.{key}")
    for key in required:
        if key not in d:
            raise ValidationError(f"missing key: {path}.{key}")


def _number(d: dict, path: str, key: str, *, lo=None, hi=None, lo_open=False,
            default=None) -> float:
    if key not in d:
        if default is not None:
            return default
        raise ValidationError(f"missing key: {path}.{key}")
    v = d[key]
    full = f"{path}.{key}"
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValidationError(f"{full} must be a finite number")
    v = float(v)
    if lo is not None and (v <= lo if lo_open else v < lo):
        op = ">" if lo_open else ">="
        raise ValidationError(f"{full} must be {op} {lo}")
    if hi is not None and v > hi:
        raise ValidationError(f"{full} must be <= {hi}")
    return v


def _integer(d: dict, path: str, key: str, *, lo=None, hi=None, default=None) -> int:
    if key not in d:
        if default is not None:
            return default
        raise ValidationError(f"missing key: {path}.{key}")
    v = d[key]
    full = f"{path}.{key}"
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{full} must be an integer")
    if lo is not None and v < lo:
        raise ValidationError(f"{full} must be >= {lo}")
    if hi is not None and v > hi:
        raise ValidationError(f"{full} must be <= {hi}")
    return v


def _real_matrix(d: dict, path: str, key: str, shape=None, default=None):
    if key not in d:
        if default is not None:
            return default
        raise ValidationError(f"missing key: {path}.{key}")
    full = f"{path}.{key}"
    try:
        arr = np.asarray(d[key], dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{full} must be an array of numbers") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{full} must contain only finite numbers")
    if shape is not None and arr.shape != shape:
        raise ValidationError(f"{full} must have shape {shape}")
    return arr


@dataclass(frozen=True)
class ScenarioConfig:
    type: str
    lam: tuple[float, float, float, float] | None = None
    theta: float = 0.0
    e0: float = 0.0
    side: int = 1
    matrix: np.ndarray | None = None
    initial_state: np.ndarray | None = None


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioConfig
    sde: dict
    n_traj: int
    checkpoints: tuple[float, ...]
    seed: int
    output_path: str
    output_format: str

    def to_dict(self) -> dict:
        if self.scenario.type == "epr":
            scenario = {
                "type": "epr",
                "lambda": list(self.scenario.lam),
                "theta": self.scenario.theta,
                "e0": self.scenario.e0,
                "side": self.scenario.side,
            }
        else:
            scenario = {
                "type": "custom",
                "matrix": {
                    "real": self.scenario.matrix.real.tolist(),
                    "imag": self.scenario.matrix.imag.tolist(),
                },
                "initial_state": {
                    "real": self.scenario.initial_state.real.tolist(),
                    "imag": self.scenario.initial_state.imag.tolist(),
                },
            }
        sde = dict(self.sde)
        return {
            "scenario": scenario,
            "sde": sde,
            "ensemble": {
                "n_traj": self.n_traj,
                "checkpoints": list(self.checkpoints),
                "seed": self.seed,
            },
            "output": {"path": self.output_path, "format": self.output_format},
        }


def parse_run_config(data: dict) -> RunConfig:
    """Validate a configuration mapping and normalize it into a RunConfig."""
    _require_mapping(data, "config")
    _check_keys(data, "config", {"scenario", "sde", "ensemble", "output"}, set())

    sc = _require_mapping(data["scenario"], "scenario")
    sc_type = sc.get("type")
    if sc_type == "epr":
        _check_keys(sc, "scenario", {"type", "lambda"}, {"theta", "e0", "side"})
        lam = _real_matrix(sc, "scenario", "lambda", shape=(4,))
        theta = _number(sc, "scenario", "theta", lo=0.0, hi=math.pi, default=0.0)
        e0 = _number(sc, "scenario", "e0", default=0.0)
        side = _integer(sc, "scenario", "side", lo=1, hi=2, default=1)
        scenario = ScenarioConfig(
            type="epr", lam=tuple(float(v) for v in lam), theta=theta, e0=e0, side=side
        )
    elif sc_type == "custom":
        _check_keys(sc, "scenario", {"type", "matrix", "initial_state"}, set())
        mat = _require_mapping(sc["matrix"], "scenario.matrix")
        _check_keys(mat, "scenario.matrix", {"real"}, {"imag"})
        re = _real_matrix(mat, "scenario.matrix", "real")
        if re.ndim != 2 or re.shape[0] != re.shape[1]:
            raise ValidationError("scenario.matrix.real must be square")
        im = _real_matrix(mat, "scenario.matrix", "imag", shape=re.shape,
                          default=np.zeros(re.shape))
        st = _require_mapping(sc["initial_state"], "scenario.initial_state")
        _check_keys(st, "scenario.initial_state", {"real"}, {"imag"})
        sre = _real_matrix(st, "scenario.initial_state", "real")
        if sre.ndim != 1 or sre.size != re.shape[0]:
            raise ValidationError(
                "scenario.initial_state.real must match the matrix dimension"
            )
        sim = _real_matrix(st, "scenario.initial_state", "imag", shape=sre.shape,
                           default=np.zeros(sre.shape))
        scenario = ScenarioConfig(
            type="custom", matrix=re + 1j * im, initial_state=sre + 1j * sim
        )
    else:
        raise ValidationError('scenario.type must be "epr" or "custom"')

    sde = _require_mapping(data["sde"], "sde")
    _check_keys(sde, "sde", {"sigma", "dt", "t_max"},
                {"collapse_variance_tol", "record_stride"})
    sde_norm = {
        "sigma": _number(sde, "sde", "sigma", lo=0.0),
        "dt": _number(sde, "sde", "dt", lo=0.0, lo_open=True),
        "t_max": _number(sde, "sde", "t_max", lo=0.0, lo_open=True),
        "record_stride": _integer(sde, "sde", "record_stride", lo=1, default=1),
    }
    if "collapse_variance_tol" in sde:
        sde_norm["collapse_variance_tol"] = _number(
            sde, "sde", "collapse_variance_tol", lo=0.0, lo_open=True
        )

    ens = _require_mapping(data["ensemble"], "ensemble")
    _check_keys(ens, "ensemble", {"n_traj", "seed"}, {"checkpoints"})
    n_traj = _integer(ens, "ensemble", "n_traj", lo=1)
    seed = _integer(ens, "ensemble", "seed", lo=0, hi=_U64_MAX)
    if "checkpoints" in ens:
        cps = _real_matrix(ens, "ensemble", "checkpoints")
        if cps.ndim != 1:
            raise ValidationError("ensemble.checkpoints must be a flat list")
        cps = tuple(float(t) for t in cps)
        checkpoint_steps(cps, sde_norm["dt"], sde_norm["t_max"], "ensemble.checkpoints")
    else:
        cps = (0.0, sde_norm["t_max"])

    out = _require_mapping(data["output"], "output")
    _check_keys(out, "output", {"path", "format"}, set())
    if not isinstance(out["path"], str) or not out["path"]:
        raise ValidationError("output.path must be a nonempty string")
    if out["format"] not in ("csv", "json"):
        raise ValidationError('output.format must be "csv" or "json"')

    return RunConfig(
        scenario=scenario,
        sde=sde_norm,
        n_traj=n_traj,
        checkpoints=cps,
        seed=seed,
        output_path=out["path"],
        output_format=out["format"],
    )


def load_run_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(data)


def build_problem(cfg: RunConfig) -> tuple[Observable, StateVector]:
    """Hamiltonian and initial state described by the scenario section."""
    sc = cfg.scenario
    if sc.type == "epr":
        coupling = FilterCoupling.from_values(*sc.lam)
        orientation = FilterOrientation(theta=sc.theta, side=sc.side)
        H = build_epr_hamiltonian(coupling, orientation, e0=sc.e0)
        return H, singlet_state()
    try:
        H = Observable(sc.matrix)
    except ValidationError as exc:
        raise ValidationError(f"scenario.matrix: {exc}") from exc
    try:
        psi0 = StateVector(sc.initial_state)
    except Exception as exc:
        raise ValidationError(f"scenario.initial_state: {exc}") from exc
    return H, psi0


def make_sde_config(cfg: RunConfig, seed: int | None = None) -> SdeConfig:
    return SdeConfig(seed=cfg.seed if seed is None else seed, **cfg.sde)


def make_ensemble_config(cfg: RunConfig, seed: int | None = None) -> EnsembleConfig:
    H, psi0 = build_problem(cfg)
    return EnsembleConfig(
        n_traj=cfg.n_traj,
        base=make_sde_config(cfg, seed),
        hamiltonian=H,
        initial_state=psi0,
        checkpoints=cfg.checkpoints,
    )


def apply_quick(cfg: RunConfig) -> RunConfig:
    """Scale an ensemble down 10x for CI: n_traj, t_max and checkpoints.

    ``simulate`` ignores checkpoints, so only the ensemble command checks them.
    """
    return replace(
        cfg,
        sde={**cfg.sde, "t_max": cfg.sde["t_max"] / 10.0},
        n_traj=max(1, cfg.n_traj // 10),
        checkpoints=tuple(t / 10.0 for t in cfg.checkpoints),
    )

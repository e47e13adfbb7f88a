"""Benchmark of qreduce: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload singlet-split --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

* ``singlet-split``: the acceptance singlet ensemble through run_ensemble;
* ``rotated-cli``: ``qreduce ensemble --workers 2`` on the rotated filter;
* ``trajectory-trace``: single trajectories recorded at every step, as CSV.

Each repetition runs in a fresh Python process that imports qreduce from
``src/`` of this checkout. Repetitions run back to back for about
``--seconds`` seconds (at least one), and the metrics are their medians.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics of the
traced ones are printed, with the tracing overhead. The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``, where
``attempted`` and ``failed`` count trajectories, so ``failed / attempted``
is the failed fraction. Every file the run writes goes to
``.bench_out/<workload>-seed<seed>-trace<trace>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit, exact): exact metrics are counts that must repeat exactly
# between traced repetitions of one seed.
PER_LAYER = (
    ("dynamics.step_normals.calls", "count", True),
    ("dynamics.step_normals.normals_drawn", "count", True),
    ("dynamics.step_normals.busy_s", "s", False),
    ("dynamics.step_normals.useful_ratio", "ratio", True),
    ("dynamics.batch.busy_s", "s", False),
    ("dynamics.batch.self_s", "s", False),
    ("dynamics.batch.active_steps", "count", True),
    ("dynamics.batch.ns_per_active_step", "ns", False),
    ("dynamics.batch.last_active_step", "step", True),
    ("dynamics.batch.idle_steps", "count", True),
    ("dynamics.batch.live_components", "count", True),
    ("dynamics.batch.hit_t_p50", "model_t", True),
    ("dynamics.batch.hit_t_p90", "model_t", True),
    ("dynamics.batch.hit_t_max", "model_t", True),
    ("dynamics.simulate.steps", "count", True),
    ("dynamics.simulate.us_per_step", "us", False),
    ("hilbert.ray.calls", "count", True),
    ("hilbert.ray.busy_s", "s", False),
    ("geometry.quadric_residual.calls", "count", True),
    ("geometry.quadric_residual.busy_s", "s", False),
    ("hilbert.eigensystem.calls", "count", True),
    ("hilbert.eigensystem.busy_s", "s", False),
    ("ensemble.block_s_max", "s", False),
    ("ensemble.block_s_min", "s", False),
    ("ensemble.block_imbalance", "ratio", False),
    ("ensemble.fanout_overhead_s", "s", False),
    ("ensemble.aggregate_s", "s", False),
    ("ensemble.verdicts_s", "s", False),
    ("config.load_s", "s", False),
    ("cli.write_s", "s", False),
    ("cli.import_s", "s", False),
)
# Median traced wall_s minus median untraced wall_s, printed after PER_LAYER.
OVERHEAD = ("trace.overhead_s", "s")


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def run_child(args: list[str], log: Path, timeout: float) -> int:
    """Run one child process in its own session; kill the session on timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    with log.open("ab") as out:
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], stdout=out,
                                stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -signal.SIGKILL


def run_rep(workload: str, run_dir: Path, rep: str, trace: bool, deadline: float) -> dict:
    args = ["--workload", workload, "--run-dir", str(run_dir), "--rep", rep]
    if trace:
        args.append("--trace")
    t_spawn = time.monotonic()
    code = run_child(args + ["--spawn", repr(t_spawn)], run_dir / f"{rep}.log",
                     deadline - t_spawn)
    path = run_dir / f"{rep}.json"
    result = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if code != 0:
        result.setdefault("failures", []).append(
            f"{rep} exited with {code}; see {run_dir / (rep + '.log')}")
    return result


def median(samples: list[dict], key: str):
    return statistics.median(s[key] for s in samples)


def repetition_failures(digests: list, layers: list[dict]) -> list[str]:
    """Repetitions of one seed must write the same outputs and count the same work."""
    out = []
    if any(d != digests[0] for d in digests):
        out.append(f"outputs differ between repetitions of one seed: {digests}")
    for name, _, exact in PER_LAYER:
        values = [layer[name] for layer in layers]
        if exact and any(v != values[0] for v in values):
            out.append(f"count {name} differs between traced repetitions: {values}")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few trajectories, for the self-test")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "qreduce" / "__init__.py").is_file():
        print(f"no qreduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # Prepare the inputs in an untimed process, which also warms the file
    # cache and writes the bytecode of src/.
    code = run_child(["--workload", args.workload, "--run-dir", str(run_dir), "--prepare",
                      "--seed", str(args.seed), "--size", args.size],
                     run_dir / "prepare.log", deadline - time.monotonic())
    if code != 0:
        print(f"preparing the inputs failed ({code}); see {run_dir / 'prepare.log'}",
              file=sys.stderr)
        return 1

    plain: list[dict] = []
    traced: list[dict] = []
    t_measure = time.monotonic()
    while True:
        plain.append(run_rep(args.workload, run_dir, f"rep{len(plain)}", False, deadline))
        if args.trace:
            traced.append(run_rep(args.workload, run_dir, f"traced{len(traced)}", True,
                                  deadline))
        reps = plain + traced
        elapsed = time.monotonic() - t_measure
        last = elapsed / len(plain)
        if any(r.get("failures") for r in reps):
            break
        if time.monotonic() + last > deadline:
            break
        if elapsed + last / 2 >= args.seconds:
            break

    reps = plain + traced
    digests = [r.get("sha256") for r in reps]
    complete = all("wall_s" in r for r in plain) and all("layers" in r for r in traced)
    layers = [r["layers"] for r in traced] if complete else []
    failures = [f for r in reps for f in r.get("failures", [])]
    failures += repetition_failures(digests, layers)
    # A repetition that crashed or failed a check fails all its trajectories.
    planned = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))["trajectories"]
    attempted = planned * len(reps)
    failed = sum(planned if r.get("failures") else r["failed"] for r in reps)

    metrics = {}
    if complete and not args.trace:
        for name, unit in END_TO_END:
            metrics[name] = {"value": median(plain, name), "unit": unit}
    elif complete:
        for name, unit, exact in PER_LAYER:
            value = layers[0][name] if exact else median(layers, name)
            metrics[name] = {"value": value, "unit": unit}
        overhead = median(traced, "wall_s") - median(plain, "wall_s")
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "machine": machine(), "sha256": digests[0],
        "repetitions": {"untraced": plain, "traced": traced},
        "failures": failures, "metrics": metrics,
    }
    (run_dir / "result.json").write_text(json.dumps(info, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir / "out")  # reports and traces are known by their sha256

    print(f"machine: {json.dumps(info['machine'])}")
    for key, digest in sorted((digests[0] or {}).items()):
        print(f"sha256 {args.workload} seed {args.seed} {key}: {digest}")
    for name, unit in END_TO_END:
        values = [r[name] for r in plain if name in r]
        if values:
            print(f"{name}: median {statistics.median(values):.4f} {unit} over "
                  f"{len(values)} untraced repetitions (min {min(values):.4f}, "
                  f"max {max(values):.4f})")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} trajectories)")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    print(json.dumps({"correct": not failures and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

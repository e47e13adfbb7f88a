"""One process of a benchmark run: prepares the inputs or runs one repetition.

    python3 bench/child.py --workload W --run-dir DIR --prepare --seed N --size full
    python3 bench/child.py --workload W --run-dir DIR --rep NAME --spawn T [--trace]

``--spawn`` is the system-wide monotonic time at which the parent started
this process; set-up and wall times are measured from it. A repetition
writes ``DIR/NAME.json`` with its times, peak memory, output check and, when
traced, its per-layer metrics; its spans go to ``DIR/NAME-spans.json``.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--run-dir", required=True, type=Path)
    p.add_argument("--prepare", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--rep")
    p.add_argument("--spawn", type=float)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    import qreduce
    import qreduce.cli  # noqa: F401
    t_import = time.monotonic()
    source = Path(qreduce.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"qreduce imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_dir = args.run_dir
    (run_dir / "out").mkdir(parents=True, exist_ok=True)
    if args.prepare:
        inputs = workload.prepare(run_dir, args.seed, args.size)
        (run_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        return 0

    inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_dir / f"{args.rep}-workers")
        tracer.worker_dir.mkdir(exist_ok=True)
        tracing.install(tracer)

    result = {"import_s": t_import - T_START}
    try:
        state = workload.setup(inputs, run_dir)
        t_setup = time.monotonic()
        output = workload.run(state, run_dir)
        t_done = time.monotonic()
        result.update(setup_s=t_setup - args.spawn, wall_s=t_done - args.spawn,
                      peak_rss_mb=peak_rss_mb())
        if tracer is not None:
            tracer.uninstall()
        failed, failures, digests = workload.check(state, output, inputs, run_dir)
    except Exception:
        traceback.print_exc()
        result["failures"] = ["workload raised:\n" + traceback.format_exc()]
        (run_dir / f"{args.rep}.json").write_text(json.dumps(result), encoding="utf-8")
        return 1
    result.update(failed=failed, failures=failures, sha256=digests)
    if tracer is not None:
        spans = tracer.collect()
        tracing.write_spans(run_dir / f"{args.rep}-spans.json", spans)
        result["layers"], problems = tracing.layer_metrics(spans, result["import_s"])
        result["failures"] += problems
    (run_dir / f"{args.rep}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

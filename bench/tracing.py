"""Spans around calls into qreduce, recorded from the benchmark's own code.

A ``Tracer`` replaces module-level names (``qreduce.dynamics.step_normals``,
``qreduce.ensemble.run_reduction_batch``, ...) with wrappers that record one
span per call: an id, the layer name, start and end on the system-wide
monotonic clock, the id of the enclosing span and an optional value taken
from the call (such as the number of normals drawn). Spans stay in memory
and are written out when the traced process ends. Worker processes forked by
the ensemble's process pool inherit the wrappers; they write their spans to
one file per worker as soon as their top-level span ends, because a pool
worker never runs exit hooks.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics of BENCHMARK.json. The noise counts are recomputed from each batch's
``hit_step`` and checked against the counts the wrappers saw.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

ID, NAME, START, END, PARENT, VALUE = range(6)


class Tracer:
    def __init__(self, worker_dir: Path):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[str] = []
        self.worker_dir = Path(worker_dir)
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, value=None) -> None:
        """Trace calls to ``module.attr`` as spans named ``name``.

        ``value(args, kwargs, result)`` may return a JSON value kept with the
        span.
        """
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:
                # First call in a forked worker: the inherited spans belong to
                # the parent, which writes them itself.
                tracer.pid, tracer.spans = pid, []
            span = [f"{pid}.{len(tracer.spans)}", name, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else None, None]
            tracer.spans.append(span)
            tracer.stack.append(span[ID])
            span[START] = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = time.monotonic()
                tracer.stack.pop()
                if value is not None and result is not None:
                    span[VALUE] = value(args, kwargs, result)
                parent = span[PARENT]
                if parent is not None and not parent.startswith(f"{pid}."):
                    tracer._flush_worker()

        setattr(module, attr, traced)
        self._installed.append((module, attr, fn))

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"spans-worker-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
        self.spans = []

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def collect(self) -> list[list]:
        """This process's spans followed by those its workers wrote."""
        spans = list(self.spans)
        for path in sorted(self.worker_dir.glob("spans-worker-*.jsonl")):
            with path.open(encoding="utf-8") as f:
                spans.extend(json.loads(line) for line in f)
        return spans


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads pass through."""
    import qreduce.cli as cli
    import qreduce.config as config
    import qreduce.dynamics as dynamics
    import qreduce.ensemble as ensemble
    import qreduce.hilbert as hilbert

    def drawn(args, kwargs, result):
        return int(result.size)

    def batch(args, kwargs, result):
        p0 = np.abs(kwargs["psi0_eig"]) ** 2
        return {"lo": kwargs["lo"], "hi": kwargs["hi"], "n_steps": kwargs["n_steps"],
                "dt": kwargs["dt"], "live": int(np.count_nonzero(p0)),
                "hit_step": result.hit_step.tolist()}

    def simulate(args, kwargs, result):
        _, outcome = result
        cfg = args[2]
        steps = round(outcome.hitting_time / cfg.dt) if outcome.collapsed else cfg.n_steps
        return {"steps": steps, "hitting_time": outcome.hitting_time}

    tracer.wrap(dynamics, "step_normals", "dynamics.step_normals", drawn)
    tracer.wrap(ensemble, "run_reduction_batch", "dynamics.batch", batch)
    tracer.wrap(dynamics, "simulate_trajectory", "dynamics.simulate", simulate)
    tracer.wrap(dynamics, "Ray", "hilbert.ray")
    tracer.wrap(dynamics, "quadric_residual", "geometry.quadric_residual")
    for module in (hilbert, dynamics, ensemble):
        tracer.wrap(module, "eigensystem", "hilbert.eigensystem")
    for module in (ensemble, cli):
        tracer.wrap(module, "run_ensemble", "ensemble.run_ensemble")
        for verdict in ("martingale_test", "variance_decay_test", "born_frequency_test"):
            tracer.wrap(module, verdict, "ensemble.verdict")
    for module in (config, cli):
        tracer.wrap(module, "load_run_config", "config.load")
    tracer.wrap(cli, "write_trajectory", "cli.write")
    tracer.wrap(cli, "main", "cli.main")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def batch_counts(value: dict) -> dict:
    """Noise and step counts of one batch, from its ``hit_step``.

    Row j of the block draws one normal at every step before its hit step
    (every step, if it never hits). At step k the block draws the normals
    0..m of the stream, where m is the largest global index still active.
    """
    hit = np.asarray(value["hit_step"], dtype=np.int64)
    n_steps = value["n_steps"]
    draws = np.where(hit >= 0, hit, n_steps)
    # steps at which row j is the largest active index: draws_j minus the
    # draws of every higher row
    later = np.maximum.accumulate(draws[::-1])[::-1]
    higher = np.append(later[1:], 0)
    top_steps = np.maximum(draws - higher, 0)
    index = np.arange(value["lo"], value["hi"], dtype=np.int64)
    return {
        "active_steps": int(draws.sum()),
        "normals_drawn": int(((index + 1) * top_steps).sum()),
        "draw_steps": int(draws.max()) if draws.size else 0,
    }


def layer_metrics(spans: list[list], import_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, and any inconsistency found."""
    problems: list[str] = []
    by_name: dict[str, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def busy(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    normals = by_name.get("dynamics.step_normals", [])
    batches = by_name.get("dynamics.batch", [])
    sims = by_name.get("dynamics.simulate", [])
    ensembles = by_name.get("ensemble.run_ensemble", [])

    noise_in = {}
    for s in normals:
        noise_in[s[PARENT]] = noise_in.get(s[PARENT], 0.0) + s[END] - s[START]

    counts = [batch_counts(b[VALUE]) for b in batches]
    active_steps = sum(c["active_steps"] for c in counts)
    batch_drawn = sum(c["normals_drawn"] for c in counts)
    batch_calls = sum(c["draw_steps"] for c in counts)
    sim_steps = sum(s[VALUE]["steps"] for s in sims)
    drawn = sum(s[VALUE] for s in normals)
    if batch_calls + sim_steps != len(normals):
        problems.append(f"step_normals calls {len(normals)} != "
                        f"{batch_calls} batch + {sim_steps} simulate steps")
    sim_ids = {s[ID] for s in sims}
    sim_drawn = sum(s[VALUE] for s in normals if s[PARENT] in sim_ids)
    if batch_drawn + sim_drawn != drawn:
        problems.append(f"normals drawn {drawn} != {batch_drawn} from hit_step "
                        f"+ {sim_drawn} in simulate")

    n_steps = max((b[VALUE]["n_steps"] for b in batches), default=0)
    dt = batches[0][VALUE]["dt"] if batches else 0.0
    hits = np.concatenate([np.asarray(b[VALUE]["hit_step"]) for b in batches]) \
        if batches else np.empty(0)
    hit_t = hits[hits >= 0] * dt
    last_active = max((c["draw_steps"] for c in counts), default=0)
    batch_busy = busy("dynamics.batch")
    sim_busy = busy("dynamics.simulate")
    block_s = [b[END] - b[START] for b in batches]
    ens_s = sum(e[END] - e[START] for e in ensembles)
    aggregate = 0.0
    for e in ensembles:
        inside = [(b[START], b[END]) for b in batches
                  if e[START] <= b[START] and b[END] <= e[END]]
        aggregate += (e[END] - e[START]) - _union_length(inside)

    write_s = busy("cli.write")
    verdicts = by_name.get("ensemble.verdict", [])
    for main in by_name.get("cli.main", []):
        # cmd_ensemble builds, serializes and writes the report after its
        # verdicts; there is no public function to wrap around that.
        ends = [v[END] for v in verdicts if main[START] <= v[START] <= main[END]]
        if ends:
            write_s += main[END] - max(ends)

    def quantile(q):
        return float(np.quantile(hit_t, q)) if hit_t.size else 0.0

    metrics = {
        "dynamics.step_normals.calls": len(normals),
        "dynamics.step_normals.normals_drawn": drawn,
        "dynamics.step_normals.busy_s": busy("dynamics.step_normals"),
        "dynamics.step_normals.useful_ratio":
            (active_steps + sim_steps) / drawn if drawn else 0.0,
        "dynamics.batch.busy_s": batch_busy,
        "dynamics.batch.self_s": sum(b[END] - b[START] - noise_in.get(b[ID], 0.0)
                                     for b in batches),
        "dynamics.batch.active_steps": active_steps,
        "dynamics.batch.ns_per_active_step":
            1e9 * batch_busy / active_steps if active_steps else 0.0,
        "dynamics.batch.last_active_step": last_active,
        "dynamics.batch.idle_steps": n_steps - last_active,
        "dynamics.batch.live_components":
            max((b[VALUE]["live"] for b in batches), default=0),
        "dynamics.batch.hit_t_p50": quantile(0.5),
        "dynamics.batch.hit_t_p90": quantile(0.9),
        "dynamics.batch.hit_t_max": float(hit_t.max()) if hit_t.size else 0.0,
        "dynamics.simulate.steps": sim_steps,
        "dynamics.simulate.us_per_step": 1e6 * sim_busy / sim_steps if sim_steps else 0.0,
        "hilbert.ray.calls": calls("hilbert.ray"),
        "hilbert.ray.busy_s": busy("hilbert.ray"),
        "geometry.quadric_residual.calls": calls("geometry.quadric_residual"),
        "geometry.quadric_residual.busy_s": busy("geometry.quadric_residual"),
        "hilbert.eigensystem.calls": calls("hilbert.eigensystem"),
        "hilbert.eigensystem.busy_s": busy("hilbert.eigensystem"),
        "ensemble.block_s_max": max(block_s, default=0.0),
        "ensemble.block_s_min": min(block_s, default=0.0),
        "ensemble.block_imbalance": max(block_s) / min(block_s) if block_s else 0.0,
        "ensemble.fanout_overhead_s": ens_s - max(block_s, default=0.0) if ensembles else 0.0,
        "ensemble.aggregate_s": aggregate,
        "ensemble.verdicts_s": busy("ensemble.verdict"),
        "config.load_s": busy("config.load"),
        "cli.write_s": write_s,
        "cli.import_s": import_s,
    }
    return metrics, problems


def write_spans(path: Path, spans: list[list]) -> None:
    with Path(path).open("w", encoding="utf-8") as f:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "value"],
                   "spans": spans}, f, separators=(",", ":"))

"""Fast self-test of the benchmark itself, at a tiny size (about a minute).

    python3 bench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks that
   the last line printed has exactly the keys of the result format
   and the metric names and units of BENCHMARK.json.
2. Shows that each output check fails on a wrong output.
3. Shows that the benchmark exits non-zero without printing a result in a
   directory that holds only BENCHMARK.json and bench/, with no sources.

An output check that fails on a tiny run is a finding about qreduce, not
about the benchmark: it is printed, and does not fail the self-test.
Exits 0 when every self-check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_result_lines(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{what} exits 0")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what} prints a JSON result line")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} result has exactly the result-format keys")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
                   and isinstance(result["failed"], int), f"{what} counts trajectories")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            declared = {m["name"]: m["unit"] for m in spec[key]}
            expect(printed == declared, f"{what} prints every {key} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                   f"{what} metric values are numbers")
            if not result["correct"]:
                print(f"     program output check failed on {what}:")
                for line in proc.stdout.splitlines():
                    if line.startswith("CHECK FAILED"):
                        print(f"     {line}")


def check_checks_can_fail() -> None:
    good = dict(counts={0: 0, 1: 0, 2: 1000, 3: 1000}, uncollapsed=0, failed=0,
                verdicts={"a": True, "b": True, "c": True}, max_residual=1e-6)
    expect(wl.singlet_failures(**good) == [], "singlet check passes a right output")
    for change in ({"counts": {0: 0, 1: 0, 2: 1100, 3: 900}},
                   {"counts": {0: 3, 1: 0, 2: 1000, 3: 1000}},
                   {"counts": {}},
                   {"uncollapsed": 1}, {"failed": 1},
                   {"verdicts": {"a": True, "b": False, "c": True}},
                   {"verdicts": {"a": True}},
                   {"max_residual": 2e-3}):
        expect(wl.singlet_failures(**{**good, **change}) != [],
               f"singlet check fails on {change}")

    good = dict(exit_code=0, counts={0: 375, 1: 125, 2: 125, 3: 375}, nw_down=0, se_down=1,
                same_as_reference=True)
    expect(wl.rotated_failures(**good) == [], "rotated check passes a right output")
    for change in ({"exit_code": 4}, {"same_as_reference": False},
                   {"counts": {0: 250, 1: 250, 2: 125, 3: 375}},
                   {"counts": {0: 450, 1: 150, 2: 100, 3: 300}},
                   {"counts": {2: 500, 3: 500}}):
        expect(wl.rotated_failures(**{**good, **change}) != [],
               f"rotated check fails on {change}")

    good = dict(index=0, collapsed=True, n_records=101, hit_step=100, final_residual=1e-6)
    expect(wl.trace_failures(**good) == [], "trace check passes a right output")
    for change in ({"collapsed": False, "hit_step": None}, {"n_records": 100},
                   {"final_residual": 2e-3}):
        expect(wl.trace_failures(**{**good, **change}) != [],
               f"trace check fails on {change}")

    layer = {name: 1 for name, _, _ in run.PER_LAYER}
    expect(run.repetition_failures([{"r": "x"}, {"r": "x"}], [layer, dict(layer)]) == [],
           "repetition check passes equal repetitions")
    expect(run.repetition_failures([{"r": "x"}, {"r": "y"}], []) != [],
           "repetition check fails on different outputs")
    expect(run.repetition_failures([], [layer, {**layer, "dynamics.batch.active_steps": 2}])
           != [], "repetition check fails on different counts")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "singlet-split",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    expect(declared == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == [(n, u) for n, u, _ in run.PER_LAYER] + [run.OVERHEAD],
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    check_checks_can_fail()
    check_refuses_without_sources()
    check_result_lines(spec)
    print(f"{len(problems)} self-check(s) failed" if problems else "all self-checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

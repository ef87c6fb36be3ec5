"""Self-check of the benchmark harness on tiny instances (m <= 4).

    python3 bench/selfcheck.py

Runs every workload end to end, untraced and traced, and asserts that:

- each run is correct, and the metric names and units it prints are exactly
  the ones BENCHMARK.json declares for that mode;
- a traced run repeats its counts exactly;
- a deliberately corrupted expected output is counted as a failure in the
  result and in error_rate, not ignored;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  run exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import oracle
import run
import workloads



def tiny_run(workload: str, trace: int, seed: int = 1) -> tuple:
    """(exit code, printed lines, final JSON) of one tiny in-process run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace)], sizes=workloads.TINY)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_declared_metrics(spec: dict):
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from bench/workloads.py")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            code, _, result = tiny_run(workload, trace)
            where = f"{workload} trace {trace}"
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{where} is not correct: {result}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where} result keys {sorted(result)}")
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            check(printed == declared[trace],
                  f"{where} printed {printed}, BENCHMARK.json declares {declared[trace]}")
            print(f"ok  {where}: {result['attempted']} attempted, metrics as declared")
        _, _, again = tiny_run(workload, 1)
        check(counts(again) == counts(result),
              f"{workload} counts changed between runs: {counts(result)} vs {counts(again)}")
        print(f"ok  {workload} trace 1: counts repeat exactly")


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def check_corruption_counted():
    honest = oracle.expected

    def corrupted(job):
        want = honest(job)
        target = want[0] if isinstance(want, list) else want
        target["corrupted"] = True
        return want

    oracle.expected = corrupted
    try:
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                code, lines, result = tiny_run(workload, trace)
                where = f"{workload} trace {trace}"
                rate = next(ln for ln in lines if ln.split()[:1] == ["error_rate"])
                check(code != 0 and not result["correct"] and result["failed"] >= 1,
                      f"{where} ignored a corrupted expected output: {result}")
                check(float(rate.split()[1]) > 0, f"{where} printed {rate.strip()}")
                print(f"ok  {where}: corrupted oracle counted, {rate.strip()}")
    finally:
        oracle.expected = honest


def check_bare_directory_fails(spec: dict):
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable] + spec["command"][1:] +
                          ["--workload", "table-fp", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare directory gave exit {proc.returncode} and stdout {proc.stdout!r}")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_declared_metrics(spec)
    check_corruption_counted()
    check_bare_directory_fails(spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one gtrim benchmark workload and print its metrics.

    python3 bench/run.py --workload classify-fp --seed 1 --seconds 30 --trace 0

With --trace 0 the workload runs as a closed loop with one client: rounds of
its `gtrim` CLI jobs, one subprocess at a time, until the time is spent.
Every output is checked against bench/oracle.py and against the job's first
output.  Times are scaled to nominal seconds by a speed reference timed on
the same CPU around and during each job (speed.py).  With --trace 1 one
round is replayed in-process through gtrim's API, once untraced and once
with a span around each layer call, and the per-layer metrics are printed
instead.

Stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The full record, with the seed, the environment stamp and the
samples, goes to .bench_out/ in the checkout.  The run exits 2 without a
result when the checkout has no gtrim sources.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# A launch that only starts the interpreter, imports the CLI and builds its
# parser: the fixed cost every CLI job pays.
SETUP_CODE = "import gtrim.cli as cli; cli.build_parser()"
SETUP_LAUNCHES = 15
# A launch still running this long after its spawn is killed and counted as
# failed.  Jobs take under 20 s; the last launch of a 30 s run starts before
# about 40 s, so a hung job still lets the run exit within 180 s.
JOB_LIMIT_S = 120
SAMPLE_PERIOD_S = 0.1

E2E_UNITS = {"setup_s": "s", "job_p50_s": "s", "instances_per_s": "1/s",
             "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Launch:
    returncode: int
    stdout: bytes
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    refs: list


def launch(args: list) -> Launch:
    """Run `python3 args...` against src/, timed from spawn to exit.

    The child leads a process group of its own, so signals reach any worker
    it starts.  While it runs, the harness wakes every SAMPLE_PERIOD_S, stops
    the group and times a speed reference on the same CPU (speed.py), so the
    job cannot slow the reference; the time it takes is taken off the
    job's wall time.  CPU time and peak RSS come from wait4.  The group is
    killed JOB_LIMIT_S after the spawn; the child is reaped only after it has
    exited, so a kill can never reach a reused pid.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(os.devnull, "rb") as stdin, \
            tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, cwd=ROOT, env=env,
                                stdin=stdin, stdout=out, stderr=err, start_new_session=True)
        refs = []
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                exited = select.poll()
                exited.register(pidfd, select.POLLIN)
                while not exited.poll(SAMPLE_PERIOD_S * 1000):
                    # os.killpg, not Popen.send_signal: that polls, and could
                    # reap the child before wait4 reads its resource usage.
                    if time.perf_counter() > start + JOB_LIMIT_S:
                        os.killpg(proc.pid, signal.SIGKILL)
                        exited.poll()
                        break
                    os.killpg(proc.pid, signal.SIGSTOP)
                    try:
                        refs.append(speed.reference_s())
                    finally:
                        os.killpg(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
            end = time.perf_counter()
            stop_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop_group(proc.pid)
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Launch(proc.returncode, out.read(), err.read().decode(errors="replace"),
                      end - start - sum(refs), usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, refs)


def stop_group(pgid: int):
    """Kill whatever is left of a job's process group.

    Until its leader is reaped the group id cannot be reused, so this never
    reaches a stranger's processes.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def job_problem(job, result: Launch, first_stdout: dict) -> str | None:
    """Why a finished job counts as failed, or None."""
    if result.returncode != 0:
        return f"exit code {result.returncode}: {result.stderr.strip()[-300:]}"
    if "Traceback" in result.stderr:
        return "traceback on stderr"
    problem = oracle.check_output(job, result.stdout.decode(errors="replace"))
    if problem:
        return problem
    if first_stdout.setdefault(job.label, result.stdout) != result.stdout:
        return "stdout differs from an earlier run of the same job"
    return None


class ScaledLauncher:
    """Launches with speed references before, during and after each one."""

    def __init__(self):
        self.last = speed.bracket()
        self.refs = list(self.last)

    def __call__(self, args: list) -> tuple:
        """(Launch, factor to nominal seconds) of one launch."""
        result = launch(args)
        before, self.last = self.last, speed.bracket()
        self.refs += result.refs + self.last
        return result, speed.scale(before + result.refs + self.last)


def end_to_end(plan, seconds: float) -> dict:
    """Closed loop, one client: whole rounds from `plan` until `seconds` pass.

    A new round starts only while it is expected to end within half a round
    of the deadline, so every job runs equally often.  Times are scaled to
    nominal seconds (speed.py); the unscaled values go to `raw_metrics`.
    Each metric is taken per round (mean job time, mean job CPU time,
    instances over the jobs' wall time) and reported as the median over
    rounds, so jobs of unequal size weigh the same in every run.
    """
    start = time.perf_counter()
    deadline = start + seconds
    launch(["-c", SETUP_CODE])  # byte-compile, as an install would
    run_scaled = ScaledLauncher()
    setup, samples, errors, first_stdout = [], [], [], {}
    attempted = SETUP_LAUNCHES  # every launch counts, the setup ones too
    for _ in range(SETUP_LAUNCHES):
        result, scale = run_scaled(["-c", SETUP_CODE])
        setup.append({"wall_s": result.wall_s, "scale": scale})
        if result.returncode != 0:
            errors.append(f"setup launch: exit code {result.returncode}: "
                          f"{result.stderr.strip()[-300:]}")

    round_s = []

    def another_round() -> bool:
        return not round_s or time.perf_counter() + statistics.median(round_s) / 2 < deadline

    while not errors and another_round():
        round_start = time.perf_counter()
        round_no = len(round_s)
        for job in next(plan):
            attempted += 1
            result, scale = run_scaled(["-m", "gtrim.cli"] + job.argv())
            problem = job_problem(job, result, first_stdout)
            if problem:
                errors.append(f"{job.label}: {problem}")
                continue
            samples.append({"job": job.label, "round": round_no, "instances": job.instances,
                            "wall_s": result.wall_s, "cpu_s": result.cpu_s,
                            "rss_mb": result.rss_mb, "scale": scale})
        round_s.append(time.perf_counter() - round_start)

    def summary(scaled: bool) -> dict:
        if not samples:
            return {}

        def f(s):
            return s["scale"] if scaled else 1.0

        rounds = {}
        for s in samples:
            rounds.setdefault(s["round"], []).append(s)

        def per_round(stat):
            return statistics.median(stat(r) for r in rounds.values())

        values = {
            "setup_s": statistics.median(s["wall_s"] * f(s) for s in setup),
            "job_p50_s": per_round(lambda r: statistics.mean(s["wall_s"] * f(s) for s in r)),
            "instances_per_s": per_round(lambda r: sum(s["instances"] for s in r)
                                         / sum(s["wall_s"] * f(s) for s in r)),
            "cpu_s": per_round(lambda r: statistics.mean(s["cpu_s"] * f(s) for s in r)),
            "peak_rss_mb": max(s["rss_mb"] for s in samples),
        }
        return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    return {"attempted": attempted, "failed": len(errors), "errors": errors,
            "metrics": summary(scaled=True), "raw_metrics": summary(scaled=False),
            "samples": {"setup": setup, "jobs": samples, "rounds": len(round_s),
                        "reference_s": run_scaled.refs}}


def traced(jobs: list) -> tuple:
    """Per-layer record of one round replayed in-process, plus its spans."""
    sys.path.insert(0, str(SRC))
    import gtrim

    untraced, plain_s = tracing.replay(gtrim, jobs, traced=False)  # nominal seconds
    rp, traced_s = tracing.replay(gtrim, jobs, traced=True)
    metrics = tracing.layer_metrics(rp)
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    errors = untraced.errors + rp.errors
    return ({"attempted": 2 * len(jobs), "failed": len(errors),
             "errors": errors,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
             "samples": {"untraced_s": plain_s, "traced_s": traced_s}},
            rp.tracer.spans)


def environment_stamp() -> dict:
    """What the numbers depend on besides the code: recorded on every result."""
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            rev = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {"git_rev": rev, "git_dirty": dirty, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "load1": os.getloadavg()[0]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_to_one_cpu():
    """Keep the harness, its speed references and every job on one CPU.

    The host slows each virtual CPU independently, so a reference timed on
    one CPU says nothing about a job running on another.  Children inherit
    the affinity.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None, sizes: dict = workloads.FULL) -> int:
    args = parse_args(argv)
    if not (SRC / "gtrim" / "cli.py").is_file():
        print(f"error: no gtrim sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    pin_to_one_cpu()
    stamp = environment_stamp()
    plan = workloads.rounds(args.workload, args.seed, sizes)
    spans = None
    if args.trace:
        jobs = next(plan)
        record, spans = traced(jobs)
        labels = [j.label for j in jobs]
    else:
        record = end_to_end(plan, args.seconds)
        labels = list(dict.fromkeys(s["job"] for s in record["samples"]["jobs"]))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "jobs": labels, "stamp": stamp,
              "error_rate": record["failed"] / max(record["attempted"], 1), **record}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{name}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs: {'; '.join(record['jobs'])}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    raw = record.get("raw_metrics", {})
    for key, metric in record["metrics"].items():
        unscaled = raw.get(key, metric)["value"]
        note = f"  (unscaled {unscaled:.6g})" if unscaled != metric["value"] else ""
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key:24} {shown} {metric['unit']}{note}")
    print(f"  {'error_rate':24} {record['error_rate']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for problem in record["errors"][:5]:
        print(f"  FAILED {problem}")
    correct = record["failed"] == 0 and bool(record["metrics"])
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

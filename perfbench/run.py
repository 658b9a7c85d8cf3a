#!/usr/bin/env python3
"""kuni benchmark: real `kuni` CLI jobs in a closed loop with one client.

    python3 perfbench/run.py --workload {certify,sweep,build} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout that holds src/kuni.  Set-up writes the
workload's seeded inputs (three times; set-up time is their median).  Then:

--trace 0  runs jobs back to back until S seconds have passed (at least
           two).  Every command is a fresh `python -m kuni.cli` process,
           timed from spawn to reap; CPU time and peak RSS come from
           os.wait4.  Prints the end-to-end metrics.
--trace 1  runs one job that way and one in this process through
           kuni.cli.main with spans around every layer.  Prints the
           per-layer metrics.

Every command's output is checked; the last stdout line is the result
object, the line before it the run record.  Exit status: 0 when every check
passed, 1 when one failed, 2 when kuni is missing or set-up failed.
"""

from __future__ import annotations

import argparse
import compileall
import filecmp
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, argv_strings  # noqa: E402

SETUP_REPS = 3
RUN_BUDGET_S = 170.0  # the whole run, set-up included, ends before 180 s
MIN_JOBS = 2  # per untraced run, so that job_s is never a single sample
COMMANDS_PER_JOB_MAX = 5


class SetupFailed(Exception):
    pass


class Outcome:
    """One finished kuni process."""

    def __init__(self, code, stdout, stderr, wall, cpu, rss_mb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb


def run_kuni(argv, cwd: Path, timeout: float) -> Outcome:
    """Run `python -m kuni.cli argv` to completion; a timeout kills it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("KUNI_MAX_TERMS", None)
    with open(cwd / "stdout.txt", "w+") as out, open(cwd / "stderr.txt", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "kuni.cli", *argv_strings(argv)],
                                stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(max(timeout, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read(), err.read(), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def setup_once(workload, d: Path, seed: int, deadline: float):
    """Bytecode warm-up and seeded inputs in a fresh directory."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    t0 = time.perf_counter()
    compileall.compile_dir(str(SRC / "kuni"), quiet=1)

    def kuni(*argv):
        res = run_kuni(argv, d, deadline - time.perf_counter())
        if res.code != 0:
            raise SetupFailed(f"set-up command {argv_strings(argv)} exited {res.code}: "
                              f"{res.stderr.strip()[-500:]}")

    paths = workload.setup(d, seed, kuni)
    return time.perf_counter() - t0, paths


def same_inputs(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir() if p.suffix in (".txt", ".code", ".state")
                   and not p.name.startswith("std"))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def run_job(commands, cwd: Path, deadline: float):
    """One job as fresh processes; returns (wall, cpu, rss, per-command rows)."""
    rows = []
    for i, cmd in enumerate(commands, 1):
        res = run_kuni(cmd.argv, cwd, deadline - time.perf_counter())
        problems = cmd.check(res.code, res.stdout)
        if res.code < 0:
            problems = [f"killed by signal {-res.code} (timeout or crash)"] + problems
        rows.append({"index": i, "argv": argv_strings(cmd.argv), "exit": res.code,
                     "wall_s": res.wall, "cpu_s": res.cpu, "rss_mb": res.rss_mb,
                     "problems": problems})
        for path in cmd.outputs:
            Path(path).unlink(missing_ok=True)
    return (sum(r["wall_s"] for r in rows), sum(r["cpu_s"] for r in rows),
            max(r["rss_mb"] for r in rows), rows)


def tail_percentile(n: int):
    """Highest whole percentile with at least ten samples beyond it, if any."""
    if n < 11:
        return None
    return int(100 * (n - 10) / n)


def run_record(args, setup_times, jobs, extra=None) -> dict:
    walls = sorted(j[0] for j in jobs)
    tail = tail_percentile(len(walls))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "loadavg": list(os.getloadavg()), "clients": 1, "loop": "closed",
        "setup_s_samples": setup_times, "job_s_samples": [j[0] for j in jobs],
        "job_s_tail": None if tail is None else
        {"percentile": tail, "value": walls[min(len(walls) - 1, len(walls) * tail // 100)]},
        "commands": [row for j in jobs for row in j[3]],
    }
    record.update(extra or {})
    return record


def emit(record: dict, attempted: int, failed: int, metrics: dict) -> int:
    WORK.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (WORK / f"record-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": {k: v for k, v in record.items() if k != "commands"}}))
    for row in record["commands"]:
        for problem in row["problems"]:
            print(f"FAILED command {row['index']} {' '.join(row['argv'])}: {problem}",
                  file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def measure(args, commands, rundir: Path, setup_times, deadline) -> int:
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(run_job(commands, rundir, deadline))
        failed = sum(bool(r["problems"]) for j in jobs for r in j[3])
        now = time.perf_counter()
        if failed or deadline - now < 1.5 * jobs[-1][0]:
            break
        if len(jobs) >= MIN_JOBS and now - t0 >= args.seconds:
            break
    attempted = sum(len(j[3]) for j in jobs)
    metrics = {
        "job_s": (statistics.median(j[0] for j in jobs), "s"),
        "job_cpu_s": (statistics.median(j[1] for j in jobs), "s"),
        "peak_rss_mb": (statistics.median(j[2] for j in jobs), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return emit(run_record(args, setup_times, jobs), attempted, failed, metrics)


def measure_traced(args, commands, rundir: Path, setup_times, deadline) -> int:
    import tracing as trace

    untraced = run_job(commands, rundir, deadline)
    tracer = trace.Tracer()
    job_id = f"{args.workload}-{args.seed}"
    traced_wall, outcomes = trace.run_traced_job(tracer, commands, job_id)
    rows = untraced[3]
    attempted = len(rows) + len(outcomes)
    failed = sum(bool(r["problems"]) for r in rows) + sum(bool(p) for _, p in outcomes)
    metrics = trace.per_layer_metrics(tracer)
    for i in range(1, COMMANDS_PER_JOB_MAX + 1):
        # commands a job does not have read 0
        metrics[f"cli.cmd.{i}.s"] = (rows[i - 1]["wall_s"] if i <= len(rows) else 0.0, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced[0], "s")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
    trace.write_spans(tracer, spans_path)
    traced_rows = [{"index": i, "argv": argv_strings(c.argv), "traced": True, "problems": p}
                   for (i, p), c in zip(outcomes, commands)]
    record = run_record(args, setup_times, [untraced],
                        {"traced_job_s": traced_wall, "spans": len(tracer.spans),
                         "spans_file": str(spans_path.relative_to(ROOT)),
                         "trace_hook_s": tracer.self_s["trace"][0]})
    record["commands"] += traced_rows
    return emit(record, attempted, failed, metrics)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "kuni" / "cli.py").is_file():
        print(f"error: no kuni package at {SRC / 'kuni'}; run inside a kuni checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    rundir = WORK / f"run-{os.getpid()}"
    try:
        setup_times, inputs = [], []
        for rep in range(SETUP_REPS):
            seconds, paths = setup_once(workload, rundir / f"inputs{rep}", args.seed, deadline)
            setup_times.append(seconds)
            inputs.append(paths)
        if not same_inputs(rundir / "inputs0", rundir / f"inputs{SETUP_REPS - 1}"):
            raise SetupFailed("set-up made different inputs from the same seed")
        out = rundir / "out"
        out.mkdir()
        commands = workload.commands(inputs[-1], args.seed, out)
        run = measure_traced if args.trace else measure
        return run(args, commands, rundir, setup_times, deadline)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

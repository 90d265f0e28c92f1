#!/usr/bin/env python3
"""Benchmark of the latspin CLI: untraced end-to-end runs and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload field2d --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all [--seed S]

One run spawns the CLI command of its workload again and again, one fresh
process at a time (a closed loop with one client), for about `--seconds`
seconds, with OMP/OpenBLAS/MKL threads set to 1. `--trace 0` also times the
set-up of fresh processes and reports the end-to-end metrics; `--trace 1`
adds one run with a span around each public layer function and reports the
per-layer metrics. The last line of standard output is the result as JSON.
`--all` runs every workload in both modes and writes a report with a record
of the machine and the code to .perfbench_work/report.json. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata

from tracer import metric_names
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 9  # fresh processes timed for setup_s
MIN_REPS = 2  # untraced CLI runs per --trace 0 run, even past the deadline
CHILD_TIMEOUT_S = 150.0
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("site_steps_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


@dataclass
class Proc:
    start: float
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv, cwd, env) -> Proc:
    """Run one child to completion; peak RSS comes from the child's own rusage."""
    out_path, err_path = os.path.join(cwd, "stdout.txt"), os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return Proc(start, wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


class WorkloadRun:
    """One workload at one seed: its generated config, work directory and runs."""

    def __init__(self, workload, seed):
        self.w, self.seed = workload, seed
        self.dir = os.path.join(WORK, workload.name)
        self.out = os.path.join(self.dir, "out")
        self.env = child_env()
        self.config = workload.config_for(seed)
        self.runs = []  # (Proc, ok, detail, sha256)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = None
        if self.config is not None:
            self.config_path = os.path.join(self.dir, "config.json")
            with open(self.config_path, "w") as fh:
                json.dump(self.config, fh)

    def setup_once(self) -> float:
        """Seconds from spawn until `import latspin.cli` + `parse_config` finished."""
        argv = [sys.executable, CHILD, "setup", SRC, self.config_path or "-"]
        proc = spawn(argv, self.dir, self.env)
        if proc.exit_code != 0:
            raise BenchError(f"set-up probe exited {proc.exit_code}: {proc.stderr.strip()}")
        return float(proc.stdout) - proc.start

    def cli_once(self, stats_path=None) -> Proc:
        """One CLI run on a fresh output directory, checked and recorded."""
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        cfg = None
        if self.config is not None:
            cfg = os.path.join(self.out, "config.json")
            shutil.copyfile(self.config_path, cfg)
        args = self.w.argv(self.seed, cfg, self.out)
        if stats_path is None:
            argv = [sys.executable, "-m", "latspin.cli", *args]
        else:
            argv = [sys.executable, CHILD, "trace", SRC, stats_path, *args]
        proc = spawn(argv, self.dir, self.env)
        try:
            ok, detail, digest = self.w.check(proc.exit_code, proc.stdout, self.out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            ok, detail, digest = False, f"exit {proc.exit_code}, unreadable output: {exc}", None
        self.runs.append((proc, ok, detail, digest))
        return proc

    def walls(self):
        return [p.wall_s for p, _, _, _ in self.runs]


def measure(workload, seed, seconds, trace):
    """One benchmark run: (result, report lines, benchmark defects, output sha256).

    Failed output checks and outputs that differ between runs make the result
    incorrect; a call count off its exact value is a defect of the benchmark.
    """
    if not os.path.isfile(os.path.join(SRC, "latspin", "cli.py")):
        raise BenchError(f"no latspin sources under {SRC}")
    run = WorkloadRun(workload, seed)
    deadline = time.monotonic() + seconds
    run.setup_once()  # warm-up: byte-compiles the package and fills the file cache
    lines, problems, defects, metrics = [], [], [], {}
    if trace:
        # untraced runs for the overhead baseline, leaving room for the traced run
        while True:
            run.cli_once()
            if time.monotonic() + 2.2 * statistics.median(run.walls()) > deadline:
                break
        untraced = statistics.median(run.walls())
        stats_path = os.path.join(run.dir, "spans.json")
        traced = run.cli_once(stats_path)
        try:
            with open(stats_path) as fh:
                spans = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"traced run left no span stats ({exc}): "
                             f"{traced.stderr.strip()[-500:]}") from None
        for name, unit in metric_names():
            metrics[name] = {"value": spans[name], "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced.wall_s - untraced, "unit": "s"}
        for name, want in workload.expected_calls().items():
            if spans[name] != want:
                defects.append(f"call count {name} = {spans[name]}, expected {want}: "
                                "a binding was missed or the code path changed")
    else:
        # A set-up probe before each CLI run, so that both medians see the same
        # phases of a machine whose speed drifts; the remaining probes follow.
        setups = []
        while True:
            if len(setups) < SETUP_REPS:
                setups.append(run.setup_once())
            run.cli_once()
            if len(run.runs) >= MIN_REPS and \
                    time.monotonic() + statistics.median(run.walls()) > deadline:
                break
        setups += [run.setup_once() for _ in range(SETUP_REPS - len(setups))]
        wall, setup = statistics.median(run.walls()), statistics.median(setups)
        values = {
            "wall_s": wall,
            "setup_s": setup,
            "site_steps_per_s": workload.site_steps() / (wall - setup),
            "peak_rss_mb": statistics.median(p.rss_mb for p, _, _, _ in run.runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        lines.append(f"setup_s samples: {' '.join(f'{x:.4f}' for x in setups)}")

    failed = sum(1 for _, ok, _, _ in run.runs if not ok)
    digests = {d for _, _, _, d in run.runs if d is not None}
    if len(digests) > 1:
        problems.append(f"byte-compared output differs between runs: {sorted(digests)}")
    for k, (proc, ok, detail, digest) in enumerate(run.runs):
        lines.append(f"run {k}: wall {proc.wall_s:.4f} s, rss {proc.rss_mb:.1f} MiB, "
                     f"{'ok' if ok else 'FAILED'} ({detail})")
        if not ok and proc.stderr.strip():
            lines.append("  stderr: " + proc.stderr.strip().splitlines()[-1])
    digest = next(iter(digests), None)
    lines.append(f"output sha256: {digest}")
    known = _baseline_digest(workload.name, seed)
    if known is not None and digest is not None and known != digest:
        lines.append(f"note: output sha256 differs from perfbench/baseline.json ({known})")
    lines.append(f"failed_share: {failed}/{len(run.runs)}")
    lines += [f"PROBLEM: {p}" for p in problems + defects]
    result = {
        "correct": failed == 0 and not problems and not defects,
        "attempted": len(run.runs),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines, defects, digest


def _baseline_digest(name, seed):
    try:
        with open(BASELINE) as fh:
            recorded = json.load(fh)["workloads"][name]
    except (OSError, KeyError, ValueError):
        return None
    if recorded.get("seed") != seed:
        return None
    return recorded.get("output_sha256")


def run_record(seconds):
    """Machine, interpreter, library and code versions of a report."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "threads": {var: "1" for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "run_seconds": seconds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(seed, seconds):
    report = {"record": run_record(seconds), "workloads": {}}
    for name, workload in WORKLOADS.items():
        e2e, _, _, digest = measure(workload, seed, seconds, trace=False)
        layers, _, defects, _ = measure(workload, seed, seconds, trace=True)
        runs = e2e["attempted"] + layers["attempted"]
        failed = e2e["failed"] + layers["failed"]
        print(f"== {name} (seed {seed if seed is not None else 'default'}), "
              f"failed_share {failed}/{runs}")
        for metric, m in {**e2e["metrics"], **layers["metrics"]}.items():
            print(f"  {metric:46s} {m['value']:>16.6g} {m['unit']}")
        for d in defects:
            print(f"  DEFECT: {d}")
        report["workloads"][name] = {
            "seed": seed,
            "correct": e2e["correct"] and layers["correct"],
            "attempted": runs,
            "failed": failed,
            "failed_share": failed / runs,
            "output_sha256": digest,
            "end_to_end": e2e["metrics"],
            "per_layer": layers["metrics"],
        }
    out_path = os.path.join(WORK, "report.json")
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"report written to {out_path}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        default_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the acceptance/ROADMAP seeds)")
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload in both modes, with a report file")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        if args.all:
            os.makedirs(WORK, exist_ok=True)
            return run_all(args.seed, args.seconds)
        result, lines, defects, _ = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for d in defects:
        print(f"error: {d}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 1 if defects else 0


if __name__ == "__main__":
    sys.exit(main())

"""denjoy-lab benchmark entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  Workloads: denjoy-cli, smooth-control, estimators (see
``workloads.py`` and README.md).

Every measurement happens in a fresh worker process (``worker.py``),
started one at a time.  With ``--trace 0`` this script starts SETUP_RUNS - 1
set-up-only workers and then one worker that runs the closed loop, and
prints the end-to-end metrics: ``setup_s`` is the median set-up time of all
SETUP_RUNS workers, scaled by the machine's speed like every job time (see
``worker.plain_loop``).  With ``--trace 1`` one worker runs every job plain and
traced and this script prints the per-layer metrics.

The line before the last holds the full report: context, failure
breakdown, determinism digest and per-kind samples.  The last line is the
result object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``correct`` is false when any job failed outside the documented known
defects; known-defect failures still count in ``failed``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from worker import PACE_SECONDS, pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "denjoylab"
WORKLOADS = ("denjoy-cli", "smooth-control", "estimators")

SETUP_RUNS = 5
#: seconds a worker may take beyond --seconds before it is stopped
WORKER_GRACE = 100.0


class BenchError(RuntimeError):
    pass


def spawn(args, setup_only: bool) -> dict:
    """Run one worker to completion; its result plus its set-up seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # the median of three reference times right before the start and right
    # after the set-up gives the set-up's speed factor, as for the jobs
    before = sorted(pace() for _ in range(3))[1][0]
    started = monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=args.seconds + WORKER_GRACE)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker timed out after {err.timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic reads one system-wide clock, so the worker's stamp
    # at the end of its set-up compares with ours from before the start
    result["setup_wall_s"] = result["ready"] - started
    result["setup_s"] = (result["setup_wall_s"] * 2.0 * PACE_SECONDS
                         / (before + result["ready_pace"]))
    return result


def context(args, versions: dict) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {p.name: sum(1 for _ in p.open()) for p in sorted(PACKAGE.glob("*.py"))}
    return dict(versions, cpu=cpu, nproc=os.cpu_count(), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                src_lines=lines, src_lines_total=sum(lines.values()))


def end_to_end(main: dict, setups: list) -> dict:
    """The end-to-end metrics from every execution of every job, with wall
    and CPU times scaled by the execution's speed factors (see
    ``worker.plain_loop``)."""
    lat, cpu, passed = [], [], 0
    for walls, cpus, speeds, cpu_speeds, failed in zip(
            main["wall_s"], main["cpu_s"], main["speed"], main["cpu_speed"],
            main["job_failed"]):
        lat += [w * f for w, f in zip(walls, speeds)]
        cpu += [c * f for c, f in zip(cpus, cpu_speeds)]
        passed += 0 if failed else len(walls)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "jobs_per_s": (passed / sum(lat), "jobs/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (deciles[8], "s"),
        "cpu_s_per_job": (sum(cpu) / len(cpu), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["rss_kib"] / 1024.0, "MiB"),
    }


def per_kind(main: dict) -> dict:
    """Median unscaled and scaled wall time of each job kind."""
    by_kind = {}
    for kind, walls, speeds in zip(main["kinds"], main["wall_s"], main["speed"]):
        raw, scaled = by_kind.setdefault(kind, ([], []))
        raw += walls
        scaled += [w * f for w, f in zip(walls, speeds)]
    return {k: {"executions": len(raw), "median_wall_s": statistics.median(raw),
                "median_scaled_s": statistics.median(scaled)}
            for k, (raw, scaled) in sorted(by_kind.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="denjoy-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no denjoylab sources under {PACKAGE}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = spawn(args, setup_only=False)
            metrics = {k: tuple(v) for k, v in result.pop("layer").items()}
            samples = {"jobs": result["attempted"], "passes": result["passes"]}
        else:
            runs = [spawn(args, setup_only=True) for _ in range(SETUP_RUNS - 1)]
            result = spawn(args, setup_only=False)
            runs.append(result)
            setups = [r["setup_s"] for r in runs]
            metrics = end_to_end(result, setups)
            speeds = [f for fs in result["speed"] for f in fs]
            samples = {"jobs": result["attempted"], "passes": result["passes"],
                       "executions": len(speeds), "loop_wall_s": result["loop_wall_s"],
                       "speed_factor_median": statistics.median(speeds),
                       "cpu_speed_factor_median": statistics.median(
                           f for fs in result["cpu_speed"] for f in fs),
                       "setup_runs": SETUP_RUNS, "setup_s": setups,
                       "setup_wall_s": [r["setup_wall_s"] for r in runs],
                       "per_kind": per_kind(result)}
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    report = {
        "context": context(args, result["versions"]),
        "samples": samples,
        "failures": result["failures"],
        "known_defects": result["known_defects"],
        "unexpected_failures": result["unexpected"],
        "determinism": result["determinism"],
    }
    if args.trace:
        report["trace_file"] = result["trace_file"]
        report["orbit_points"] = result["orbit_points"]
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": result["attempted"] > 0 and not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["attempted"] - result["passed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

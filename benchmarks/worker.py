"""One workload process: set-up, then a closed loop of jobs.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds T --trace 0|1 [--setup-only]

``run.py`` starts this script once per measurement and reads the JSON
object on the last line of its standard output.  The loop is closed and
single-threaded: the next job starts only when the previous one is done.
It makes passes over a job list of a fixed length, so what a run judges
depends on the seed alone and only the number of passes on the time.
With ``--trace 1`` every job runs twice, plain and traced, in alternating
order, so the tracing overhead is measured on the same inputs.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import resource
import sys
from collections import Counter
from pathlib import Path
from time import monotonic, perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: rounds of distinct jobs in a run; fixed, so that a run's job list, and
#: with it ``attempted``, ``failed`` and the digest, depend on the seed alone
ROUNDS = {"denjoy-cli": 4, "smooth-control": 5, "estimators": 8}
#: passes over the job list a plain run makes at least, whatever the time
MIN_PASSES = 1
#: size of the pace() reference: orbit steps, grid points, vector passes
PACE_ORBIT = 8000
PACE_GRID = 4096
PACE_VECTOR = 18
#: wall seconds pace() takes on an undisturbed Intel Xeon vCPU (Python
#: 3.11, numpy 2.4); scaled times read in seconds of that machine
PACE_SECONDS = 0.0016
TAU = 2.0 * math.pi
GOLDEN_STEP = (math.sqrt(5.0) - 1.0) / 2.0
_pace_grid = None
#: per-job self-time sums must match traced job wall time this closely
SPAN_SUM_TOL = 0.05
#: raw spans written to the trace file, at most
SPAN_FILE_CAP = 200_000


def _canonical(kind: str, output) -> bytes:
    return json.dumps([kind, output], sort_keys=True).encode()


def judge(job, inputs, result, err, judged=True):
    """The job's output and the labels of the checks it failed (none are
    run unless ``judged``)."""
    if err is not None:
        name = type(err).__name__
        return {"error": name, "message": str(err)}, ["raised:" + name]
    output = job.observe(result)
    if not judged:
        return output, []
    try:
        labels = job.check(output, inputs)
    except Exception as exc:        # a malformed output fails its oracle
        labels = ["check-raised:" + type(exc).__name__]
    return output, labels


class Tally:
    """Pass/fail accounting, failure breakdown and determinism digests.

    Each round of jobs gets one digest over its outputs; ``determinism``
    reports the first round's digest and failure breakdown, which runs of
    any number of rounds share, and the digests of all rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.passed = 0
        self.failures = Counter()
        self.known = Counter()
        self.unexpected = Counter()
        self.round_digests = []
        self.first_round_failures = Counter()

    def add(self, job, output_digest: bytes, labels: list):
        if self.attempted % self.workload.round_size == 0:
            self.round_digests.append(hashlib.sha256())
        if self.attempted < self.workload.round_size:
            self.first_round_failures.update(labels)
        self.round_digests[-1].update(output_digest)
        self.attempted += 1
        if not labels:
            self.passed += 1
        for label in labels:
            self.failures[label] += 1
            defect = self.workload.known_defect(job, label)
            if defect:
                self.known[defect] += 1
            else:
                self.unexpected[label] += 1

    def as_dict(self) -> dict:
        digests = [h.hexdigest() for h in self.round_digests]
        return {
            "attempted": self.attempted, "passed": self.passed,
            "failures": dict(self.failures), "known_defects": dict(self.known),
            "unexpected": dict(self.unexpected),
            "determinism": {"round_jobs": self.workload.round_size,
                            "digest": digests[0] if digests else None,
                            "failures": dict(self.first_round_failures),
                            "round_digests": digests},
        }


def _execute(job, judged=True):
    """Prepare, run and observe one job; only ``run`` is timed.

    Returns (wall seconds, CPU seconds of the process, all threads
    included, output bytes, labels); the oracle runs only when ``judged``.
    """
    inputs = job.prepare()
    result = err = None
    cpu0 = process_time()
    t0 = perf_counter()
    try:
        result = job.run(inputs)
    except Exception as exc:        # counted as a failed job
        err = exc
    latency = perf_counter() - t0
    cpu = process_time() - cpu0
    output, labels = judge(job, inputs, result, err, judged)
    return latency, cpu, _canonical(job.kind, output), labels


def _another_pass(start: float, seconds: float, passes: int, least: int) -> bool:
    """Whether one more pass keeps the loop within ``seconds``."""
    if passes < least:
        return True
    return (perf_counter() - start) / passes * (passes + 1) <= seconds


def pace() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed reference computation that runs no
    denjoylab code: a scalar circle-map orbit in plain Python and vector
    arithmetic on a small numpy grid, the kinds of work the jobs do.

    The interpreter loop dominates on purpose: the slow spells of the
    shared machine slowed it about as much as they slowed the jobs, while
    a reference bound by memory traffic slowed only half as much."""
    global _pace_grid
    import numpy as np
    if _pace_grid is None:
        _pace_grid = np.linspace(0.0, 1.0, PACE_GRID)
    cpu0 = process_time()
    t0 = perf_counter()
    x = 0.1
    for _ in range(PACE_ORBIT):
        x += GOLDEN_STEP + 0.1 / TAU * math.sin(TAU * x)
    for _ in range(PACE_VECTOR):
        y = _pace_grid + 0.1 / TAU * np.sin(TAU * _pace_grid)
        float(np.abs(np.diff(y)).sum())
    return perf_counter() - t0, process_time() - cpu0


def plain_loop(wl, seconds: float) -> dict:
    """Closed loop of passes over the run's job list.

    The first pass runs every job once and judges it by its oracle; every
    later pass replays the same jobs and must reproduce their outputs.
    Passes go on while the next one still fits in ``seconds``, and there
    are at least MIN_PASSES.  Oracles, digests and clean-up run outside the
    timed part.

    The machine is shared, and how fast it runs drifts by tens of percent
    within seconds.  So ``pace()`` runs between every two jobs, and each
    execution gets two speed factors, PACE_SECONDS over the mean of the
    reference's wall times right before and right after it and the same
    for its CPU times; ``run.py`` scales the job's wall time by the first
    and its CPU time by the second.  The CPU factor stays near one while
    the process merely waits for a core, which slows only the wall time.
    """
    digests, labels = [], []
    wall = [[] for _ in wl.jobs]
    cpu = [[] for _ in wl.jobs]
    speed = [[] for _ in wl.jobs]
    cpu_speed = [[] for _ in wl.jobs]
    start = perf_counter()
    passes = 0
    before = pace()
    while _another_pass(start, seconds, passes, MIN_PASSES):
        for i, job in enumerate(wl.jobs):
            latency, cpu_s, output, got = _execute(job, judged=passes == 0)
            after = pace()
            speed[i].append(2.0 * PACE_SECONDS / (before[0] + after[0]))
            cpu_speed[i].append(2.0 * PACE_SECONDS / (before[1] + after[1]))
            before = after
            wall[i].append(latency)
            cpu[i].append(cpu_s)
            digest = hashlib.sha256(output).digest()
            if passes == 0:
                digests.append(digest)
                labels.append(got)
            elif digest != digests[i] and "repeat:output-changed" not in labels[i]:
                labels[i].append("repeat:output-changed")
        passes += 1
    loop_wall = perf_counter() - start
    tally = Tally(wl)
    for job, digest, got in zip(wl.jobs, digests, labels):
        tally.add(job, digest, got)
    out = tally.as_dict()
    out.update(
        passes=passes, loop_wall_s=loop_wall,
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        wall_s=wall, cpu_s=cpu, speed=speed, cpu_speed=cpu_speed, kinds=[job.kind for job in wl.jobs],
        job_failed=[bool(got) for got in labels])
    return out


def traced_loop(wl, seconds: float, trace_path: Path) -> dict:
    """Passes over the run's job list, each job run plain and traced in
    alternating order.  The first pass is judged; later passes, made while
    they fit in ``seconds``, must reproduce its outputs."""
    from tracing import Tracer, layer_metrics, summarize

    tracer = Tracer()
    digests, labels = [], []
    summaries, kept = [], []
    plain_wall = traced_wall = 0.0
    orbit_points = 0
    start = perf_counter()
    passes = 0
    n = 0                               # executions so far, the trace's job id
    while _another_pass(start, seconds, passes, 1):
        for i, job in enumerate(wl.jobs):
            if n % 2:
                traced = _traced(tracer, wl, job, n, judged=passes == 0)
                plain = _execute(job, judged=False)
            else:
                plain = _execute(job, judged=False)
                traced = _traced(tracer, wl, job, n, judged=passes == 0)
            wall, output, got, spans, counts = traced
            plain_wall += plain[0]
            traced_wall += wall
            digest = hashlib.sha256(output).digest()
            if passes == 0:
                digests.append(digest)
                labels.append(list(got))
            summary = summarize(spans, counts, wall)
            for bad, label in ((output != plain[2], "trace:output-changed"),
                               (digest != digests[i], "repeat:output-changed"),
                               (abs(summary["self_sum"] - wall) > SPAN_SUM_TOL * wall,
                                "trace:span-self-sum")):
                if bad and label not in labels[i]:
                    labels[i].append(label)
            orbit_points += job.info.get("orbit_points", 0)
            if len(kept) + len(spans) <= SPAN_FILE_CAP:
                kept.extend((n,) + span for span in spans)
            summaries.append(summary)
            n += 1
        passes += 1
    overhead = traced_wall / plain_wall - 1.0
    metrics = layer_metrics(summaries, orbit_points, overhead)
    _write_trace(trace_path, kept, summaries, wl)
    tally = Tally(wl)
    for job, digest, got in zip(wl.jobs, digests, labels):
        tally.add(job, digest, got)
    out = tally.as_dict()
    out.update(layer={k: list(v) for k, v in metrics.items()},
               trace_file=str(trace_path.relative_to(ROOT)),
               orbit_points=orbit_points, passes=passes)
    return out


def _traced(tracer, wl, job, job_id, judged=True):
    """Run one job traced: (wall, output bytes, labels, spans, counters).

    The wall time is measured around the tracer, so the self-time check
    also covers the tracer's own work outside the job's root span."""
    inputs = job.prepare()
    tracer.install()
    plain_swap, wl.swap = wl.swap, tracer.counting
    try:
        t0 = perf_counter()
        result, err, spans, counts = tracer.run_job(job_id, job.run, inputs)
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
        wl.swap = plain_swap
    output, labels = judge(job, inputs, result, err, judged)
    return wall, _canonical(job.kind, output), labels, spans, counts


def _write_trace(path: Path, spans, summaries, wl):
    """Spans as JSON lines: [job, id, parent, name, thread, start, end]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][5] if spans else 0.0
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"workload": wl.name, "seed": wl.seed,
                             "jobs": len(summaries), "spans_written": len(spans),
                             "columns": ["job", "id", "parent", "name", "thread",
                                         "start_s", "end_s"]}) + "\n")
        for job, sid, parent, name, thread, t0, t1 in spans:
            fh.write(json.dumps([job, sid, parent, name, thread,
                                 t0 - origin, t1 - origin]) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import denjoylab
    if Path(denjoylab.__file__).resolve().parent != (SRC / "denjoylab").resolve():
        print(f"denjoylab imported from {denjoylab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, ROUNDS[args.workload],
                                  HERE / f".work-{os.getpid()}")
    ready = monotonic()
    ready_pace = sorted(pace() for _ in range(3))[1][0]
    try:
        if args.setup_only:
            out = {}
        elif args.trace:
            out = traced_loop(wl, args.seconds,
                              HERE / "out" / f"trace-{args.workload}.jsonl.gz")
        else:
            out = plain_loop(wl, args.seconds)
    finally:
        wl.close()
    out.update(ready=ready, ready_pace=ready_pace, versions={
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

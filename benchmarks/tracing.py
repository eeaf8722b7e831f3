"""Spans and counters recorded from outside the library, for the traced run.

The tracer rebinds the public functions of each ``denjoylab`` module in
every module that imported them (``dynamics.orbit_lift``,
``combinatorics.inverse_eval``, ``cli.make_denjoy`` ...), so each call
records a span: its name, start, end, parent span and thread.  Maps handed
to the library are replaced (``dataclasses.replace``) by copies whose lift
counts its calls, scalar and vectorized, and the time spent in it.

A span's self time is the part of its duration that no child span covers.
Where the sweep's thread pool runs spans side by side, each instant is
shared equally among the innermost spans active at that instant, so the
self times of one job always add up to the job's wall time.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from denjoylab.catalog import DenjoyMap
from denjoylab.errors import UnresolvedExtremaError
from denjoylab.maps import CircleDiffeo

#: (module, public name) pairs traced as spans, grouped by layer
TRACED = {
    "maps": ("orbit_lift", "inverse_eval", "validate_lift"),
    "catalog": ("make_denjoy",),
    "rotation": ("birkhoff_estimate",),
    "dynamics": ("build_semiconjugacy", "conjugacy_verdict", "omega_gap_profile",
                 "wandering_verdict", "interval_orbit"),
    "combinatorics": ("predecessor_successor_table", "pullback_arcs",
                      "intersection_multiplicity"),
    "variation": ("classify_regularity", "total_variation_estimate",
                  "zygmund_variation_estimate", "zygmund_norm_estimate",
                  "quadratic_variation"),
    "crossratio": ("FourTuple", "cross_ratios", "crd_variation_estimate",
                   "decompose_ab", "iterate_distortion_bound"),
    "cli": ("main", "run_experiment"),
}

ROOT = "bench.job"
_UNSET = object()

#: per-layer metric -> (kind, span name or counter); kinds:
#: "self" mean self seconds per job, "total" mean span seconds per job,
#: "calls" mean spans per job, "count" mean counter value per job,
#: "count_s" mean counted seconds per job
LAYER_METRICS = {
    "maps.lift_scalar_calls": ("count", "lift_scalar"),
    "maps.lift_vector_calls": ("count", "lift_vector"),
    "maps.lift_vector_points": ("count", "lift_points"),
    "maps.lift_s": ("count_s", "lift_s"),
    "maps.orbit_lift_calls": ("calls", "maps.orbit_lift"),
    "maps.orbit_steps": ("count", "orbit_steps"),
    "maps.orbit_lift_self_s": ("self", "maps.orbit_lift"),
    "maps.inverse_calls": ("calls", "maps.inverse_eval"),
    "maps.inverse_self_s": ("self", "maps.inverse_eval"),
    "maps.validate_self_s": ("self", "maps.validate_lift"),
    "catalog.make_denjoy_calls": ("calls", "catalog.make_denjoy"),
    "catalog.make_denjoy_s": ("total", "catalog.make_denjoy"),
    "rotation.birkhoff_calls": ("calls", "rotation.birkhoff_estimate"),
    "rotation.birkhoff_self_s": ("self", "rotation.birkhoff_estimate"),
    "dynamics.semiconj_calls": ("calls", "dynamics.build_semiconjugacy"),
    "dynamics.semiconj_self_s": ("self", "dynamics.build_semiconjugacy"),
    "dynamics.verdict_self_s": ("self", "dynamics.conjugacy_verdict"),
    "dynamics.gap_profile_self_s": ("self", "dynamics.omega_gap_profile"),
    "dynamics.wandering_scan_self_s": ("self", "dynamics.wandering_verdict"),
    "dynamics.interval_orbit_self_s": ("self", "dynamics.interval_orbit"),
    "combinatorics.table_self_s": ("self", "combinatorics.predecessor_successor_table"),
    "combinatorics.pullback_self_s": ("self", "combinatorics.pullback_arcs"),
    "combinatorics.multiplicity_self_s": ("self", "combinatorics.intersection_multiplicity"),
    "variation.classify_self_s": ("self", "variation.classify_regularity"),
    "variation.tv_self_s": ("self", "variation.total_variation_estimate"),
    "variation.zv_self_s": ("self", "variation.zygmund_variation_estimate"),
    "variation.zyg_norm_self_s": ("self", "variation.zygmund_norm_estimate"),
    "variation.qv_self_s": ("self", "variation.quadratic_variation"),
    "variation.qv_calls": ("count", "qv_requests"),
    "crossratio.fourtuple_calls": ("calls", "crossratio.FourTuple"),
    "crossratio.fourtuple_self_s": ("self", "crossratio.FourTuple"),
    "crossratio.cross_ratios_self_s": ("self", "crossratio.cross_ratios"),
    "crossratio.crd_self_s": ("self", "crossratio.crd_variation_estimate"),
    "crossratio.decompose_self_s": ("self", "crossratio.decompose_ab"),
    "crossratio.iterate_bound_self_s": ("self", "crossratio.iterate_distortion_bound"),
    "cli.run_experiment_calls": ("calls", "cli.run_experiment"),
    "cli.run_experiment_self_s": ("self", "cli.run_experiment"),
    "cli.main_self_s": ("self", "cli.main"),
}

UNITS = {"self": "s/job", "total": "s/job", "calls": "calls/job", "count": "1/job",
         "count_s": "s/job"}


class Tracer:
    """Span recorder and call counter for one traced run.

    ``install`` and ``uninstall`` swap the wrappers in and out, so the
    untraced executions of the same process run the plain library.  One job
    at a time is traced, by ``run_job``; spans opened in other threads
    meanwhile take the job thread's innermost span as parent.
    """

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: list = []
        self._job_counts: list = []
        self._job_stack: list = []
        self._job = None
        self._counted: dict = {}
        self._bindings = self._build_bindings()

    # -- installation ---------------------------------------------------

    def _build_bindings(self):
        """(module, attribute, original, wrapper) for every consumer."""
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules["denjoylab." + layer]
            for attr in names:
                original = getattr(module, attr)
                wrappers[id(original)] = (attr, original, self._wrap(
                    f"{layer}.{attr}", original))
        bindings = []
        for modname, module in list(sys.modules.items()):
            if modname != "denjoylab" and not modname.startswith("denjoylab."):
                continue
            for attr, original, wrapper in wrappers.values():
                if getattr(module, attr, None) is original:
                    bindings.append((module, attr, original, wrapper))
        return bindings

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # -- per-thread state -------------------------------------------------

    def _state(self):
        """This thread's span stack and counters for the current job."""
        tls = self._tls
        if getattr(tls, "job", _UNSET) != self._job:
            tls.job = self._job
            tls.stack = []
            tls.counts = defaultdict(float)
            tls.inverse_depth = 0
            tls.qv_failed = None
            with self._lock:
                self._job_counts.append(tls.counts)
        return tls

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn):
        if name == "maps.orbit_lift":
            return self._span(name, fn, self._count_orbit)
        if name == "maps.inverse_eval":
            return self._span(name, fn, self._count_inverse)
        if name == "variation.quadratic_variation":
            return self._span(name, fn, self._count_qv)
        if name == "catalog.make_denjoy":
            return self._span(name, fn, lambda call, *a, **k: self.counting(
                call(*a, **k), cache=False))
        return self._span(name, fn)

    def _span(self, name, fn, around=None):
        ids = self._ids

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            tls = self._state()
            stack = tls.stack
            if stack:
                parent = stack[-1]
            else:
                parent = self._job_stack[-1] if self._job_stack else 0
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(fn, *args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._spans.append((sid, parent, name, threading.get_ident(), t0, t1))
        return traced

    def _count_orbit(self, fn, diffeo, x0, n):
        self._state().counts["orbit_steps"] += n
        return fn(diffeo, x0, n)

    def _count_inverse(self, fn, *args, **kwargs):
        tls = self._state()
        tls.inverse_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tls.inverse_depth -= 1

    def _count_qv(self, fn, f, resolution):
        """A QV request is a call that does not retry the failed call before
        it on the same function; it resolves first try when it returns."""
        tls = self._state()
        retry = tls.qv_failed is f
        tls.qv_failed = None
        if not retry:
            tls.counts["qv_requests"] += 1
        try:
            out = fn(f, resolution)
        except UnresolvedExtremaError:
            tls.qv_failed = f
            raise
        if not retry:
            tls.counts["qv_first_try"] += 1
        return out

    # -- counting maps ----------------------------------------------------

    def counting(self, target, cache=True):
        """A copy of the map whose lift counts its calls.

        Maps a workload owns are cached, so each gets one copy; maps the
        library builds inside a job are not."""
        hit = self._counted.get(id(target))
        if hit is not None:
            return hit[1]
        if isinstance(target, DenjoyMap):
            copy = dataclasses.replace(target, base=self.counting(target.base, cache))
        elif isinstance(target, CircleDiffeo):
            copy = dataclasses.replace(target, lift_eval=self._counted_lift(target.lift_eval))
        else:
            return target
        if cache:
            self._counted[id(target)] = (target, copy)
        return copy

    def _counted_lift(self, fn):
        def lift(x):
            tls = self._state()
            counts = tls.counts
            t0 = perf_counter()
            out = fn(x)
            counts["lift_s"] += perf_counter() - t0
            if isinstance(x, np.ndarray) and x.ndim > 0:
                counts["lift_vector"] += 1
                counts["lift_points"] += x.size
            else:
                counts["lift_scalar"] += 1
                if tls.inverse_depth:
                    counts["lift_in_inverse"] += 1
            return out
        return lift

    # -- jobs ---------------------------------------------------------------

    def run_job(self, job_id, call, *args):
        """Run ``call(*args)`` as one traced job under a root span.

        Returns (result, exception or None, spans, counters)."""
        self._job = job_id
        self._spans = spans = []
        self._job_counts.clear()
        tls = self._state()
        self._job_stack = tls.stack
        result = err = None
        sid = next(self._ids)
        tls.stack.append(sid)
        t0 = perf_counter()
        try:
            result = call(*args)
        except Exception as exc:      # the loop records the failure
            err = exc
        t1 = perf_counter()
        tls.stack.pop()
        spans.append((sid, 0, ROOT, threading.get_ident(), t0, t1))
        self._job = None
        counts = Counter()
        for c in self._job_counts:
            counts.update(c)
        return result, err, spans, counts


def self_times(spans) -> dict:
    """Self time of every span id.

    Sweeps the span boundaries in time order; each interval goes to the
    innermost active spans (those with no active child), shared equally
    when spans of several threads are active side by side.
    """
    events = []
    parent_of = {}
    for sid, parent, _, _, t0, t1 in spans:
        parent_of[sid] = parent
        events.append((t0, 1, sid))
        events.append((t1, 0, -sid))
    # at equal times: ends before starts, inner ends (larger id) first,
    # outer starts (smaller id) first
    events.sort()
    active = set()
    active_children = Counter()
    leaves = set()
    selfs = dict.fromkeys(parent_of, 0.0)
    last = None
    for t, is_start, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for s in leaves:
                selfs[s] += share
        last = t
        sid = key if is_start else -key
        parent = parent_of[sid]
        if is_start:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                active_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                active_children[parent] -= 1
                if active_children[parent] == 0:
                    leaves.add(parent)
    return selfs


def summarize(spans, counts, wall) -> dict:
    """Per-name call counts, durations and self times of one traced job."""
    selfs = self_times(spans)
    names = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, name, _, t0, t1 in spans:
        entry = names[name]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += selfs[sid]
    return {"wall": wall, "spans": dict(names), "counts": dict(counts),
            "self_sum": sum(selfs.values())}


def layer_metrics(summaries, orbit_points: int, overhead: float) -> dict:
    """Per-layer metric values (per-job means) over the traced jobs."""
    jobs = max(1, len(summaries))
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counts = Counter()
    for s in summaries:
        for name, (calls, total, self_s) in s["spans"].items():
            entry = spans[name]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        counts.update(s["counts"])
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind in ("count", "count_s"):
            value = counts.get(key, 0.0)
        else:
            value = spans[key][{"calls": 0, "total": 1, "self": 2}[kind]]
        out[metric] = (value / jobs, UNITS[kind])
    orbit_steps = counts.get("orbit_steps", 0.0)
    inverses = spans["maps.inverse_eval"][0]
    requests = counts.get("qv_requests", 0.0)
    wall = sum(s["wall"] for s in summaries)
    out["maps.orbit_steps_per_point"] = (
        orbit_steps / orbit_points if orbit_points else 0.0, "ratio")
    out["maps.lift_calls_per_inverse"] = (
        counts.get("lift_in_inverse", 0.0) / inverses if inverses else 0.0, "ratio")
    out["variation.qv_first_try_frac"] = (
        counts.get("qv_first_try", 0.0) / requests if requests else 0.0, "ratio")
    out["bench.glue_frac"] = (spans[ROOT][2] / wall if wall else 0.0, "ratio")
    out["bench.span_sum_dev_max"] = (max(
        (abs(s["self_sum"] - s["wall"]) / s["wall"] for s in summaries if s["wall"] > 0),
        default=0.0), "ratio")
    out["bench.trace_overhead_frac"] = (overhead, "ratio")
    return out

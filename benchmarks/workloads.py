"""The three benchmark workloads: seeded inputs, jobs and their oracles.

A workload is built once per process (that is the set-up the benchmark
times) and hands the closed loop its job list, a fixed number of rounds.
Inputs come only from the seed; the library receives nothing but the
generated inputs.

Each job has four parts:

* ``prepare`` (untimed) puts the job's inputs in place, such as the INI file
  of a command-line job;
* ``run`` (timed) is the call into the library a user would make;
* ``observe`` (untimed) turns what ``run`` produced into a plain JSON value,
  the job's output, which feeds the determinism digest;
* ``check`` is the oracle: it returns the labels of every check the output
  failed, so an empty list means the job passed.

Jobs reach the library through module attributes (``dl_dynamics.conjugacy_verdict``
rather than an imported name), so that the traced run can rebind them, and
they pass every map through ``Workload.swap``, which the traced run points
at a call-counting copy of the map.

Two known defects of the library stay in the job mix on purpose, and count
as failed jobs:

* ``make_denjoy`` raises a plain ``RuntimeError`` from its dust-anchor
  search for some parameters, among them the golden mean at N = 30 and
  N = 50.  It is not a ``DenjoyLabError``, so
  ``denjoy-lab run`` ends with a traceback, and in a sweep one such variant
  aborts every variant.
* ``conjugacy_verdict`` answers ``wandering-interval-found`` for some
  Arnold maps, for instance alpha = 0.3, amplitude = 0.3.  By Denjoy's
  theorem an analytic circle diffeomorphism with irrational rotation number
  has no wandering interval, so the verdict is wrong.

``Workload.known_defect`` names the defect a failure belongs to; any other
failure makes the run incorrect.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import denjoylab.catalog as dl_catalog
import denjoylab.cli as dl_cli
import denjoylab.crossratio as dl_crossratio
import denjoylab.dynamics as dl_dynamics
import denjoylab.maps as dl_maps
import denjoylab.rotation as dl_rotation
import denjoylab.variation as dl_variation
from denjoylab.errors import PeriodicOrbitError

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: quadratic irrationals the Denjoy configs draw alpha from
ALPHA_POOL = (math.sqrt(2.0) - 1.0, GOLDEN, math.sqrt(3.0) - 1.0,
              math.sqrt(7.0) - 2.0, (math.sqrt(13.0) - 3.0) / 2.0,
              math.sqrt(5.0) - 2.0)
#: the pool without the golden mean: make_denjoy accepts these at every N
DENJOY_SAFE_ALPHAS = tuple(a for a in ALPHA_POOL if a != GOLDEN)
DENJOY_NS = (30, 50, 100)
#: pipelines a denjoy-cli round runs twice at every N
EXTRA_PIPELINES = ("conjugacy", "full-criterion")
#: values of a [sweep] over mass
MASS_SWEEP = (0.35, 0.45, 0.55, 0.65)
CLI_BUDGET = 1000

#: orbit budget of every smooth-control call
SMOOTH_BUDGET = 10_000
#: seed of the Arnold grid, which is the same for every workload seed
ARNOLD_GRID_SEED = 20_000
#: rotation numbers of the tuned Arnold maps sit on the golden mean
TUNED_ARNOLD = ((0.3, 0.6166966281891195), (0.5, 0.614533432652604))
#: an Arnold map that conjugacy_verdict misreads as having a wandering arc
ARNOLD_DEFECT_EXAMPLE = (0.3, 0.3)

ESTIMATOR_DEPTH = 12
#: depths of the ex2 and ex3 functions; fixed, because the cost and the
#: memory of a classify job grow with the depth
EX2_DEPTH = 12
EX3_DEPTH = 14
PL_KNOTS = 33
PL_PER_JOB = 16
PL_GRID = np.linspace(0.0, 1.0, PL_KNOTS)
TUPLES_PER_JOB = 15_000
CRD_DEPTH = 13
DECOMPOSE_PAIRS = 16
ITERATES = 30
VALIDATE_GRID = 2048


@dataclass
class Job:
    """One closed-loop job; see the module docstring for its four parts.

    ``prepare()`` returns the job's inputs, ``run(inputs)`` the raw result,
    ``observe(result)`` the output and ``check(output, inputs)`` the labels
    of the failed checks.  ``info`` describes the job for failure
    classification; ``info["orbit_points"]`` is the number of orbit points
    the job's question asks for (0 when it needs no orbit).
    """

    kind: str
    run: Callable[[object], object]
    observe: Callable[[object], object]
    check: Callable[[object, object], list]
    prepare: Callable[[], object] = lambda: None
    info: dict = field(default_factory=dict)


class Workload:
    """Seeded inputs of one workload and the jobs built from them.

    ``jobs`` is the run's job list, ``rounds`` rounds of ``round_size``
    jobs; a round is the unit in which the stratified job mix repeats.
    ``swap`` is applied to every map a job hands the library.
    """

    name = ""
    round_size = 1

    def __init__(self, seed: int, rounds: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.swap = _identity
        self.jobs: list[Job] = []
        for r in range(rounds):
            self.jobs.extend(self.make_round(np.random.default_rng([seed, r]), r))

    def make_round(self, rng, r: int) -> list[Job]:
        raise NotImplementedError

    def known_defect(self, job: Job, label: str) -> str | None:
        """The known defect a failure label belongs to, or None."""
        return None

    def close(self) -> None:
        pass


def _identity(obj):
    return obj


def _circle_dist(a: float, b: float) -> float:
    d = abs((a - b) % 1.0)
    return min(d, 1.0 - d)


# ---------------------------------------------------------------------------
# denjoy-cli: the denjoy-lab run command on generated Denjoy configs


def _denjoy_ini(pipeline: str, alpha: float, N: int, mass: float,
                emit: bool, sweep: tuple[str, list] | None) -> str:
    lines = ["[experiment]", f"pipeline = {pipeline}", f"n = {CLI_BUDGET}",
             f"budget = {CLI_BUDGET}"]
    if N >= 100:
        # the default depth 8 raises the documented UnresolvedExtremaError
        lines.append("depth = 10")
    if emit:
        lines.append("emit_series = true")
    lines += ["", "[map]", "kind = denjoy", f"alpha = {alpha!r}", f"N = {N}",
              f"mass = {mass!r}"]
    if sweep is not None:
        key, values = sweep
        lines += ["", "[sweep]", f"{key} = " + ", ".join(repr(v) for v in values)]
    return "\n".join(lines) + "\n"


class DenjoyCli(Workload):
    """Each job is one in-process ``denjoy-lab run <ini> --out <dir>``.

    A round holds 24 single configs, every pipeline at every N once (each
    pool alpha once per N) and conjugacy and full-criterion once more, plus
    three 4-value sweeps: over alpha (the golden mean and three others) at
    N = 30 on the rotation pipeline and at N = 100 on the crossratio
    pipeline, and over mass at N = 50 on the rotation pipeline.  At N = 30
    the golden mean hits the known defect, which aborts every variant.

    The extra single configs put the median job inside the cluster of
    conjugacy-stage jobs rather than in the gap below it, where it would
    jump with every small change of the mix.  The mix of pipelines, sizes
    and known failures is the same in every round; the seed picks the alpha
    pairings, the order and which jobs write CSV series.
    """

    name = "denjoy-cli"
    round_size = 27

    def __init__(self, seed, rounds, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        self.ini_path = workdir / "job.ini"
        self.out_dir = workdir / "out"
        super().__init__(seed, rounds, workdir)

    def make_round(self, rng, r):
        specs = []
        for N in DENJOY_NS:
            alphas = [ALPHA_POOL[i] for i in rng.permutation(len(ALPHA_POOL))]
            alphas += [DENJOY_SAFE_ALPHAS[i] for i in rng.integers(
                len(DENJOY_SAFE_ALPHAS), size=len(EXTRA_PIPELINES))]
            for pipe, alpha in zip(dl_cli.PIPELINES + EXTRA_PIPELINES, alphas):
                specs.append(dict(pipeline=pipe, alpha=alpha, N=N, mass=0.5,
                                  sweep=None))
        # The sweeps run cheap pipelines, so four variants cost about one
        # combinatorics job and the slowest tenth of the jobs is one cluster.
        for pipeline, N in (("rotation", 30), ("crossratio", 100)):
            alphas = [GOLDEN] + [DENJOY_SAFE_ALPHAS[i] for i in
                                 rng.permutation(len(DENJOY_SAFE_ALPHAS))[:3]]
            specs.append(dict(pipeline=pipeline, alpha=GOLDEN, N=N, mass=0.5,
                              sweep=("alpha", [alphas[i] for i in rng.permutation(4)])))
        alpha = DENJOY_SAFE_ALPHAS[int(rng.integers(len(DENJOY_SAFE_ALPHAS)))]
        specs.append(dict(pipeline="rotation", alpha=alpha, N=50, mass=0.5,
                          sweep=("mass", [MASS_SWEEP[i] for i in rng.permutation(4)])))
        jobs = []
        for i in rng.permutation(len(specs)):
            spec = specs[i]
            spec["emit"] = bool(rng.random() < 0.25)
            jobs.append(self._job(spec))
        return jobs

    def _job(self, spec) -> Job:
        text = _denjoy_ini(spec["pipeline"], spec["alpha"], spec["N"],
                           spec["mass"], spec["emit"], spec["sweep"])
        args = ["run", str(self.ini_path), "--out", str(self.out_dir)]

        def prepare():
            if self.out_dir.exists():
                shutil.rmtree(self.out_dir)
            self.ini_path.write_text(text)

        def run(_):
            # stdout lists the written paths, which hold the process id
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = dl_cli.main(args)
            return code, err.getvalue()

        variants = len(spec["sweep"][1]) if spec["sweep"] else 1
        orbits = spec["pipeline"] in ("rotation", "conjugacy", "full-criterion")
        spec["orbit_points"] = CLI_BUDGET * variants if orbits else 0
        kind = spec["pipeline"] + ("+sweep" if spec["sweep"] else "")
        return Job(kind=kind, run=run, observe=self._observe,
                   check=check_cli_output, prepare=prepare, info=spec)

    def _observe(self, result):
        code, stderr = result
        files = {}
        if self.out_dir.exists():
            for path in sorted(self.out_dir.iterdir()):
                text = path.read_text()
                if path.suffix == ".json":
                    report = json.loads(text)
                    report.pop("timings", None)
                    files[path.name] = report
                else:
                    files[path.name] = text
            shutil.rmtree(self.out_dir)
        return {"exit": code, "stderr": stderr, "files": files}

    def known_defect(self, job, label):
        spec = job.info
        sweep = spec["sweep"]
        alphas = sweep[1] if sweep and sweep[0] == "alpha" else [spec["alpha"]]
        if spec["N"] <= 50 and GOLDEN in alphas and label == "raised:RuntimeError":
            return "make_denjoy-dust-anchor-RuntimeError"
        return None

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cli_report_checks(report: dict) -> list[str]:
    stage = report["per_stage"]
    verdicts = {v["label"]: v["verdict"] for v in report["verdicts"]}
    pipeline = report["config_echo"]["experiment"]["pipeline"]
    alpha = float(report["config_echo"]["map"]["alpha"])
    n = int(report["config_echo"]["experiment"]["n"])
    bad = []
    if report.get("incomplete"):
        bad.append("oracle:incomplete-report")
    if pipeline in ("conjugacy", "full-criterion"):
        if verdicts.get("conjugacy") != "wandering-interval-found":
            bad.append("oracle:denjoy-conjugacy-verdict")
    if pipeline == "rotation":
        if not _circle_dist(stage["rotation"]["value"], alpha) <= 2.0 / n:
            bad.append("oracle:rotation-within-2/n")
    if pipeline == "combinatorics":
        if verdicts.get("pullback-multiplicity") != "within-bound":
            bad.append("oracle:pullback-multiplicity")
    if pipeline == "full-criterion":
        if verdicts.get("criterion-consistency") != "consistent":
            bad.append("oracle:criterion-consistency")
    if pipeline in ("variation", "full-criterion"):
        var = stage["variation"]
        if not all(isinstance(var[k], float) and math.isfinite(var[k])
                   for k in ("tv", "zv", "qv")):
            bad.append("oracle:variation-finite")
    if pipeline in ("crossratio", "full-criterion"):
        crd = stage["crossratio"]["crd_variation"]
        if not (math.isfinite(crd) and crd >= 0.0):
            bad.append("oracle:crd-finite")
    return bad


def check_cli_output(out, _=None) -> list[str]:
    """Oracle of one denjoy-cli job: exit 0 and every report's checks."""
    if out["exit"] != 0:
        return [f"oracle:exit-code-{out['exit']}"]
    reports = [v for k, v in out["files"].items() if k.endswith(".json")]
    if not reports:
        return ["oracle:no-report"]
    bad = []
    for report in reports:
        bad += [b for b in _cli_report_checks(report) if b not in bad]
    return bad


# ---------------------------------------------------------------------------
# smooth-control: the library path on maps that have no wandering interval


class SmoothControl(Workload):
    """Each job runs the README's library calls on one smooth map.

    A round holds 15 Arnold maps from a jittered grid over alpha in (0, 1)
    and amplitude in [0, 0.9], two rigid rotations, both tuned Arnold maps
    and the Arnold map of the known defect.  All maps are built in set-up.

    The Arnold grid comes from a generator of its own that the seed does
    not reach: whether ``conjugacy_verdict`` misreads an Arnold map (the
    known defect) depends on the map alone, so every run of a given number
    of rounds holds the same known-defect failures, whatever the seed.  The
    seed draws the rigid rotations, each job's base point and the order.
    """

    name = "smooth-control"
    round_size = 20

    def make_round(self, rng, r):
        grid = np.random.default_rng([ARNOLD_GRID_SEED, r])
        maps = []
        for c in range(15):
            # 5 x 3 strata of (alpha, amplitude), jittered inside each cell
            alpha = (c % 5 + grid.random()) / 5.0
            amplitude = 0.9 * (c // 5 + grid.random()) / 3.0
            maps.append(("arnold", alpha, amplitude))
        maps += [("rigid", rng.random(), 0.0) for _ in range(2)]
        maps += [("tuned", a, amp) for amp, a in TUNED_ARNOLD]
        maps.append(("arnold", ARNOLD_DEFECT_EXAMPLE[0], ARNOLD_DEFECT_EXAMPLE[1]))
        jobs = []
        for i in rng.permutation(len(maps)):
            kind, alpha, amplitude = maps[i]
            recipe = {"kind": "rigid" if kind == "rigid" else "arnold",
                      "alpha": alpha, "amplitude": amplitude}
            jobs.append(self._job(kind, dl_catalog.make_map(recipe), recipe,
                                  float(rng.random())))
        return jobs

    def _job(self, kind, diffeo, recipe, x0) -> Job:
        def run(_):
            m = self.swap(diffeo)
            verdict = dl_dynamics.conjugacy_verdict(m, SMOOTH_BUDGET)
            semi = None
            if verdict.kind != "rational-rotation":
                # near a resonance the orbit of x0 can close where the
                # verdict's own anchor did not: the documented rational case
                try:
                    semi = dl_dynamics.build_semiconjugacy(m, x0, SMOOTH_BUDGET)
                except PeriodicOrbitError as err:
                    semi = err
            est = dl_rotation.birkhoff_estimate(m, x0, SMOOTH_BUDGET)
            reg = dl_variation.classify_regularity(
                dl_variation.log_derivative_function(m), 8)
            return verdict, semi, est, reg

        info = dict(recipe, role=kind, x0=x0, orbit_points=SMOOTH_BUDGET)
        return Job(kind=kind, run=run, observe=_observe_smooth,
                   check=lambda out, _: check_smooth_output(out, info), info=info)

    def known_defect(self, job, label):
        if job.kind in ("arnold", "tuned") and label == "oracle:no-wandering-arc":
            return "conjugacy_verdict-false-wandering-on-Arnold"
        return None


def _observe_smooth(result):
    verdict, semi, est, reg = result
    out = {
        "verdict": verdict.kind, "detail": verdict.detail,
        "period": verdict.period,
        "arc": [verdict.arc.start, verdict.arc.end] if verdict.arc else None,
        "birkhoff": est.value,
        "regularity": {"tv": reg.tv, "zv": reg.zv, "qv": reg.qv,
                       "zyg_norm": reg.zyg_norm,
                       "diverging": dict(reg.diverging)},
    }
    if isinstance(semi, PeriodicOrbitError):
        out["semi_period"] = semi.period
    elif semi is not None:
        out["semi"] = {"alpha": semi.alpha, "defect": semi.defect,
                       "plateaus": [[a.start, a.end, f] for a, f in semi.plateaus]}
    return out


def check_smooth_output(out, info) -> list[str]:
    """Oracle of one smooth-control job (``info`` is the map recipe)."""
    bad = []
    # Denjoy's theorem: an analytic diffeomorphism has no wandering interval
    if out["verdict"] == "wandering-interval-found":
        bad.append("oracle:no-wandering-arc")
    if info["role"] == "rigid":
        if not _circle_dist(out["birkhoff"], info["alpha"]) <= 2.0 / SMOOTH_BUDGET:
            bad.append("oracle:rigid-birkhoff-within-2/n")
    if info["role"] == "tuned":
        semi = out.get("semi")
        if semi is None or semi["plateaus"]:
            bad.append("oracle:tuned-no-plateau")
        if semi is None or not abs(semi["alpha"] - GOLDEN) <= 1e-3:
            bad.append("oracle:tuned-golden-rotation")
    return bad


# ---------------------------------------------------------------------------
# estimators: variation and cross-ratio tools, no orbits


def pl_qv_oracle(vals) -> float:
    """Quadratic variation of a piecewise-linear function from its knots.

    On each linear piece the function is monotone, so some partition by
    knots attains the supremum; the best knot subset comes from a plain
    O(k^2) dynamic programme.
    """
    v = [float(x) for x in vals]
    best = [0.0] * len(v)
    for j in range(1, len(v)):
        best[j] = max(best[i] + (v[j] - v[i]) ** 2 for i in range(j))
    return best[-1]


class Estimators(Workload):
    """Variation and cross-ratio estimators on catalog functions and maps.

    A round holds one job of every kind, twice for the piecewise-linear
    batches, for validating a Denjoy lift and for classifying ex1; the two
    Denjoy maps (N = 50) and two seeded Arnold maps are built in set-up.

    The sizes place the jobs in cost tiers so that both percentiles fall
    inside a cluster of like jobs rather than at the edge between two kinds,
    where they would jump with every small change of relative speed.  Six
    jobs of a round are cheaper than classifying ex1 (the crd estimates,
    the Arnold validation, the two batches and the iterate bound) and six
    dearer (ex2 and ex3 at their depths, 16 Koebe pairs, 15 000 tuples and
    the two Denjoy validations), so the median is the latency of the
    seed-independent ex1 job.  With two of fourteen jobs, the Denjoy
    validations are the top seventh of the latencies, so the p90 falls
    inside their cluster.
    """

    name = "estimators"
    round_size = 14

    def __init__(self, seed, rounds, workdir):
        rng = np.random.default_rng([seed, 10 ** 6])
        # the criterion 06 and 09 map (sqrt 2 - 1) and one more; validating
        # a Denjoy lift is the costliest estimator job, so these stay fixed
        self.denjoy = [dl_catalog.make_denjoy(a, N=50, mass=0.5)
                       for a in DENJOY_SAFE_ALPHAS[:2]]
        self.arnold = [dl_catalog.make_map({"kind": "arnold", "alpha": rng.random(),
                                            "amplitude": 0.2 + 0.7 * rng.random()})
                       for _ in range(2)]
        self.ex1 = dl_catalog.example_function("ex1")
        self.ex2 = {EX2_DEPTH: dl_catalog.example_function("ex2", EX2_DEPTH)}
        self.ex3 = {EX3_DEPTH: dl_catalog.example_function("ex3", EX3_DEPTH)}
        super().__init__(seed, rounds, workdir)

    def make_round(self, rng, r):
        dj = self.denjoy[r % 2]
        ar = self.arnold[r % 2]
        dj_a, dj_b = self.denjoy
        seeds = [[self.seed, r, k] for k in range(3)]
        jobs = [
            self._classify("ex1", 0), self._classify("ex1", 0),
            self._classify("ex2", EX2_DEPTH),
            self._classify("ex3", EX3_DEPTH),
            self._pl_batch(seeds[0]), self._pl_batch(seeds[1]),
            self._tuples(seeds[2]),
            self._crd("crd-denjoy", dj.base), self._crd("crd-arnold", ar),
            self._decompose(rng, dj), self._iterate_bound(rng, dj),
            self._validate("validate-denjoy", dj_a.base),
            self._validate("validate-denjoy", dj_b.base),
            self._validate("validate-arnold", ar),
        ]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    def _classify(self, name, depth) -> Job:
        f = {"ex1": self.ex1, "ex2": self.ex2.get(depth),
             "ex3": self.ex3.get(depth)}[name]

        def run(_):
            rep = dl_variation.classify_regularity(f, ESTIMATOR_DEPTH)
            extra = None
            if name == "ex2":
                # resolution d + 2 resolves every kink of the depth-d tent sum
                extra = dl_variation.total_variation_estimate(f, depth + 2)
            return rep, extra

        def observe(result):
            rep, extra = result
            return {"tv": rep.tv, "zv": rep.zv, "qv": rep.qv,
                    "zyg_norm": rep.zyg_norm, "diverging": dict(rep.diverging),
                    "tv_d_plus_2": extra}

        info = {"function": name, "depth": depth}
        return Job(kind="classify-" + name, run=run, observe=observe,
                   check=lambda out, _: check_classify(out, info), info=info)

    def _pl_batch(self, seed) -> Job:
        # criterion 02 shape: random values on 33 dyadic knots
        def prepare():
            rng = np.random.default_rng(seed)
            values = rng.uniform(-1.0, 1.0, size=(PL_PER_JOB, PL_KNOTS))
            pairs = rng.integers(0, 257, size=(PL_PER_JOB, 100, 2))
            return values, pairs

        def run(inputs):
            out = []
            for v in inputs[0]:
                f = dl_catalog.IntervalFunction(
                    domain=(0.0, 1.0), eval=lambda x, v=v: np.interp(x, PL_GRID, v),
                    label="piecewise-linear")
                out.append((dl_variation.total_variation_estimate(f, 8),
                            dl_variation.quadratic_variation(f, 8),
                            dl_variation.zygmund_variation_estimate(f, 8)))
            return out

        return Job(kind="pl-batch", run=run, observe=_rows, check=check_pl_batch,
                   prepare=prepare)

    def _tuples(self, seed) -> Job:
        # criterion 01 shape: half equally spaced, half with random gaps
        def prepare():
            rng = np.random.default_rng(seed)
            half = TUPLES_PER_JOB // 2
            a = rng.uniform(0.0, 0.5, size=(TUPLES_PER_JOB, 1))
            step = rng.uniform(1e-3, 0.15, size=(half, 1))
            gaps = rng.uniform(1e-3, 0.15, size=(TUPLES_PER_JOB - half, 3))
            offsets = np.vstack([step * np.arange(4.0),
                                 np.hstack([np.zeros((len(gaps), 1)),
                                            np.cumsum(gaps, axis=1)])])
            return (a + offsets).tolist(), half

        def run(inputs):
            ft, cr = dl_crossratio.FourTuple, dl_crossratio.cross_ratios
            return [cr(ft(*p)) for p in inputs[0]]

        return Job(kind="fourtuple-batch", run=run, observe=_rows,
                   check=check_tuples, prepare=prepare)

    def _crd(self, kind, diffeo) -> Job:
        def run(_):
            return dl_crossratio.crd_variation_estimate(self.swap(diffeo), CRD_DEPTH)

        return Job(kind=kind, run=run, observe=float, check=check_crd)

    def _decompose(self, rng, dj) -> Job:
        home = dj.wandering_arc
        u = np.sort(rng.uniform(0.05, 0.95, size=(DECOMPOSE_PAIRS, 2)), axis=1)
        u[:, 1] = np.maximum(u[:, 1], u[:, 0] + 0.01)
        pairs = [(home.start + lo * home.length, home.start + hi * home.length)
                 for lo, hi in u]

        def run(_):
            base = self.swap(dj).base
            return [dl_crossratio.decompose_ab(base, x, y) for x, y in pairs]

        def observe(result):
            return [[b.log_koebe, b.term_a, b.term_b, b.zv_bound, b.qv_bound]
                    for b in result]

        return Job(kind="decompose-ab", run=run, observe=observe,
                   check=check_decompose)

    def _iterate_bound(self, rng, dj) -> Job:
        # criterion 09 shape: a four-tuple inside the wandering arc, 30 iterates
        home = dj.wandering_arc
        pts = [home.start + v * home.length
               for v in np.sort(rng.uniform(0.05, 0.95, size=4))]

        def run(_):
            base = self.swap(dj).base
            arcs = [home] + dl_dynamics.interval_orbit(base, home, ITERATES - 1)
            t = dl_crossratio.FourTuple(*pts)
            return dl_crossratio.iterate_distortion_bound(base, ITERATES, t, arcs)

        return Job(kind="iterate-bound", run=run, observe=list,
                   check=check_iterate_bound)

    def _validate(self, kind, diffeo) -> Job:
        def run(_):
            return dl_maps.validate_lift(self.swap(diffeo), grid_size=VALIDATE_GRID)

        def observe(rep):
            return {"passed": rep.passed, "periodicity": rep.periodicity_defect,
                    "monotonicity": rep.monotonicity_defect,
                    "derivative_min": rep.derivative_min,
                    "increment": rep.increment_defect}

        return Job(kind=kind, run=run, observe=observe, check=check_validate)


def _rows(result):
    return [list(r) for r in result]


def check_classify(out, info) -> list[str]:
    name, d = info["function"], info["depth"]
    if name == "ex1" and out["tv"] != 2.0:
        return ["oracle:ex1-tv-exactly-2"]
    if name == "ex2" and out["tv_d_plus_2"] != dl_catalog.takagi_total_variation(d):
        return ["oracle:ex2-tv-takagi"]
    if name == "ex3":
        closed = 2.0 * sum(1.0 / n ** 2 for n in range(1, d + 1))
        if not abs(out["qv"] - closed) <= 1e-12:
            return ["oracle:ex3-qv-closed-form"]
    return []


def check_pl_batch(out, inputs) -> list[str]:
    bad = set()
    grid = np.linspace(0.0, 1.0, 257)
    for (tv, qv, zv), vals, pairs in zip(out, *inputs):
        exact_tv = float(np.sum(np.abs(np.diff(vals))))
        if not abs(tv - exact_tv) <= 1e-12 * max(1.0, exact_tv):
            bad.add("oracle:pl-tv-exact")
        exact_qv = pl_qv_oracle(vals)
        if not abs(qv - exact_qv) <= 1e-12 * max(1.0, exact_qv):
            bad.add("oracle:pl-qv-exact")
        x = grid[np.minimum(pairs[:, 0], pairs[:, 1])]
        y = grid[np.maximum(pairs[:, 0], pairs[:, 1])]
        phi = lambda t: np.interp(t, PL_GRID, vals)  # noqa: E731
        second = np.abs(phi(x) + phi(y) - 2.0 * phi(0.5 * (x + y)))
        if np.any(second > zv + 1e-12):
            bad.add("oracle:pl-second-difference-within-zv")
    return sorted(bad)


def check_tuples(out, inputs) -> list[str]:
    standard = inputs[1]
    bad = set()
    for i, (first, second) in enumerate(out):
        if i < standard and not abs(first - 4.0 / 3.0) <= 1e-12:
            bad.add("oracle:standard-tuple-4/3")
        if not abs(first - (1.0 + 1.0 / second)) <= 1e-12 * first:
            bad.add("oracle:cross-ratio-identity")
    return sorted(bad)


def check_crd(out, _=None) -> list[str]:
    return [] if math.isfinite(out) and out >= 0.0 else ["oracle:crd-finite"]


def check_decompose(out, _=None) -> list[str]:
    for log_koebe, term_a, term_b, _, _ in out:
        if not abs(log_koebe - (term_a - 2.0 * term_b)) <= 1e-10:
            return ["oracle:koebe-reassembly"]
    return []


def check_iterate_bound(out, _=None) -> list[str]:
    measured, budget = out
    return [] if abs(measured) <= budget else ["oracle:distortion-within-budget"]


def check_validate(out, _=None) -> list[str]:
    return [] if out["passed"] else ["oracle:validate-lift-passed"]


WORKLOADS = {w.name: w for w in (DenjoyCli, SmoothControl, Estimators)}

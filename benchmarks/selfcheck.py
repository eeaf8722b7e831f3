"""Checks of the benchmark itself.

    python3 benchmarks/selfcheck.py

1. Runs one round of every workload, plain and traced, twice each at this
   tiny size, and requires identical determinism digests and failure
   breakdowns, no unexpected failure, and traced outputs equal to the
   plain ones.
2. Shows that every oracle can fail: for each, it takes a real output that
   passes, corrupts the one value that oracle checks, and requires the
   oracle to name the failure and the tally to count the job as failed.
3. Requires the two known defects to be classified as known and any other
   failure as unexpected.

Exits 0 when every check holds, 1 otherwise.  Takes about a minute.
"""
from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
import workloads as W  # noqa: E402

PROBLEMS = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        PROBLEMS.append(what)


def execute(job):
    inputs = job.prepare()
    result = err = None
    try:
        result = job.run(inputs)
    except Exception as exc:
        err = exc
    output, labels = worker.judge(job, inputs, result, err)
    return inputs, output, labels


def tiny_runs(workdir: Path):
    for cls in W.WORKLOADS.values():
        runs = []
        for traced in (False, False, True):
            wl = cls(7, 1, workdir / f"{cls.name}-{len(runs)}")
            try:
                if traced:
                    out = worker.traced_loop(wl, 0.0, workdir / "trace.jsonl.gz")
                else:
                    out = worker.plain_loop(wl, 0.0)
            finally:
                wl.close()
            runs.append(out)
        a, b, t = runs
        expect(a["attempted"] == t["attempted"] == cls.round_size,
               f"{cls.name}: a tiny run holds one round ({a['attempted']} jobs)")
        expect(a["determinism"] == b["determinism"],
               f"{cls.name}: two runs give the same digest and failure breakdown")
        expect(not a["unexpected"] and not t["unexpected"],
               f"{cls.name}: no unexpected failure ({a['unexpected']}, {t['unexpected']})")
        expect(t["determinism"] == a["determinism"],
               f"{cls.name}: traced outputs equal the plain ones")
        dev = t["layer"]["bench.span_sum_dev_max"][0]
        expect(dev <= worker.SPAN_SUM_TOL,
               f"{cls.name}: span self times sum to job wall time (max deviation {dev:.2e})")


def mutant(name, job, mutate, label, passes=True):
    """Corrupt a real output of ``job`` and require ``label`` from its oracle."""
    inputs, output, labels = execute(job)
    if passes:
        expect(not labels, f"{name}: the real output passes ({labels})")
    wrong = copy.deepcopy(output)
    mutate(wrong)
    got = job.check(wrong, inputs)
    tally = worker.Tally(SimpleNamespace(round_size=1, known_defect=lambda *_: None))
    tally.add(job, b"", got)
    expect(label in got and tally.attempted - tally.passed == 1,
           f"{name}: a wrong output fails with {label} ({got})")


def _report(out, pipeline=None):
    return next(v for k, v in sorted(out["files"].items())
                if k.endswith(".json")
                and (pipeline is None
                     or v["config_echo"]["experiment"]["pipeline"] == pipeline))


def _verdict(report, label, value):
    for v in report["verdicts"]:
        if v["label"] == label:
            v["verdict"] = value


def cli_mutants(workdir: Path):
    wl = W.DenjoyCli(7, 1, workdir / "cli")
    alpha = W.ALPHA_POOL[0]

    def job(pipeline, **extra):
        spec = dict(pipeline=pipeline, alpha=alpha, N=50, mass=0.5, sweep=None,
                    emit=False)
        spec.update(extra)
        return wl._job(spec)

    try:
        mutant("cli exit code", job("rotation"),
               lambda o: o.update(exit=1), "oracle:exit-code-1")
        mutant("cli report present", job("rotation"),
               lambda o: o.update(files={}), "oracle:no-report")
        mutant("cli report complete", job("rotation"),
               lambda o: _report(o).update(incomplete=True), "oracle:incomplete-report")
        mutant("cli rotation within 2/n", job("rotation"),
               lambda o: _report(o)["per_stage"]["rotation"].update(
                   value=alpha + 3.0 / W.CLI_BUDGET), "oracle:rotation-within-2/n")
        mutant("cli Denjoy conjugacy verdict", job("conjugacy"),
               lambda o: _verdict(_report(o), "conjugacy", "conjugate-evidence"),
               "oracle:denjoy-conjugacy-verdict")
        mutant("cli pullback multiplicity", job("combinatorics"),
               lambda o: _verdict(_report(o), "pullback-multiplicity", "exceeded"),
               "oracle:pullback-multiplicity")
        mutant("cli criterion consistency", job("full-criterion"),
               lambda o: _verdict(_report(o), "criterion-consistency", "inconsistent"),
               "oracle:criterion-consistency")
        mutant("cli variation finite", job("variation"),
               lambda o: _report(o)["per_stage"]["variation"].update(tv=math.inf),
               "oracle:variation-finite")
        mutant("cli crd finite", job("crossratio"),
               lambda o: _report(o)["per_stage"]["crossratio"].update(crd_variation=-1.0),
               "oracle:crd-finite")
        sweep = job("rotation", sweep=("alpha", list(W.DENJOY_SAFE_ALPHAS[:4])))
        mutant("cli sweep checks every variant", sweep,
               lambda o: _report(o)["per_stage"]["rotation"].update(value=0.999),
               "oracle:rotation-within-2/n")

        golden = job("rotation", alpha=W.GOLDEN, N=30)
        _, _, labels = execute(golden)
        expect(labels == ["raised:RuntimeError"]
               and wl.known_defect(golden, labels[0]) is not None,
               f"cli golden mean at N = 30 fails as the known defect ({labels})")
        plain = job("rotation")
        expect(wl.known_defect(plain, "raised:RuntimeError") is None,
               "cli the same error on a safe config is unexpected")
    finally:
        wl.close()


def smooth_mutants():
    wl = W.SmoothControl(7, 1, None)
    by_role = {}
    for job in wl.jobs:
        by_role.setdefault(job.info["role"], job)
    rigid, tuned = by_role["rigid"], by_role["tuned"]
    mutant("smooth no wandering arc", rigid,
           lambda o: o.update(verdict="wandering-interval-found"),
           "oracle:no-wandering-arc")
    mutant("smooth rigid Birkhoff within 2/n", rigid,
           lambda o: o.update(birkhoff=(o["birkhoff"] + 0.01) % 1.0),
           "oracle:rigid-birkhoff-within-2/n")
    mutant("smooth tuned without plateaus", tuned,
           lambda o: o["semi"].update(plateaus=[[0.1, 0.2, 0.01]]),
           "oracle:tuned-no-plateau")
    mutant("smooth tuned rotation on the golden mean", tuned,
           lambda o: o["semi"].update(alpha=o["semi"]["alpha"] + 0.01),
           "oracle:tuned-golden-rotation")
    defect = next(j for j in wl.jobs if (j.info["alpha"], j.info["amplitude"])
                  == W.ARNOLD_DEFECT_EXAMPLE)
    _, _, labels = execute(defect)
    expect(labels == ["oracle:no-wandering-arc"]
           and wl.known_defect(defect, labels[0]) is not None,
           f"smooth Arnold (0.3, 0.3) fails as the known defect ({labels})")
    expect(wl.known_defect(rigid, "oracle:no-wandering-arc") is None,
           "smooth a wandering verdict on a rigid rotation is unexpected")


def estimator_mutants():
    wl = W.Estimators(7, 1, None)
    by_kind = {}
    for job in wl.jobs:
        by_kind.setdefault(job.kind, job)

    def bump(key, delta):
        return lambda o: o.update({key: o[key] + delta})

    def first_row(update):
        return lambda o: o[0].__setitem__(slice(None), update(o[0]))

    mutant("estimators ex1 TV exactly 2", by_kind["classify-ex1"],
           bump("tv", 1e-9), "oracle:ex1-tv-exactly-2")
    mutant("estimators ex2 TV equals Takagi", by_kind["classify-ex2"],
           bump("tv_d_plus_2", 1.0), "oracle:ex2-tv-takagi")
    mutant("estimators ex3 QV closed form", by_kind["classify-ex3"],
           bump("qv", 1e-9), "oracle:ex3-qv-closed-form")
    pl = by_kind["pl-batch"]
    mutant("estimators piecewise-linear TV", pl,
           first_row(lambda r: [r[0] + 1e-6, r[1], r[2]]), "oracle:pl-tv-exact")
    mutant("estimators piecewise-linear QV", pl,
           first_row(lambda r: [r[0], r[1] + 1e-6, r[2]]), "oracle:pl-qv-exact")
    mutant("estimators second differences within ZV", pl,
           first_row(lambda r: [r[0], r[1], 0.0]),
           "oracle:pl-second-difference-within-zv")
    tuples = by_kind["fourtuple-batch"]
    mutant("estimators standard tuple 4/3", tuples,
           first_row(lambda r: [r[0] + 1e-9, 1.0 / (r[0] + 1e-9 - 1.0)]),
           "oracle:standard-tuple-4/3")
    mutant("estimators first = 1 + 1/second", tuples,
           lambda o: o[-1].__setitem__(1, o[-1][1] * 1.001),
           "oracle:cross-ratio-identity")
    crd = by_kind["crd-denjoy"]
    inputs, output, labels = execute(crd)
    expect(not labels and crd.check(-1.0, inputs) == ["oracle:crd-finite"]
           and crd.check(math.nan, inputs) == ["oracle:crd-finite"],
           "estimators crd finite and non-negative")
    mutant("estimators Koebe reassembly", by_kind["decompose-ab"],
           lambda o: o[0].__setitem__(2, o[0][2] + 1e-6), "oracle:koebe-reassembly")
    mutant("estimators distortion within budget", by_kind["iterate-bound"],
           lambda o: o.__setitem__(1, abs(o[0]) / 2.0),
           "oracle:distortion-within-budget")
    mutant("estimators validate_lift passed", by_kind["validate-denjoy"],
           lambda o: o.update(passed=False), "oracle:validate-lift-passed")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-selfcheck-") as tmp:
        tmp = Path(tmp)
        tiny_runs(tmp)
        cli_mutants(tmp)
        smooth_mutants()
        estimator_mutants()
    print(json.dumps({"problems": PROBLEMS}))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())

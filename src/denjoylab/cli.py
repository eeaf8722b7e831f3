"""Batch experiment runner.

``denjoy-lab run <config> --out <dir>`` executes one of the
analysis pipelines described by an INI config and writes a JSON report
(plus optional CSV series).  ``denjoy-lab catalog list`` prints the
built-in maps and example functions.

Config layout::

    [experiment]
    pipeline = rotation | variation | crossratio | conjugacy |
               combinatorics | full-criterion
    n = 1000              ; orbit budget where applicable, <= MAX_ORBIT
    budget = 1000         ; conjugacy iterate budget, falls back to n,
                          ; <= MAX_ORBIT
    depth = 8             ; estimator depth where applicable, <= MAX_DEPTH
    x0 = 0.3              ; optional start point mod 1 in place of the anchor
    function = ex2        ; variation only: ex1 | ex2 | ex3 in place of log Df
    function_depth = 12   ; depth of that example function,
                          ; <= MAX_FUNCTION_DEPTH
    count = 60            ; combinatorics orbit arcs, <= 1000
    emit_series = true    ; write series_<stage>.csv
    max_seconds = 120     ; optional wall budget > 0, report flagged
                          ; incomplete when exceeded

    [map]
    kind = rigid | arnold | denjoy
    alpha = 0.618
    amplitude = 0.0       ; arnold only
    N = 50                ; denjoy truncation, <= MAX_N
    mass = 0.5            ; denjoy inserted mass

    [sweep]               ; optional: fan out over one key
    alpha = 0.59, 0.61, 0.63
                          ; a bare key is a [map] key; section.key sets
                          ; another section, e.g. experiment.depth = 4, 8

Reports are deterministic for a fixed config except for the ``timings``
block.
"""
from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .catalog import (CATALOG_ENTRIES, example_function, make_denjoy,
                      make_map)
from .combinatorics import (PULLBACK_MULTIPLICITY_BOUND,
                            intersection_multiplicity, natural_neighborhood,
                            predecessor_successor_table, pullback_arcs)
from .crossratio import crd_variation_estimate
from .dynamics import (DENSE_GAP_FACTOR, PERIOD_WINDOW, _orbit_and_period,
                       _orbit_start, conjugacy_verdict, interval_orbit,
                       omega_gap_profile)
from .errors import DenjoyLabError, NonMonotoneMapError, PeriodicOrbitError
from .maps import Arc, orbit_lift
from .rotation import birkhoff_from_orbit
from .util import frac
from .variation import (classify_regularity, log_derivative_function,
                        probe_depths)

SCHEMA_VERSION = 3
PIPELINES = ("rotation", "variation", "crossratio", "conjugacy",
             "combinatorics", "full-criterion")

#: largest [experiment] depth: up to it no estimator array passes 2^25
#: floats (256 MiB).  The variation pipeline samples grids of up to
#: 2^(depth + 6) cells (its deepest QV retry), one float each; the
#: crossratio pipeline builds 9 * 2^depth four-tuples, 36 * 2^depth floats,
#: at its last level.
MAX_DEPTH = 19
#: largest [experiment] function_depth: a layer of an example function
#: deeper than the finest grid at MAX_DEPTH is zero on every grid point
MAX_FUNCTION_DEPTH = MAX_DEPTH + 6
#: largest [experiment] n and budget: an orbit is an n-element list, and
#: a run at 10^6 peaks near 140 MiB
MAX_ORBIT = 10 ** 6
#: largest [map] N: make_denjoy builds arrays of 2N + 1 floats and their
#: list copies, and a run at 10^5 peaks near 185 MiB
MAX_N = 10 ** 5
#: [experiment] key -> the largest value a config may set; a combinatorics
#: count up to PERIOD_WINDOW lets the period test compare every lag
DEPTH_LIMITS = {"depth": MAX_DEPTH, "function_depth": MAX_FUNCTION_DEPTH,
                "count": PERIOD_WINDOW, "n": MAX_ORBIT, "budget": MAX_ORBIT}


class ConfigError(DenjoyLabError):
    """Raised for unusable experiment configs, with section/key context."""


@dataclass
class ExperimentReport:
    """Everything one pipeline run produced.

    ``per_stage`` maps stage names to plain-value metric dicts and
    ``verdicts`` collects labeled judgments, each carrying the budget
    or scale it was made at.  An identical config reproduces every field
    except ``timings`` bit for bit.
    """

    config_echo: dict
    per_stage: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    incomplete: bool = False
    series: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config_echo": self.config_echo,
            "per_stage": self.per_stage,
            "verdicts": self.verdicts,
            "incomplete": self.incomplete,
            "timings": self.timings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _parse_config(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        # configparser spreads its message over lines; the CLI prints one
        message = " ".join(str(err).split())
        raise ConfigError(f"config parse error: {message}") from err
    if not parser.has_section("experiment"):
        raise ConfigError("config error: missing [experiment] section")
    if not parser.has_option("experiment", "pipeline"):
        raise ConfigError("config error: [experiment] needs a pipeline key")
    pipeline = parser.get("experiment", "pipeline")
    if pipeline not in PIPELINES:
        raise ConfigError(
            f"config error: unknown pipeline {pipeline!r}; expected one of "
            + ", ".join(PIPELINES))
    has_function = parser.has_option("experiment", "function")
    if has_function and pipeline != "variation":
        raise ConfigError("config error: [experiment] function applies to "
                          "the variation pipeline only")
    if not parser.has_section("map") and not has_function:
        raise ConfigError("config error: missing [map] section")
    return parser


def _build_target(cfg: configparser.ConfigParser):
    """Returns (map object, plain diffeo)."""
    kind = cfg.get("map", "kind", fallback=None)
    if kind is None:
        raise ConfigError("config error: [map] needs a kind key")
    try:
        if kind == "denjoy":
            N = cfg.getint("map", "N", fallback=50)
            if N > MAX_N:
                raise ValueError(f"N must be <= {MAX_N}, got {N}")
            target = make_denjoy(cfg.getfloat("map", "alpha"), N=N,
                                 mass=cfg.getfloat("map", "mass",
                                                   fallback=0.5))
            return target, target.base
        if kind in ("rigid", "arnold"):
            recipe = {"kind": kind, "alpha": cfg.getfloat("map", "alpha")}
            if kind == "arnold":
                recipe["amplitude"] = cfg.getfloat("map", "amplitude",
                                                   fallback=0.0)
            target = make_map(recipe)
            return target, target
    except (ValueError, KeyError, configparser.Error, NonMonotoneMapError) as err:
        raise ConfigError(f"config error in [map]: {err}") from err
    raise ConfigError(f"config error: unknown map kind {kind!r}")


def _verdict(report, label: str, verdict: str, **qualifier) -> None:
    """Append a verdict qualified by its keywords, in keyword order."""
    report.verdicts.append({
        "label": label, "verdict": verdict,
        "qualifier": ", ".join(f"{k}={v}" for k, v in qualifier.items()),
    })


def _stage_rotation(report, target, diffeo, x0, cfg):
    n = cfg.getint("experiment", "n", fallback=1000)
    anchor = _orbit_start(target, x0)
    lift = orbit_lift(diffeo, anchor, n)
    est = birkhoff_from_orbit(lift, n)
    report.per_stage["rotation"] = {
        "value": est.value, "error_bound": est.error_bound,
        "n": n, "x0": anchor,
    }
    _verdict(report, "rotation-number", f"{est.value:.10f}",
             n=n, error_bound=f"{est.error_bound:.3e}")
    step = max(1, n // 64)
    ests = [birkhoff_from_orbit(lift, k) for k in range(step, n + 1, step)]
    report.series["rotation"] = [(e.iterates_used, e.value, e.error_bound)
                                 for e in ests]


def _variation_input(diffeo, cfg):
    name = cfg.get("experiment", "function", fallback=None)
    if name is not None:
        depth = cfg.getint("experiment", "function_depth", fallback=12)
        return example_function(name, depth)
    return log_derivative_function(diffeo)


def _stage_variation(report, target, diffeo, x0, cfg):
    depth = cfg.getint("experiment", "depth", fallback=8)
    f = _variation_input(diffeo, cfg)
    rep = classify_regularity(f, depth)
    report.per_stage["variation"] = {
        "label": f.label,
        "depth": depth,
        "tv": rep.tv, "zv": rep.zv, "qv": rep.qv,
        "zyg_norm": rep.zyg_norm,
        "diverging": dict(rep.diverging),
        "converged": dict(rep.converged),
        "checks": dict(rep.checks),
        "holder": list(rep.holder) if rep.holder is not None else None,
    }
    for name in ("tv", "zv", "qv", "zyg_norm"):
        _verdict(report, f"variation-{name}", rep.describe(name),
                 depth=depth, input=f.label)
    report.series["variation"] = [
        (d, rep.trends["zv"][i], rep.trends["tv"][i])
        for i, d in enumerate(probe_depths(depth))
    ]


def _stage_crossratio(report, target, diffeo, x0, cfg):
    depth = cfg.getint("experiment", "depth", fallback=5)
    est = crd_variation_estimate(diffeo, partition_depth=depth)
    report.per_stage["crossratio"] = {"crd_variation": est,
                                      "partition_depth": depth}
    _verdict(report, "crd-variation", f"{est:.6e}", partition_depth=depth)


def _stage_conjugacy(report, target, diffeo, x0, cfg):
    budget = cfg.getint("experiment", "budget",
                        fallback=cfg.getint("experiment", "n",
                                            fallback=1000))
    verdict = conjugacy_verdict(target, budget)
    prof = verdict.profile
    if x0 is not None:
        prof = omega_gap_profile(diffeo, x0, budget)
    metrics = {
        "kind": verdict.kind,
        "detail": verdict.detail,
        "period": verdict.period,
        "arc": [verdict.arc.start, verdict.arc.end] if verdict.arc else None,
        "orbit_verdict": prof.verdict,
        "max_gap": prof.max_gap,
    }
    if verdict.semi is not None:
        metrics["plateau_count"] = len(verdict.semi.plateaus)
        metrics["defect"] = verdict.semi.defect
        metrics["alpha"] = verdict.semi.alpha
    report.per_stage["conjugacy"] = metrics
    _verdict(report, "conjugacy", verdict.kind,
             budget=budget, detail=verdict.detail)
    report.series["conjugacy"] = [
        (k, g, DENSE_GAP_FACTOR / budget) for k, g in prof.gap_trend
    ]


def _stage_combinatorics(report, target, diffeo, x0, cfg):
    count = cfg.getint("experiment", "count", fallback=60)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    base_arc = getattr(target, "wandering_arc", None)
    if base_arc is None:
        orbit, q = _orbit_and_period(diffeo, _orbit_start(target, x0),
                                     count)[:2]
        if q is not None:
            raise PeriodicOrbitError(q, f"periodic orbit of period {q}: no "
                                        f"disjoint arc family at count={count}")
        pts = frac(orbit)
        gaps = np.diff(np.sort(pts), append=pts.min() + 1.0)
        half = 0.25 * float(gaps.min())
        arcs = [Arc(p - half, p + half) for p in pts]
    else:
        arcs = [base_arc] + interval_orbit(diffeo, base_arc, count)
    table = predecessor_successor_table(arcs)
    jumps = sorted({table.successor[n] - n for n in range(len(table))
                    if table.successor[n] is not None})
    valid = [n for n in range(len(table))
             if table.natural_nbhd[n] is not None]
    samples = valid[:: max(1, len(valid) // 8)] if valid else []
    worst = 0
    for n in samples:
        fam = pullback_arcs(diffeo, natural_neighborhood(table, n), n)
        worst = max(worst, intersection_multiplicity(fam))
    report.per_stage["combinatorics"] = {
        "arc_count": len(table),
        "successor_jumps": jumps,
        "sampled_indices": list(samples),
        "max_pullback_multiplicity": worst,
        "multiplicity_bound": PULLBACK_MULTIPLICITY_BOUND,
    }
    _verdict(report, "pullback-multiplicity",
             "within-bound" if worst <= PULLBACK_MULTIPLICITY_BOUND else "exceeded",
             max_observed=worst, bound=PULLBACK_MULTIPLICITY_BOUND,
             arcs=len(table))


def _stage_full(report, target, diffeo, x0, cfg):
    """The stages, then the criterion block.  A rational map is outside
    the criteria: not-applicable, with its period.  Otherwise consistent
    when finite zv, the one evidence read, agrees with no wandering arc."""
    for stage in (_stage_crossratio, _stage_variation, _stage_conjugacy):
        stage(report, target, diffeo, x0, cfg)
    crit = {"finite_distortion_evidence":
            not report.per_stage["variation"]["diverging"]["zv"]}
    conj = report.per_stage["conjugacy"]
    if conj["kind"] == "rational-rotation":
        crit.update(period=conj["period"], consistent=None)
        verdict, evidence = "not-applicable", {"period": conj["period"]}
    else:
        crit["no_wandering_interval"] = conj["kind"] == "conjugate-evidence"
        crit["consistent"] = (crit["finite_distortion_evidence"]
                              == crit["no_wandering_interval"])
        verdict = "consistent" if crit["consistent"] else "inconsistent"
        evidence = {"finite_zv_qv_evidence": crit["finite_distortion_evidence"],
                    "no_wandering_interval": crit["no_wandering_interval"]}
    report.per_stage["criterion"] = crit
    _verdict(report, "criterion-consistency", verdict, **evidence)


_STAGES = {
    "rotation": _stage_rotation,
    "variation": _stage_variation,
    "crossratio": _stage_crossratio,
    "conjugacy": _stage_conjugacy,
    "combinatorics": _stage_combinatorics,
    "full-criterion": _stage_full,
}


def run_experiment(text: str) -> ExperimentReport:
    """Parse the config text, run its pipeline, and return the report.

    The library rejects a bad parameter with ValueError, so one raised
    while reading [experiment] values or running the pipeline on them
    becomes a ConfigError, as does a value over its ``DEPTH_LIMITS`` entry,
    checked before the map is built.  A ``DenjoyLabError`` is a runtime
    outcome and passes unchanged.
    """
    cfg = _parse_config(text)
    pipeline = cfg.get("experiment", "pipeline")
    echo = {s: dict(cfg.items(s)) for s in cfg.sections()}
    report = ExperimentReport(config_echo=echo)
    target, diffeo, x0 = None, None, None
    try:
        for key, limit in DEPTH_LIMITS.items():
            value = cfg.getint("experiment", key, fallback=0)
            if value > limit:
                raise ValueError(f"{key} must be <= {limit}, got {value}")
        if cfg.has_section("map"):
            target, diffeo = _build_target(cfg)
        if cfg.has_option("experiment", "x0"):
            x0 = cfg.getfloat("experiment", "x0")
            if not np.isfinite(x0):
                raise ValueError(f"x0 must be finite, got {x0}")
            x0 = float(frac(x0))
        emit = cfg.getboolean("experiment", "emit_series", fallback=False)
        max_seconds = cfg.getfloat("experiment", "max_seconds",
                                   fallback=np.inf)
        if not max_seconds > 0.0:
            raise ValueError(f"max_seconds must be > 0, got {max_seconds}")
        t0 = time.monotonic()
        _STAGES[pipeline](report, target, diffeo, x0, cfg)
        elapsed = time.monotonic() - t0
    except DenjoyLabError:
        raise
    except ValueError as err:
        raise ConfigError(f"config error in [experiment]: {err}") from err
    report.timings[pipeline] = elapsed
    report.incomplete = elapsed > max_seconds
    if not emit:
        report.series = {}
    return report


def _write_outputs(report: ExperimentReport, out_dir: Path,
                   tag: str = "") -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"report{tag}.json"
    path.write_text(report.to_json())
    for stage, rows in report.series.items():
        lines = ["n,value,bound"]
        lines += [f"{int(n)},{v!r},{b!r}" for n, v, b in rows]
        csv_path = out_dir / f"series_{stage}{tag}.csv"
        csv_path.write_text("\n".join(lines) + "\n")
    return path


def _sweep_configs(text: str) -> list[tuple[str, str]]:
    """Expand a [sweep] section into (tag, config text) pairs."""
    cfg = _parse_config(text)
    if not cfg.has_section("sweep"):
        return [("", text)]
    try:
        # no section can be named "", so [DEFAULT] keys stay out of [sweep]
        own = configparser.ConfigParser(default_section="")
        own.read_string(text)
        keys = own.options("sweep")
        if len(keys) != 1:
            raise ConfigError("config error: [sweep] supports exactly one key")
        key = keys[0]
        section, _, option = key.rpartition(".")
        values = [v.strip() for v in cfg.get("sweep", key).split(",")
                  if v.strip()]
        if not values:
            raise ConfigError(f"config error: [sweep] {key} lists no values")
        out = []
        for i, value in enumerate(values):
            variant = configparser.ConfigParser()
            variant.read_string(text)
            variant.remove_section("sweep")
            variant.set(section or "map", option, value)
            buf = io.StringIO()
            variant.write(buf)
            out.append((f"_{i:03d}", buf.getvalue()))
    except configparser.Error as err:
        raise ConfigError(f"config error in [sweep]: {err}") from err
    return out


def _cmd_run(args) -> int:
    path = Path(args.config)
    try:
        text = path.read_text()
    except OSError as err:
        print(f"cannot read config {path}: {err}", file=sys.stderr)
        return 2
    try:
        reports = [(tag, run_experiment(body))
                   for tag, body in _sweep_configs(text)]
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except PeriodicOrbitError as err:
        print(f"experiment aborted: {err}", file=sys.stderr)
        return 1
    except DenjoyLabError as err:
        print(f"experiment failed: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:
        detail = " ".join(str(err).split())
        print(f"experiment failed: out of memory{': ' + detail if detail else ''}",
              file=sys.stderr)
        return 1
    try:
        written = [_write_outputs(rep, Path(args.out), tag)
                   for tag, rep in reports]
    except OSError as err:
        print(f"cannot write reports to {args.out}: {err}", file=sys.stderr)
        return 2
    for p in written:
        print(p)
    if any(rep.incomplete for _, rep in reports):
        print("warning: budget exceeded, report incomplete", file=sys.stderr)
    return 0


def _cmd_catalog(args) -> int:
    width = max(len(name) for name, _ in CATALOG_ENTRIES)
    for name, blurb in CATALOG_ENTRIES:
        print(f"{name:<{width}}  {blurb}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="denjoy-lab",
        description="circle-diffeomorphism conjugacy experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to an INI experiment config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cat = sub.add_parser("catalog", help="inspect built-in targets")
    p_cat.add_argument("action", choices=["list"])
    p_cat.set_defaults(func=_cmd_catalog)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

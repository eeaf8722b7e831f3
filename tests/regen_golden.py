"""Golden reports: one stripped report per (map, pipeline) of a fixed matrix.

    PYTHONPATH=src python3 tests/regen_golden.py            # rewrite, list moves
    PYTHONPATH=src python3 tests/regen_golden.py --check    # list moves only
    PYTHONPATH=src python3 tests/regen_golden.py --exact    # any byte counts

Each file under ``tests/golden/`` holds one map's six pipeline reports,
without ``timings``, or the one-line error a config raises today.  The
script reruns the matrix, prints every field that moved against the
stored files, and rewrites them unless ``--check`` is given; it exits 1
when something moved.  A move means a float off by more than a relative
``REL_TOL``, or any other difference; ``--exact`` counts any change of
bytes, the check for a refactor meant to keep every number bit for bit.
``tests/test_golden.py`` runs the same comparison at ``REL_TOL``.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
#: float tolerance across numpy builds and platforms
REL_TOL = 1e-12

PIPELINES = ("rotation", "variation", "crossratio", "conjugacy",
             "combinatorics", "full-criterion")
SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: map name -> ([map] section lines, extra [experiment] lines)
MAPS = {
    "rigid-0.618": (["kind = rigid", "alpha = 0.618"], []),
    "arnold-0.41-0.6": (["kind = arnold", "alpha = 0.41", "amplitude = 0.6"], []),
    # the same circle map with its lift shifted by 5: F(x) - x is near 5.41
    "arnold-5.41-0.6": (["kind = arnold", "alpha = 5.41", "amplitude = 0.6"], []),
    "arnold-0.3-0.3-budget10000": (
        ["kind = arnold", "alpha = 0.3", "amplitude = 0.3"], ["budget = 10000"]),
    # mode-locked, period 2: x_w closes, and the gap profile reads on to the budget
    "arnold-0.5-0.3-budget10000": (
        ["kind = arnold", "alpha = 0.5", "amplitude = 0.3"], ["budget = 10000"]),
    "denjoy-sqrt2m1-n30": (["kind = denjoy", f"alpha = {SQRT2_M1!r}", "N = 30"], []),
    "denjoy-sqrt2m1-n50": (["kind = denjoy", f"alpha = {SQRT2_M1!r}", "N = 50"], []),
    # every orbit a stage reads, the conjugacy verdict's included, starts at x0
    "denjoy-sqrt2m1-n50-x0": (
        ["kind = denjoy", f"alpha = {SQRT2_M1!r}", "N = 50"], ["x0 = 0.3"]),
    "denjoy-sqrt2m1-n100": (["kind = denjoy", f"alpha = {SQRT2_M1!r}", "N = 100"], []),
    # the CLI's largest table: jumps 1, 3, 5, ..., 377 on the tuned map,
    # the Pell numbers up to 408 on the Denjoy map (at N = 50 the arc meets
    # itself at step 985)
    "arnold-tuned-0.3-count1000": (
        ["kind = arnold", "alpha = 0.6166966281891195", "amplitude = 0.3"],
        ["count = 1000"]),
    "denjoy-sqrt2m1-n100-count1000": (
        ["kind = denjoy", f"alpha = {SQRT2_M1!r}", "N = 100"], ["count = 1000"]),
    # the dust-anchor screen fails here: pipelines that read the anchor
    # raise a RuntimeError, the others report
    "denjoy-golden-n30": (["kind = denjoy", f"alpha = {GOLDEN!r}", "N = 30"], []),
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|[-+]?inf")


def config_text(map_name: str, pipeline: str) -> str:
    map_lines, experiment_lines = MAPS[map_name]
    return "\n".join(["[experiment]", f"pipeline = {pipeline}", *experiment_lines,
                      "[map]", *map_lines, ""])


def run_config(text: str):
    """The stripped report of one config as plain JSON data, or the
    one-line error it raises."""
    from denjoylab.cli import run_experiment
    try:
        report = json.loads(run_experiment(text).to_json())
    except Exception as err:  # any failure is recorded, not raised
        return {"error": f"{type(err).__name__}: {err}"}
    del report["timings"]
    return report


def compute(map_name: str) -> dict:
    return {p: run_config(config_text(map_name, p)) for p in PIPELINES}


def dump(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _float_close(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(
        a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _string_close(a: str, b: str) -> bool:
    """Equal text around embedded numbers, and the numbers close."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return False
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    return len(na) == len(nb) and all(_float_close(float(x), float(y))
                                      for x, y in zip(na, nb))


def moved_fields(expected, actual, path: str = "") -> list[str]:
    """Paths where actual differs from expected beyond ``REL_TOL``,
    each with both values."""
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} -> {actual!r}"]
    if isinstance(expected, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else key
            if key not in actual or key not in expected:
                out.append(f"{sub}: {expected.get(key, '<absent>')!r} -> "
                           f"{actual.get(key, '<absent>')!r}")
            else:
                out.extend(moved_fields(expected[key], actual[key], sub))
        return out
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} -> {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual))
                for m in moved_fields(e, a, f"{path}[{i}]")]
    if isinstance(expected, float):
        same = _float_close(expected, actual)
    elif isinstance(expected, str):
        same = _string_close(expected, actual)
    else:
        same = expected == actual
    return [] if same else [f"{path}: {expected!r} -> {actual!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare only; write nothing")
    parser.add_argument("--exact", action="store_true",
                        help="count any change of bytes as a move")
    args = parser.parse_args(argv)
    GOLDEN_DIR.mkdir(exist_ok=True)
    moved = 0
    for name in MAPS:
        path = GOLDEN_DIR / f"{name}.json"
        fresh = compute(name)
        text = dump(fresh)
        if not path.exists():
            print(f"{name}: new file")
            moved += 1
        elif args.exact and path.read_text() != text:
            stored = json.loads(path.read_text())
            for pipeline in PIPELINES:
                if dump(stored.get(pipeline)) != dump(fresh[pipeline]):
                    print(f"{name}/{pipeline}: bytes differ")
                    moved += 1
        elif not args.exact:
            lines = moved_fields(json.loads(path.read_text()), fresh)
            for line in lines:
                print(f"{name}: {line}")
            moved += len(lines)
        if not args.check:
            path.write_text(text)
    print(f"{moved} field(s) moved" + ("" if args.check else "; files rewritten"))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())

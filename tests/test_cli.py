"""The denjoy-lab command: configs, pipelines, reports and sweeps."""
import json

import pytest

from _orbit_reference import orbit_lift_reference
from conftest import count_lift_in_place
from denjoylab import (PeriodicOrbitError, birkhoff_estimate,
                       build_semiconjugacy, cli, conjugacy_verdict, dynamics,
                       make_denjoy, maps, rotation)
from denjoylab.cli import (ConfigError, _build_target, _parse_config, main,
                           run_experiment, _sweep_configs)

ROT = """
[experiment]
pipeline = rotation
n = 1000
emit_series = true

[map]
kind = rigid
alpha = 0.618
"""

VAR_FUNCTION_ONLY = """
[experiment]
pipeline = variation
function = ex1
function_depth = 10
depth = 10
"""

CONJ_DENJOY = """
[experiment]
pipeline = conjugacy
budget = 400

[map]
kind = denjoy
alpha = 0.41421356237309515
N = 30
mass = 0.5
"""

FULL = """
[experiment]
pipeline = full-criterion
budget = 300
depth = 6

[map]
kind = arnold
alpha = 0.618
amplitude = 0.2
"""


def _run(tmp_path, text, name="exp.ini", extra=()):
    cfg = tmp_path / name
    cfg.write_text(text)
    out = tmp_path / "out"
    rc = main(["run", str(cfg), "--out", str(out), *extra])
    return rc, out


class TestRotationPipeline:
    def test_report_and_series(self, tmp_path):
        rc, out = _run(tmp_path, ROT)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["schema_version"] == 2
        assert abs(rep["per_stage"]["rotation"]["value"] - 0.618) < 1e-9
        assert rep["per_stage"]["rotation"]["error_bound"] == 0.002
        csv = (out / "series_rotation.csv").read_text().splitlines()
        assert csv[0] == "n,value,bound"
        assert len(csv) > 10

    def test_x0_is_read_as_a_circle_point(self):
        # at x0 = 1e17 the lift rounds F(x0) back to x0, so an unreduced
        # start reads rotation number 0 with a false 2/n bound
        arnold = "[map]\nkind = arnold\nalpha = 0.3\namplitude = 0.5\n"

        def rotation_at(x0):
            text = f"[experiment]\npipeline = rotation\nn = 1000\nx0 = {x0}\n" + arnold
            return run_experiment(text).per_stage["rotation"]

        far, near = rotation_at(1e17), rotation_at(0)
        assert far == near
        assert far["x0"] == 0.0
        assert abs(far["value"] - 0.2927) < far["error_bound"]
        assert rotation_at(-2.75) == rotation_at(0.25)

    def test_reports_are_deterministic(self):
        a = run_experiment(ROT).to_dict()
        b = run_experiment(ROT).to_dict()
        del a["timings"], b["timings"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_stage_iterates_one_orbit(self, monkeypatch):
        steps = []
        real = maps.orbit_lift

        def counting(diffeo, x0, n):
            steps.append(n)
            return real(diffeo, x0, n)

        for module in (cli, rotation):
            monkeypatch.setattr(module, "orbit_lift", counting)
        stage = run_experiment(ROT).per_stage["rotation"]
        assert steps == [1000]
        monkeypatch.undo()
        _, diffeo, anchor = _build_target(_parse_config(ROT))
        assert stage["value"] == birkhoff_estimate(diffeo, anchor, 1000).value


class TestDenjoyAnchorOrbit:
    """The orbit make_denjoy screened for its anchor serves the stages."""

    @staticmethod
    def _lift_calls(monkeypatch, pipeline):
        """One Denjoy N = 50 run at the CLI defaults: its map, and the
        argument of every lift evaluation after the build."""
        built = []

        def build(*args, **kwargs):
            target = make_denjoy(*args, **kwargs)
            built.append((target, count_lift_in_place(target.base)))
            return target

        monkeypatch.setattr(cli, "make_denjoy", build)
        text = CONJ_DENJOY.replace("budget = 400\n", "").replace("N = 30", "N = 50")
        run_experiment(text.replace("pipeline = conjugacy", f"pipeline = {pipeline}"))
        [(target, calls)] = built
        return target, list(calls)

    def test_rotation_evaluates_no_lift(self, monkeypatch):
        assert self._lift_calls(monkeypatch, "rotation")[1] == []

    def test_conjugacy_iterates_only_past_the_stored_orbit(self, monkeypatch):
        target, calls = self._lift_calls(monkeypatch, "conjugacy")
        ref = orbit_lift_reference(target.base, target.cantor_anchor, 1200).tolist()
        # make_denjoy stored z_0 .. z_end; the verdict's 1 200-step anchor
        # orbit comes first and evaluates the lift at z_end .. z_1199 only
        end = target.anchor_budget + 1
        assert calls[:1200 - end] == ref[end:1200]
        assert not set(ref[:end]) & {x for x in calls if isinstance(x, float)}


class TestVariationPipeline:
    def test_function_only_config_needs_no_map(self, tmp_path):
        rc, out = _run(tmp_path, VAR_FUNCTION_ONLY)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["per_stage"]["variation"]["tv"] == pytest.approx(2.0)
        labels = {v["label"] for v in rep["verdicts"]}
        assert "variation-zyg_norm" in labels

    def test_map_log_derivative_input(self, tmp_path):
        text = ("[experiment]\npipeline = variation\ndepth = 6\n\n"
                "[map]\nkind = arnold\nalpha = 0.618\namplitude = 0.3\n")
        rc, out = _run(tmp_path, text)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["per_stage"]["variation"]["tv"] > 0.0


class TestConjugacyPipeline:
    def test_denjoy_wandering(self, tmp_path):
        rc, out = _run(tmp_path, CONJ_DENJOY)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        c = rep["per_stage"]["conjugacy"]
        assert c["kind"] == "wandering-interval-found"
        assert c["plateau_count"] >= 1

    @staticmethod
    def _orbit_steps(monkeypatch, pipeline="conjugacy", extra=""):
        """Lengths of the orbits dynamics iterates for one Denjoy N = 50
        run at budget 1000."""
        steps = []
        real = dynamics.orbit_lift

        def counting(diffeo, x0, n):
            steps.append(n)
            return real(diffeo, x0, n)

        monkeypatch.setattr(dynamics, "orbit_lift", counting)
        text = CONJ_DENJOY.replace("budget = 400", "budget = 1000" + extra)
        run_experiment(text.replace("N = 30", "N = 50").replace(
            "pipeline = conjugacy", f"pipeline = {pipeline}"))
        return steps

    def test_stage_iterates_each_anchor_once(self, monkeypatch):
        # burn-in 200 plus the period budget 1000, shared by the verdict's
        # period, semi-conjugacy and gap profile
        assert self._orbit_steps(monkeypatch) == [1200]

    def test_x0_gap_profile_iterates_its_own_orbit(self, monkeypatch):
        steps = self._orbit_steps(monkeypatch, extra="\nx0 = 0.3")
        assert steps == [1200, 1200]

    def test_full_criterion_iterates_each_anchor_once(self, monkeypatch):
        assert self._orbit_steps(monkeypatch, "full-criterion") == [1200]

    def test_x0_moves_only_the_gap_profile(self):
        text = CONJ_DENJOY.replace("budget = 400", "budget = 400\nx0 = 0.3")
        c = run_experiment(text).per_stage["conjugacy"]
        target, diffeo, anchor = _build_target(_parse_config(text))
        semi = conjugacy_verdict(target, 400).semi
        assert semi.anchor == anchor != 0.3
        assert c["alpha"] == semi.alpha
        assert c["defect"] == semi.defect
        assert c["plateau_count"] == len(semi.plateaus)
        assert c["defect"] != build_semiconjugacy(diffeo, 0.3, 400).defect

    def test_rational_rotation_reported(self, tmp_path):
        text = ("[experiment]\npipeline = conjugacy\nbudget = 200\n\n"
                "[map]\nkind = rigid\nalpha = 0.25\n")
        rc, out = _run(tmp_path, text)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["per_stage"]["conjugacy"]["kind"] == "rational-rotation"
        assert rep["per_stage"]["conjugacy"]["period"] == 4


class TestCombinatoricsPipeline:
    def test_rigid_orbit_jumps(self, tmp_path):
        text = ("[experiment]\npipeline = combinatorics\ncount = 40\n\n"
                "[map]\nkind = rigid\nalpha = 0.618\n")
        rc, out = _run(tmp_path, text)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        cb = rep["per_stage"]["combinatorics"]
        assert cb["arc_count"] == 41
        assert cb["successor_jumps"] == [1, 3, 5, 8, 13]
        assert cb["max_pullback_multiplicity"] <= cb["multiplicity_bound"]

    def test_periodic_orbit_is_config_error(self, tmp_path):
        text = ("[experiment]\npipeline = combinatorics\ncount = 8\n\n"
                "[map]\nkind = rigid\nalpha = 0.25\n")
        rc, _ = _run(tmp_path, text)
        assert rc == 2

    def test_integer_shifted_lift_pulls_back(self, tmp_path):
        # alpha = 5.41 is the circle map of alpha = 0.41, with a lift that
        # moves every point by about 5.41
        text = ("[experiment]\npipeline = combinatorics\n\n"
                "[map]\nkind = arnold\nalpha = 5.41\namplitude = 0.6\n")
        rc, out = _run(tmp_path, text)
        assert rc == 0
        cb = json.loads((out / "report.json").read_text())["per_stage"]["combinatorics"]
        assert cb["max_pullback_multiplicity"] <= cb["multiplicity_bound"]


class TestFullCriterion:
    def test_consistency_block(self, tmp_path):
        rc, out = _run(tmp_path, FULL)
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        crit = rep["per_stage"]["criterion"]
        assert set(crit) == {"finite_distortion_evidence",
                             "no_wandering_interval", "consistent"}
        assert crit["consistent"] is True
        labels = [v["label"] for v in rep["verdicts"]]
        assert "criterion-consistency" in labels


class TestSweep:
    def test_fans_out_one_key(self, tmp_path):
        text = ROT + "\n[sweep]\nalpha = 0.31, 0.47, 0.62\n"
        rc, out = _run(tmp_path, text)
        assert rc == 0
        reports = sorted(out.glob("report_*.json"))
        assert [p.name for p in reports] == [
            "report_000.json", "report_001.json", "report_002.json"]
        vals = [json.loads(p.read_text())["per_stage"]["rotation"]["value"]
                for p in reports]
        assert [round(v, 6) for v in vals] == [0.31, 0.47, 0.62]

    def test_default_keys_are_not_sweep_keys(self, tmp_path):
        text = ("[DEFAULT]\nN = 30\n" + ROT
                + "\n[sweep]\nalpha = 0.31, 0.47\n")
        rc, out = _run(tmp_path, text)
        assert rc == 0
        assert len(list(out.glob("report_*.json"))) == 2

    def test_section_key_sweeps_another_section(self, tmp_path):
        text = ("[experiment]\npipeline = variation\nfunction = ex2\n"
                "depth = 14\n\n[map]\nkind = rigid\nalpha = 0.3\n\n"
                "[sweep]\nexperiment.function_depth = 4, 8\n")
        rc, out = _run(tmp_path, text)
        assert rc == 0
        labels = [json.loads(p.read_text())["per_stage"]["variation"]["label"]
                  for p in sorted(out.glob("report_*.json"))]
        assert labels == ["ex2 (tent sum, depth 4)", "ex2 (tent sum, depth 8)"]

    def test_two_keys_rejected(self):
        text = ROT + "\n[sweep]\nalpha = 0.1, 0.2\nn = 10, 20\n"
        with pytest.raises(ConfigError):
            _sweep_configs(text)


RIGID = "\n[map]\nkind = rigid\nalpha = 0.618\n"


class TestConfigErrors:
    @pytest.mark.parametrize("text", [
        "[experiment]\npipeline = wat\n[map]\nkind = rigid\nalpha = 0.6\n",
        "[experiment]\npipeline = rotation\n",
        "[experiment]\nn = 5\n[map]\nkind = rigid\nalpha = 0.6\n",
        "not an ini {{{{",
        # values the library rejects with ValueError
        "[experiment]\npipeline = rotation\nn = 0\n" + RIGID,
        "[experiment]\npipeline = rotation\nn = abc\n" + RIGID,
        "[experiment]\npipeline = conjugacy\nn = 50\n" + RIGID,
        "[experiment]\npipeline = variation\ndepth = 2\n" + RIGID,
        "[experiment]\npipeline = crossratio\ndepth = 0\n" + RIGID,
        "[experiment]\npipeline = combinatorics\ncount = -3\n" + RIGID,
        "[experiment]\npipeline = rotation\nemit_series = maybe\n" + RIGID,
        "[experiment]\npipeline = rotation\nmax_seconds = 0\n" + RIGID,
        "[experiment]\npipeline = rotation\nmax_seconds = -1\n" + RIGID,
        "[experiment]\npipeline = rotation\nmax_seconds = nan\n" + RIGID,
        # non-finite map parameters and start points
        "[experiment]\npipeline = rotation\n[map]\nkind = rigid\nalpha = inf\n",
        "[experiment]\npipeline = rotation\n[map]\nkind = rigid\nalpha = nan\n",
        "[experiment]\npipeline = crossratio\n"
        "[map]\nkind = rigid\nalpha = nan\n",
        "[experiment]\npipeline = crossratio\n"
        "[map]\nkind = arnold\nalpha = 0.3\namplitude = nan\n",
        "[experiment]\npipeline = rotation\nx0 = inf\n"
        "[map]\nkind = arnold\nalpha = 0.3\namplitude = 0.5\n",
    ])
    def test_bad_configs_exit_two(self, tmp_path, capsys, text):
        rc, _ = _run(tmp_path, text)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("pipeline",
                             [p for p in cli.PIPELINES if p != "variation"])
    def test_function_outside_variation_exits_two(self, tmp_path, capsys, pipeline):
        text = (f"[experiment]\npipeline = {pipeline}\nfunction = ex1\n"
                "[map]\nkind = arnold\nalpha = 0.618\namplitude = 0.2\n")
        rc, _ = _run(tmp_path, text)
        assert rc == 2
        assert capsys.readouterr().err == ("config error: [experiment] function "
                                           "applies to the variation pipeline only\n")

    def test_periodic_orbit_still_exits_one(self, tmp_path, capsys,
                                            monkeypatch):
        def periodic(*args):
            raise PeriodicOrbitError(3)

        monkeypatch.setitem(cli._STAGES, "rotation", periodic)
        rc, _ = _run(tmp_path, ROT)
        assert rc == 1
        assert capsys.readouterr().err.startswith("experiment aborted")

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(ROT)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", str(cfg), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write reports to {taken}")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_missing_file(self, tmp_path):
        rc = main(["run", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_sweep_without_map_section(self, tmp_path, capsys):
        text = ("[experiment]\npipeline = variation\nfunction = ex2\n\n"
                "[sweep]\nfunction_depth = 4, 8\n")
        rc, _ = _run(tmp_path, text)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_bad_map_value(self, tmp_path):
        text = ("[experiment]\npipeline = rotation\n\n"
                "[map]\nkind = arnold\nalpha = 0.3\namplitude = oops\n")
        rc, _ = _run(tmp_path, text)
        assert rc == 2


MAPS = {
    "rigid": "kind = rigid\nalpha = 0.618",
    "arnold": "kind = arnold\nalpha = 0.41\namplitude = 0.6",
    "denjoy": "kind = denjoy\nalpha = 0.41421356237309515\nN = 30",
}
PLAIN_TYPES = {dict, list, str, int, float, bool, type(None)}


def _value_types(obj):
    yield type(obj)
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _value_types(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _value_types(v)


@pytest.mark.parametrize("kind", sorted(MAPS))
@pytest.mark.parametrize("pipeline", cli.PIPELINES)
def test_report_values_are_plain_python(pipeline, kind):
    # per_stage and verdicts go to JSON as built: no numpy scalar, no tuple
    text = (f"[experiment]\npipeline = {pipeline}\nn = 300\nbudget = 300\n"
            f"count = 20\n\n[map]\n{MAPS[kind]}\n")
    report = run_experiment(text)
    types = set(_value_types([report.per_stage, report.verdicts]))
    assert types <= PLAIN_TYPES, types - PLAIN_TYPES


class TestBudgetFlag:
    def test_exceeded_budget_marks_incomplete(self):
        slow = CONJ_DENJOY.replace("budget = 400",
                                   "budget = 2000\nmax_seconds = 0.000001")
        rep = run_experiment(slow)
        assert rep.incomplete is True


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("rigid", "arnold", "denjoy", "ex1", "ex2", "ex3"):
        assert name in out

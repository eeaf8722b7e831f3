"""The denjoy-lab command: configs, pipelines, reports and sweeps."""
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from _orbit_reference import orbit_lift_reference
from conftest import count_lift_in_place
from denjoylab import (PeriodicOrbitError, birkhoff_estimate,
                       build_semiconjugacy, catalog, cli, conjugacy_verdict,
                       dynamics, make_denjoy, maps, rotation)
from denjoylab.cli import (ConfigError, _build_target, _parse_config, main,
                           run_experiment, _sweep_configs)
from denjoylab.util import frac

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

CONJ_GOLDEN = """
[experiment]
pipeline = conjugacy
budget = 2000

[map]
kind = rigid
alpha = 0.6180339887498949
"""

CONJ_LOCKED = """
[experiment]
pipeline = conjugacy
budget = 10000

[map]
kind = arnold
alpha = 0.5
amplitude = 0.3
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
        assert rep["schema_version"] == 3
        assert abs(rep["per_stage"]["rotation"]["value"] - 0.618) < 1e-9
        assert rep["per_stage"]["rotation"]["error_bound"] == 0.002
        csv = (out / "series_rotation.csv").read_text().splitlines()
        assert csv[0] == "n,value,bound"
        assert len(csv) > 10

    @pytest.mark.parametrize("map_text", [
        "[map]\nkind = rigid\nalpha = 0.618\n",
        "[map]\nkind = arnold\nalpha = 0.41\namplitude = 0.6\n",
        "[map]\nkind = denjoy\nalpha = 0.41421356237309515\nN = 30\n"])
    def test_series_rows_are_the_former_formula(self, map_text):
        text = "[experiment]\npipeline = rotation\nemit_series = true\n" + map_text
        rep = run_experiment(text)
        _, diffeo = _build_target(_parse_config(text))
        lift = orbit_lift_reference(diffeo, rep.per_stage["rotation"]["x0"], 1000)
        # each row as the stage computed it before it read birkhoff_from_orbit
        assert rep.series["rotation"] == [
            (k, float(frac((lift[k] - lift[0]) / k)), 2.0 / k)
            for k in range(15, 1001, 15)]

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
        _, diffeo = _build_target(_parse_config(ROT))
        assert stage["value"] == birkhoff_estimate(
            diffeo, dynamics.DEFAULT_ANCHOR, 1000).value


class TestDenjoyAnchorOrbit:
    """The anchor is screened on its first read, and the orbit the screen
    stored serves the stages."""

    @pytest.mark.parametrize("pipeline, extra", [
        ("variation", ""), ("crossratio", ""), ("combinatorics", ""),
        ("rotation", "x0 = 0.3\n")])
    def test_stages_without_the_anchor_never_screen(self, monkeypatch,
                                                     pipeline, extra):
        def screen(*args):
            raise AssertionError("the dust anchor was screened")

        monkeypatch.setattr(catalog, "_find_dust_anchor", screen)
        text = CONJ_DENJOY.replace("pipeline = conjugacy\n",
                                   f"pipeline = {pipeline}\n{extra}")
        assert pipeline in run_experiment(text).per_stage

    @pytest.mark.parametrize("N", [30, 50])
    def test_golden_mean_combinatorics_jumps_are_fibonacci(self, N):
        # the golden mean's anchor screen fails at N <= 50, but this
        # pipeline iterates the wandering arc and never reads the anchor
        text = CONJ_DENJOY.replace("alpha = 0.41421356237309515",
                                   "alpha = 0.6180339887498949")
        text = text.replace("pipeline = conjugacy", "pipeline = combinatorics")
        stage = run_experiment(text.replace("N = 30", f"N = {N}")).per_stage
        assert stage["combinatorics"]["successor_jumps"] == [1, 3, 5, 8, 13, 21]

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
        # make_denjoy stored z_0 .. z_1101; the verdict's 1 000-step anchor
        # orbit lies inside it, so no anchor orbit point reaches the lift
        assert target.anchor_budget == 1100
        ref = orbit_lift_reference(target.base, target.cantor_anchor, 1200).tolist()
        assert not set(ref) & {x for x in calls if isinstance(x, float)}


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
    def _orbit_work(monkeypatch, pipeline="conjugacy", extra="",
                    config=None):
        """The lengths of the orbits dynamics asks for and the number of
        scalar lift evaluations after the build, in one run of the config
        (by default Denjoy N = 50 at budget 1000).  Orbit steps and probe
        images are scalar; the crossratio and variation stages evaluate
        arrays."""
        steps = []
        real = dynamics.orbit_lift
        lifts = []

        def counting(diffeo, x0, n):
            steps.append(n)
            return real(diffeo, x0, n)

        def build_denjoy(*args, **kwargs):
            target = make_denjoy(*args, **kwargs)
            lifts.append(count_lift_in_place(target.base))
            return target

        def build_map(recipe):
            target = catalog.make_map(recipe)
            lifts.append(count_lift_in_place(target))
            return target

        monkeypatch.setattr(dynamics, "orbit_lift", counting)
        monkeypatch.setattr(cli, "make_denjoy", build_denjoy)
        monkeypatch.setattr(cli, "make_map", build_map)
        if config is None:
            config = CONJ_DENJOY.replace("budget = 400", "budget = 1000")
            config = config.replace("N = 30", "N = 50")
        config = config.replace("pipeline = conjugacy",
                                f"pipeline = {pipeline}")
        run_experiment(config.replace("[map]", extra + "\n[map]"))
        [calls] = lifts
        return steps, sum(isinstance(x, float) for x in calls)

    def test_stage_iterates_each_anchor_once(self, monkeypatch):
        # the budget, shared by the verdict's period, semi-conjugacy and
        # gap profile; the anchor screen stored 1 101 steps, so the lift
        # runs only in the probe of the plateau that is confirmed
        probe = 2 * dynamics.PROBE_STEPS
        assert self._orbit_work(monkeypatch) == ([1000], probe)

    def test_x0_gap_profile_iterates_its_own_orbit(self, monkeypatch):
        probe = 2 * dynamics.PROBE_STEPS
        assert self._orbit_work(monkeypatch, extra="x0 = 0.3") == (
            [1000, 1000], probe + 1000)

    def test_full_criterion_iterates_each_anchor_once(self, monkeypatch):
        probe = 2 * dynamics.PROBE_STEPS
        assert self._orbit_work(monkeypatch, "full-criterion") == (
            [1000], probe)

    def test_aperiodic_stage_evaluates_the_budget_once(self, monkeypatch):
        # x_w, then the same orbit on to x_n; no plateau, so no probe
        w = dynamics.PERIOD_WINDOW
        assert self._orbit_work(monkeypatch, config=CONJ_GOLDEN) == (
            [w, 2000], 2000)
        assert self._orbit_work(monkeypatch, extra="x0 = 0.3",
                                config=CONJ_GOLDEN) == (
            [w, 2000, w, 2000], 4000)

    def test_rational_stage_reads_its_profile_at_once(self, monkeypatch):
        # the verdict stops at x_w; the stage reads the profile, which
        # extends the stored orbit to x_n: n lift evaluations in all
        w = dynamics.PERIOD_WINDOW
        assert self._orbit_work(monkeypatch, config=CONJ_LOCKED) == (
            [w, 10_000], 10_000)
        assert self._orbit_work(monkeypatch, extra="x0 = 0.3",
                                config=CONJ_LOCKED) == (
            [w, 10_000, w, 10_000], 20_000)

    def test_x0_moves_only_the_gap_profile(self):
        text = CONJ_DENJOY.replace("budget = 400", "budget = 400\nx0 = 0.3")
        c = run_experiment(text).per_stage["conjugacy"]
        target, diffeo = _build_target(_parse_config(text))
        semi = conjugacy_verdict(target, 400).semi
        assert semi.anchor == target.cantor_anchor != 0.3
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

    @pytest.mark.parametrize("count, map_keys, period", [
        (8, "kind = rigid\nalpha = 0.25", 4),
        (60, "kind = rigid\nalpha = 0.3", 10),
        (60, "kind = arnold\nalpha = 0.1234\namplitude = 0.9", 1),
    ])
    def test_periodic_orbit_exits_one(self, tmp_path, capsys, count, map_keys, period):
        """An orbit whose point x_count returns within PERIOD_TOL is
        periodic: exit 1, with the smallest such return time as the
        period."""
        text = (f"[experiment]\npipeline = combinatorics\ncount = {count}\n\n"
                f"[map]\n{map_keys}\n")
        rc, _ = _run(tmp_path, text)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"experiment aborted: periodic orbit of period {period}: no "
            f"disjoint arc family at count={count}\n")

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rigid_rational_rotation_reads_its_period(self, data):
        q = data.draw(st.integers(1, 50))
        p = data.draw(st.integers(0, q - 1).filter(lambda p: math.gcd(p, q) == 1))
        count = data.draw(st.integers(q, 200))
        text = COUNT.format(count) + f"[map]\nkind = rigid\nalpha = {p / q!r}\n"
        with pytest.raises(PeriodicOrbitError) as err:
            run_experiment(text)
        assert str(err.value) == (f"periodic orbit of period {q}: no disjoint "
                                  f"arc family at count={count}")

    def test_overlap_past_the_truncation_exits_one(self, tmp_path, capsys):
        """The N = 10 map's wandering arc returns at step 99: a runtime
        outcome of a well-formed config, so exit 1 with one line."""
        text = ("[experiment]\npipeline = combinatorics\ncount = 100\n\n"
                "[map]\nkind = denjoy\nalpha = 0.41421356237309515\nN = 10\n")
        rc, _ = _run(tmp_path, text)
        assert rc == 1
        assert capsys.readouterr().err == (
            "experiment failed: arcs 0 and 99 overlap; the table needs a "
            "pairwise disjoint family\n")

    @pytest.mark.parametrize("message, line", [
        ("", "experiment failed: out of memory\n"),
        ("Unable to allocate 7.45 GiB for an array with\nshape (10**9,)",
         "experiment failed: out of memory: Unable to allocate 7.45 GiB for "
         "an array with shape (10**9,)\n")])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch,
                                     message, line):
        def exhausted(*args):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setitem(cli._STAGES, "combinatorics", exhausted)
        rc, out = _run(tmp_path, COUNT.format(60) + RIGID)
        assert rc == 1
        assert capsys.readouterr().err == line
        assert not out.exists()

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
        assert set(rep["per_stage"]["crossratio"]) == {"crd_variation",
                                                       "partition_depth"}

    @staticmethod
    def _criterion(map_keys):
        rep = run_experiment("[experiment]\npipeline = full-criterion\n"
                             f"[map]\n{map_keys}\n")
        [verdict] = [v for v in rep.verdicts
                     if v["label"] == "criterion-consistency"]
        return rep.per_stage, verdict

    @pytest.mark.parametrize("map_keys, period", [
        ("kind = rigid\nalpha = 0.25", 4),
        ("kind = rigid\nalpha = 0.618", 500),
        ("kind = arnold\nalpha = 0.1234\namplitude = 0.9", 1),
        ("kind = arnold\nalpha = 0.5\namplitude = 0.3", 2),
    ])
    def test_rational_maps_are_outside_the_criteria(self, map_keys, period):
        stage, verdict = self._criterion(map_keys)
        assert stage["conjugacy"]["kind"] == "rational-rotation"
        assert stage["criterion"]["period"] == period
        assert stage["criterion"]["consistent"] is None
        assert (verdict["verdict"], verdict["qualifier"]) == (
            "not-applicable", f"period={period}")

    @pytest.mark.parametrize("map_keys", [
        "kind = denjoy\nalpha = 0.41421356237309515\nN = 50",
        "kind = arnold\nalpha = 0.41\namplitude = 0.6",
    ])
    def test_irrational_maps_stay_consistent(self, map_keys):
        stage, verdict = self._criterion(map_keys)
        assert stage["conjugacy"]["kind"] != "rational-rotation"
        assert stage["criterion"]["consistent"] is True
        assert verdict["verdict"] == "consistent"


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
COUNT = "[experiment]\npipeline = combinatorics\ncount = {}\n"
COUNT_ERROR = "config error in [experiment]: count must be >= 1, got {}"
#: bad configs whose one stderr line is known to the letter
MESSAGES = {
    COUNT.format(-3) + RIGID: COUNT_ERROR.format(-3),
    COUNT.format(0) + RIGID: COUNT_ERROR.format(0),
    COUNT.format(0) + "[map]\nkind = arnold\nalpha = 0.3\namplitude = 0.5\n":
        COUNT_ERROR.format(0),
    COUNT.format(0) + "[map]\nkind = denjoy\nalpha = 0.41421356237309515\n":
        COUNT_ERROR.format(0),
    "[experiment]\npipeline = rotation\n"
    "[map]\nkind = arnold\nalpha = 0.3\namplitude = 1.0\n":
        "config error in [map]: amplitude 1.0 >= 1: lift derivative reaches "
        "zero, not a diffeomorphism",
    RIGID: "config error: missing [experiment] section",
    "[experiment]\npipeline = rotation\n[map]\nalpha = 0.6\n":
        "config error: [map] needs a kind key",
    "[experiment]\npipeline = rotation\n[map]\nkind = wat\nalpha = 0.6\n":
        "config error: unknown map kind 'wat'",
    ROT + "\n[sweep]\nalpha = ,\n": "config error: [sweep] alpha lists no values",
}


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
        *MESSAGES,
    ])
    def test_bad_configs_exit_two(self, tmp_path, capsys, text):
        rc, _ = _run(tmp_path, text)
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        if text in MESSAGES:
            assert err == MESSAGES[text] + "\n"

    @pytest.mark.parametrize("key, limit", sorted(cli.DEPTH_LIMITS.items()))
    @pytest.mark.parametrize("pipeline", ["variation", "crossratio"])
    def test_depth_over_its_limit_exits_two(self, tmp_path, capsys,
                                            monkeypatch, pipeline, key, limit):
        # a stub stage: the check must come before any estimator allocates
        ran = []
        monkeypatch.setitem(cli._STAGES, pipeline,
                            lambda report, *args: ran.append(args[-1].getint(
                                "experiment", key)))
        text = f"[experiment]\npipeline = {pipeline}\n{key} = {{}}\n" + RIGID
        assert _run(tmp_path, text.format(limit), "at.ini")[0] == 0
        assert ran == [limit]
        capsys.readouterr()
        rc, _ = _run(tmp_path, text.format(limit + 21), "over.ini")
        assert rc == 2
        assert ran == [limit]
        assert capsys.readouterr().err == (
            f"config error in [experiment]: {key} must be <= {limit}, "
            f"got {limit + 21}\n")

    @pytest.mark.parametrize("section, key, limit", [
        ("map", "N", cli.MAX_N), ("experiment", "n", cli.MAX_ORBIT),
        ("experiment", "budget", cli.MAX_ORBIT)])
    def test_limit_comes_before_the_map_is_built(self, tmp_path, capsys,
                                                  monkeypatch, section, key,
                                                  limit):
        # a stub build: no test allocates the map that the limit guards
        built = []

        def build(alpha, N, mass):
            built.append(N)
            raise ValueError("stub build")

        monkeypatch.setattr(cli, "make_denjoy", build)
        sections = {"experiment": "pipeline = conjugacy",
                    "map": "kind = denjoy\nalpha = 0.41421356237309515"}
        sections[section] += f"\n{key} = {{}}"
        text = "".join(f"[{s}]\n{body}\n" for s, body in sections.items())
        assert _run(tmp_path, text.format(limit), "at.ini")[0] == 2
        assert capsys.readouterr().err == "config error in [map]: stub build\n"
        rc, _ = _run(tmp_path, text.format(limit + 1), "over.ini")
        assert rc == 2
        assert built == [limit if key == "N" else 50]
        assert capsys.readouterr().err == (
            f"config error in [{section}]: {key} must be <= {limit}, "
            f"got {limit + 1}\n")

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

    def test_exceeded_budget_warns_once(self, tmp_path, capsys):
        slow = CONJ_DENJOY.replace("budget = 400",
                                   "budget = 2000\nmax_seconds = 0.000001")
        rc, out = _run(tmp_path, slow)
        assert rc == 0
        assert (out / "report.json").exists()
        assert capsys.readouterr().err == (
            "warning: budget exceeded, report incomplete\n")


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("rigid", "arnold", "denjoy", "ex1", "ex2", "ex3"):
        assert name in out


def test_unknown_catalog_action_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "foo"])
    assert exc.value.code == 2
    assert "invalid choice: 'foo'" in capsys.readouterr().err

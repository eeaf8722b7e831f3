"""Orbit profiles, semi-conjugacies and wandering-interval detection."""
import functools
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import _semiconj_reference as reference
import _verdict_reference
from _orbit_reference import orbit_lift_reference
from conftest import SQRT2_M1, count_lift_in_place, counting_lift, smooth_map
from denjoylab import (Arc, CollapsedArcError, DenjoyLabError, PeriodicOrbitError,
                       arc_image, birkhoff_estimate, build_semiconjugacy,
                       conjugacy_verdict, dynamics, interval_orbit, make_denjoy,
                       make_map, omega_gap_profile, orbit_lift,
                       wandering_verdict)
from denjoylab.dynamics import PLATEAU_DOMAIN_FACTOR, PLATEAU_TARGET_FACTOR
from denjoylab.maps import first_overlap
from denjoylab.util import circle_dist, frac

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
QUARTER = {"kind": "rigid", "alpha": 0.25}
GOLDEN_RIGID = {"kind": "rigid", "alpha": GOLDEN}
#: mode-locked at period 2: x_w closes
LOCKED = {"kind": "arnold", "alpha": 0.5, "amplitude": 0.3}
W = dynamics.PERIOD_WINDOW


class TestIntervalOrbit:
    def test_rotation_translates_the_arc(self):
        f = make_map(QUARTER)
        arcs = interval_orbit(f, Arc(0.0, 0.1), 3)
        assert len(arcs) == 3
        assert [a.start for a in arcs] == pytest.approx([0.25, 0.5, 0.75])
        assert all(a.length == pytest.approx(0.1) for a in arcs)


class TestWanderingVerdict:
    def test_disjoint_until_the_circle_fills(self):
        f = make_map(QUARTER)
        ok = wandering_verdict(f, Arc(0.0, 0.1), 3)
        assert ok.kind == "wandering-up-to-n"
        clash = wandering_verdict(f, Arc(0.0, 0.1), 4)
        assert clash.kind == "overlap-at"
        assert clash.pair == (0, 4)

    def test_denjoy_images_stay_disjoint(self, denjoy50):
        v = wandering_verdict(denjoy50.base, denjoy50.wandering_arc, 50)
        assert v.kind == "wandering-up-to-n"
        assert v.min_length > 0.0

    def test_scan_stops_at_a_collapsed_image(self):
        # a contracting Arnold map with a fixed point: image 21 of the arc
        # has lift endpoints one ulp apart in the wrong order
        f = make_map({"kind": "arnold", "alpha": 0.04875771072716806,
                      "amplitude": 0.8992585035585643})
        assert conjugacy_verdict(f, 1000).period == 1
        arc = Arc(0.1, 0.101)
        images = [arc] + interval_orbit(f, arc, 20)
        with pytest.raises(CollapsedArcError):
            arc_image(f, images[-1])
        v = wandering_verdict(f, arc, 50)
        assert v.kind == "overlap-at"
        assert v.pair == first_overlap(images, dynamics.WANDERING_TOL)
        assert v.min_length == 0.0

    def test_full_turn_image_is_a_collapsed_arc(self):
        # the arc holds the repelling fixed point: image 36 has length
        # 1 - 7e-16, and the lift span of image 37 is exactly 1.0
        f = make_map({"kind": "arnold", "alpha": 0.99, "amplitude": 0.7})
        arc = Arc(0.0, 0.02)
        assert interval_orbit(f, arc, 36)[-1].length == 0.9999999999999993
        with pytest.raises(CollapsedArcError, match="collapsed: lift endpoints "
                           "1.485695032925395, 2.485695032925395") as err:
            interval_orbit(f, arc, 40)
        assert isinstance(err.value, DenjoyLabError)  # a stage exits 1, not 2
        v = wandering_verdict(f, arc, 40)
        assert v.kind == "overlap-at" and v.min_length == 0.0


    def test_clashing_images_are_no_wandering_evidence(self):
        # alpha = 0.1 <= 0.9 / 2 pi: the map has a fixed point, so no arc
        # wanders, though the images shrink to nothing before they clash
        f = make_map({"kind": "arnold", "alpha": 0.1, "amplitude": 0.9})
        assert conjugacy_verdict(f, 1000).period == 1
        for n in (50, 200):
            v = wandering_verdict(f, Arc(0.3, 0.31), n)
            assert v.kind == "overlap-at"
            assert v.min_length == 0.0


class TestOmegaGapProfile:
    def test_irrational_rotation_fills_in(self, golden_rotation):
        prof = omega_gap_profile(golden_rotation, 0.1, n=800)
        assert prof.verdict == "dense-like"
        assert prof.max_gap < 8.0 / 800
        # gap trend shrinks as the sample grows
        gaps = [g for _, g in prof.gap_trend]
        assert gaps[-1] <= gaps[0]

    def test_rational_rotation_reports_period(self):
        f = make_map({"kind": "rigid", "alpha": 1.0 / 3.0})
        prof = omega_gap_profile(f, 0.05, n=300)
        assert prof.verdict == "periodic-like"
        assert prof.periodicity == 3

    def test_denjoy_leaves_gaps(self, denjoy50):
        prof = omega_gap_profile(denjoy50.base, denjoy50.cantor_anchor,
                                 n=1000)
        assert prof.verdict == "Cantor-like"
        assert prof.max_gap > 20.0 / 1000


class TestSemiConjugacy:
    def test_rotation_reconstructs_itself(self, golden_rotation):
        semi = build_semiconjugacy(golden_rotation, 0.1, 1000)
        assert abs(semi.alpha - GOLDEN) <= 2.0 / 1000
        assert semi.defect <= 4.0 / 1000
        assert semi.plateaus == ()
        # h is monotone and degree one
        xs = np.linspace(0.0, 1.0, 257)
        h = semi.interpolant(xs)
        assert np.all(np.diff(h) >= -1e-12)
        assert semi.interpolant(0.3 + 1.0) == pytest.approx(
            semi.interpolant(0.3) + 1.0, abs=1e-12)

    def test_conjugacy_equation_at_knots(self, golden_rotation):
        n = 500
        semi = build_semiconjugacy(golden_rotation, 0.1, n)
        for x in (0.1, float(frac(0.1 + GOLDEN)), 0.55):
            lhs = semi.interpolant(float(golden_rotation.lift_eval(x)))
            rhs = semi.interpolant(x) + semi.alpha
            assert circle_dist(lhs, rhs) <= semi.defect + 1e-9

    def test_rational_rotation_raises_with_period(self):
        f = make_map({"kind": "rigid", "alpha": 0.2})
        with pytest.raises(PeriodicOrbitError) as err:
            build_semiconjugacy(f, 0.3, 500)
        assert err.value.period == 5

    def test_denjoy_exhibits_plateaus_at_insertions(self, denjoy50):
        n = 1000
        semi = build_semiconjugacy(denjoy50.base, denjoy50.cantor_anchor, n)
        assert semi.defect <= 4.0 / n
        assert len(semi.plateaus) >= 5
        for arc, flatness in semi.plateaus:
            # detector demands target gap < 8/n over domain gap > 10/n
            assert flatness < 0.8
            hit = any(
                arc.contains(denjoy50.insertion_arc(m).midpoint(), tol=1e-9)
                for m in range(-denjoy50.truncation, denjoy50.truncation + 1))
            assert hit, f"plateau {arc} covers no inserted arc"
        covered = [arc for arc, _ in semi.plateaus
                   if arc.contains(denjoy50.wandering_arc.midpoint())]
        assert covered, "the wandering arc itself must sit under a plateau"


class TestConjugacyVerdict:
    def test_denjoy(self, denjoy50):
        v = conjugacy_verdict(denjoy50, 1000)
        assert v.kind == "wandering-interval-found"
        assert v.arc is not None
        assert v.arc.contains(denjoy50.wandering_arc.midpoint())

    def test_irrational_rotation(self, golden_rotation):
        v = conjugacy_verdict(golden_rotation, 2000)
        assert v.kind == "conjugate-evidence"
        assert v.arc is None

    def test_rational_rotation(self):
        f = make_map({"kind": "rigid", "alpha": 0.25})
        v = conjugacy_verdict(f, 500)
        assert v.kind == "rational-rotation"
        assert v.period == 4

    def test_budget_floor(self, golden_rotation):
        with pytest.raises(ValueError):
            conjugacy_verdict(golden_rotation, 99)


def _arnold(alpha, amplitude):
    return make_map({"kind": "arnold", "alpha": alpha, "amplitude": amplitude})


class TestPeriodTest:
    """x_w against its own returns, w = min(budget, PERIOD_WINDOW)."""

    @pytest.mark.parametrize("budget", [1000, 10_000])
    @pytest.mark.parametrize("alpha, amplitude, period", [
        (0.5, 0.3, 2), (0.5034, 0.393, 2), (0.0539, 0.345, 1), (0.079, 0.5, 1)])
    def test_mode_locked_arnold_maps_close(self, alpha, amplitude, period,
                                           budget):
        # x_200 is still more than PERIOD_TOL off each attracting cycle
        v = conjugacy_verdict(_arnold(alpha, amplitude), budget)
        assert (v.kind, v.period) == ("rational-rotation", period)

    @pytest.mark.parametrize("amplitude", [0.3, 0.5, 0.9])
    def test_inside_the_zero_tongue_reads_period_one(self, amplitude):
        # F - id ranges over [alpha - a/2pi, alpha + a/2pi]: a fixed point
        # for r = alpha 2pi / a <= 1
        start = time.perf_counter()
        for r in np.arange(50, 100) / 100:
            f = _arnold(r * amplitude / (2.0 * math.pi), amplitude)
            for budget in (1000, 10_000):
                v = conjugacy_verdict(f, budget)
                assert (v.kind, v.period) == ("rational-rotation", 1), (r, budget)
        assert time.perf_counter() - start < 10.0

    def test_rigid_period_survives_a_long_budget(self):
        # x_w stays below lift magnitude PERIOD_WINDOW; near x_n (6e4) the
        # 500 steps of 0.618 round by more than PERIOD_TOL
        v = conjugacy_verdict(make_map({"kind": "rigid", "alpha": 0.618}), 100_000)
        assert (v.kind, v.period) == ("rational-rotation", 500)

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           amplitude=st.floats(0.0, 0.9))
    def test_a_period_is_a_periodic_orbit(self, alpha, amplitude):
        f = _arnold(alpha, amplitude)
        v = conjugacy_verdict(f, 1000)
        if v.kind != "rational-rotation":
            return
        assert _has_a_cycle_of_period(f, v.period)


def _has_a_cycle_of_period(f, q):
    """Whether F^q - id - p reaches within PERIOD_TOL of 0 from both sides
    on a 1 025-point grid, for some integer p: then the circle map has a
    point of period dividing q.  Each step is taken on the point mod 1 and
    its integer part kept apart, so q steps round as near 1, not near the
    lift magnitude q F reaches (about 6e3 for rigid 0.6167 at q = 10 000,
    where the rounding would pass PERIOD_TOL)."""
    grid = np.linspace(0.0, 1.0, 1025)
    image, whole = grid, np.zeros_like(grid)
    for _ in range(q):
        image = f.lift_eval(image)
        step = np.floor(image)
        image, whole = image - step, whole + step
    disp = image - grid + whole
    p = math.ceil(disp.min() - dynamics.PERIOD_TOL)
    return p <= disp.max() + dynamics.PERIOD_TOL


def _tied_neighbours(f, x0, n):
    """The index gaps of the tied neighbours among the stably sorted
    circle positions x_0 .. x_(n-1) of the orbit of x0."""
    pts = frac(orbit_lift(f, x0, n)[:n])
    order = np.argsort(pts, kind="stable")
    tied = np.flatnonzero(np.diff(pts[order]) == 0.0)
    return order[tied + 1] - order[tied]


_TIE_POOL = [0.0, -0.0, 0.125, 0.25, 0.375]
tied_positions = st.lists(st.sampled_from(_TIE_POOL), min_size=1, max_size=300)
distinct_positions = st.lists(st.floats(-0.0, 0.4), min_size=1, max_size=300,
                              unique=True)


def _period_test_on(pts):
    """``_orbit_and_period`` on the circle positions pts, fed in through a
    stub orbit that ends at 0.7: no displacement x_n - x_k closes, so the
    positions go straight to the exact-repeat witness."""
    orbit = np.append(pts, 0.7)
    with mock.patch.object(dynamics, "orbit_lift", lambda f, x0, m: orbit[:m + 1]), \
            mock.patch.object(dynamics, "frac", lambda x: x):
        return dynamics._orbit_and_period(None, 0.0, pts.size)


@settings(max_examples=60)
@given(st.one_of(tied_positions, distinct_positions))
def test_period_test_order_is_the_stable_argsort(positions):
    pts = np.array(positions)
    test = _period_test_on(pts)
    stable = np.argsort(pts, kind="stable")
    assert np.array_equal(test.order, stable)
    ranked = pts[stable]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    period = int(np.min(stable[tied + 1] - stable[tied])) if tied.size else None
    assert (test.period, test.witness) == (
        period, dynamics.EXACT_REPEAT if tied.size else None)


def test_signed_zeros_count_as_a_tie():
    pts = np.array([0.0, -0.0, 0.25] * 40)
    test = _period_test_on(pts)
    assert np.array_equal(test.order, np.argsort(pts, kind="stable"))
    assert test.period == 1


class TestExactRepeatWitness:
    """A period from exact float repeats, where x_w does not close."""

    @pytest.mark.parametrize("recipe, budget, ties, period", [
        ({"kind": "arnold", "alpha": 0.7345873954837637,
          "amplitude": 0.8930492095305911}, 10_000, 7418, 17),
        ({"kind": "arnold", "alpha": 0.4435995803815806,
          "amplitude": 0.8319394050063478}, 10_000, 2181, 9),
        ({"kind": "arnold", "alpha": 0.8696381506786792,
          "amplitude": 0.7223246990531371}, 10_000, 5005, 16),
        ({"kind": "rigid", "alpha": 0.6167}, 100_000, 3, 10_000),
    ])
    def test_repeating_orbits_read_their_period(self, recipe, budget, ties,
                                                period):
        f = make_map(recipe)
        gaps = _tied_neighbours(f, dynamics.DEFAULT_ANCHOR, budget)
        assert (gaps.size, gaps.min()) == (ties, period)
        v = conjugacy_verdict(f, budget)
        assert (v.kind, v.period, v.detail) == (
            "rational-rotation", period, dynamics.EXACT_REPEAT)
        assert v.profile.periodicity == period
        with pytest.raises(PeriodicOrbitError) as err:
            build_semiconjugacy(f, dynamics.DEFAULT_ANCHOR, budget)
        assert err.value.period == period
        # the float cycle is backed by a cycle of the map
        assert _has_a_cycle_of_period(f, period)

    @pytest.mark.parametrize("recipe, budget, period", [
        (QUARTER, 1000, 4), ({"kind": "rigid", "alpha": 0.618}, 10_000, 500),
        (LOCKED, 10_000, 2)])
    def test_closed_displacements_keep_their_witness(self, recipe, budget,
                                                     period):
        v = conjugacy_verdict(make_map(recipe), budget)
        assert (v.kind, v.period, v.detail) == (
            "rational-rotation", period, dynamics.CLOSED_DISPLACEMENT)

    def test_aperiodic_orbits_have_no_tie(self, denjoy50):
        f = _arnold(0.3, 0.3)
        x0 = dynamics.DEFAULT_ANCHOR
        assert _tied_neighbours(f, x0, 10_000).size == 0
        assert dynamics._orbit_and_period(f, x0, 10_000).period is None
        x0 = denjoy50.cantor_anchor
        assert _tied_neighbours(denjoy50.base, x0, 1000).size == 0
        test = dynamics._orbit_and_period(denjoy50.base, x0, 1000)
        assert test.period is None


@pytest.fixture
def orbit_calls(monkeypatch):
    """Lengths n of every orbit_lift(diffeo, x0, n) that dynamics makes."""
    calls = []
    real = dynamics.orbit_lift

    def counting(diffeo, x0, n):
        calls.append(n)
        return real(diffeo, x0, n)

    monkeypatch.setattr(dynamics, "orbit_lift", counting)
    return calls


class TestVerdictAgainstTheEagerReference:
    """The verdict that stops at the window and builds its profile on read,
    against a copy that iterates the whole budget first."""

    @settings(max_examples=40, deadline=None)
    @given(smooth_map(), st.integers(100, 20_000), st.booleans())
    def test_verdict_semiconjugacy_and_profile_match(self, f, budget,
                                                      replace_slot):
        v = conjugacy_verdict(f, budget)
        if replace_slot:
            orbit_lift(f, 0.5, 10)
        profile = v.profile
        want, ref, want_profile = _verdict_reference.conjugacy_verdict(
            f, budget)
        assert repr((v.kind, v.period, v.detail, v.arc)) == repr(want)
        assert repr(profile) == repr(want_profile)
        if ref is None:
            assert v.semi is None
        else:
            assert _same_as_reference(v.semi, profile, ref, want_profile)


def _counted(recipe):
    """A new map, so no stored orbit matches, whose lift records its calls
    in place (no ``lift_eval.orbit``: one call per orbit step)."""
    f = make_map(recipe)
    return f, count_lift_in_place(f)


class TestOneOrbitPerCall:
    """Orbit requests, and the lift evaluations they cost: the period test
    asks for x_w, w = min(n, PERIOD_WINDOW), then for x_n on the same
    orbit when x_w does not close."""

    def test_semiconjugacy_iterates_once(self, denjoy50, orbit_calls):
        build_semiconjugacy(denjoy50.base, denjoy50.cantor_anchor, 1000)
        # the period test reads the n-step orbit itself: n = w
        assert orbit_calls == [1000]

    def test_aperiodic_semiconjugacy_evaluates_n_lifts(self, orbit_calls):
        f, lifts = _counted(GOLDEN_RIGID)
        build_semiconjugacy(f, 0.1, 5000)
        assert orbit_calls == [W, 5000]
        assert len(lifts) == 5000

    def test_gap_profile_iterates_once(self, orbit_calls):
        f, lifts = _counted(GOLDEN_RIGID)
        omega_gap_profile(f, 0.1, n=5000)
        assert orbit_calls == [W, 5000]
        assert len(lifts) == 5000

    def test_plateau_free_verdict_iterates_once(self, orbit_calls):
        f, lifts = _counted(GOLDEN_RIGID)
        v = conjugacy_verdict(f, 2000)
        assert v.semi.plateaus == ()
        assert orbit_calls == [W, 2000]
        assert len(lifts) == 2000
        # the profile is read from the verdict's own positions
        assert v.profile.verdict == "dense-like"
        assert orbit_calls == [W, 2000]
        assert len(lifts) == 2000

    def test_rational_verdict_iterates_the_window(self, orbit_calls):
        f, lifts = _counted(LOCKED)
        v = conjugacy_verdict(f, 10_000)
        assert (v.kind, v.period) == ("rational-rotation", 2)
        assert orbit_calls == [W]
        assert len(lifts) == W
        # the first read of the profile extends the stored orbit to n
        profile = v.profile
        assert orbit_calls == [W, 10_000]
        assert len(lifts) == 10_000
        assert v.profile is profile
        assert profile == omega_gap_profile(f, dynamics.DEFAULT_ANCHOR, 10_000)
        assert len(lifts) == 10_000

    def test_rational_profile_reads_again_past_a_replaced_slot(self):
        f, lifts = _counted(LOCKED)
        v = conjugacy_verdict(f, 10_000)
        orbit_lift(f, 0.3, 500)
        assert len(lifts) == W + 500
        # the slot holds x0 = 0.3 now: the profile iterates all n again
        profile = v.profile
        assert len(lifts) == W + 500 + 10_000
        orbit = orbit_lift_reference(make_map(LOCKED), dynamics.DEFAULT_ANCHOR,
                                     10_000)
        assert repr(profile) == repr(reference._gap_profile(orbit, 2, 10_000))

    def test_rational_semiconjugacy_raises_after_the_window(self,
                                                            orbit_calls):
        f, lifts = _counted(LOCKED)
        with pytest.raises(PeriodicOrbitError):
            build_semiconjugacy(f, dynamics.DEFAULT_ANCHOR, 10_000)
        assert orbit_calls == [W]
        assert len(lifts) == W

    def test_alpha_is_the_birkhoff_estimate(self, denjoy50, golden_rotation):
        for diffeo, x0, n in ((denjoy50.base, denjoy50.cantor_anchor, 1000),
                              (golden_rotation, 0.1, 777)):
            assert (build_semiconjugacy(diffeo, x0, n).alpha
                    == birkhoff_estimate(diffeo, x0, n).value)

    def test_defect_matches_the_knot_loop(self, denjoy50):
        arnold = make_map({"kind": "arnold", "alpha": 0.41, "amplitude": 0.6})
        for diffeo, x0, n in ((denjoy50.base, denjoy50.cantor_anchor, 1000),
                              (arnold, 0.2, 600)):
            semi = build_semiconjugacy(diffeo, x0, n)
            t = [target for _, target in semi.knots]
            ref = 0.0
            for k in range(n - 1):
                ref = max(ref, circle_dist(t[k + 1], t[k] + semi.alpha))
            x_n = float(frac(orbit_lift(diffeo, x0, n)[n]))
            ref = max(ref, circle_dist(semi.interpolant(x_n),
                                       t[n - 1] + semi.alpha))
            assert semi.defect == ref

    def test_knots_and_plateau_starts_match_the_loops(self, denjoy50):
        arnold = make_map({"kind": "arnold", "alpha": 0.3, "amplitude": 0.3})
        for diffeo, x0, n in ((denjoy50.base, denjoy50.cantor_anchor, 1000),
                              (arnold, 0.1234567891, 10_000)):
            semi = build_semiconjugacy(diffeo, x0, n)
            pts = frac(orbit_lift(diffeo, x0, n)[:n])
            assert [p for p, _ in semi.knots] == [float(p) for p in pts]
            assert all(type(p) is type(t) is float for p, t in semi.knots)
            dom = np.diff(np.append(semi._domain, semi._domain[0] + 1.0))
            tgt = np.diff(np.append(semi._target, semi._target[0] + 1.0))
            flat = ((tgt < PLATEAU_TARGET_FACTOR / n)
                    & (dom > PLATEAU_DOMAIN_FACTOR / n))
            starts = [i for i in range(n) if flat[i] and not flat[(i - 1) % n]]
            assert starts
            assert ([arc.start for arc, _ in semi.plateaus]
                    == [float(semi._domain[i]) for i in starts])

    def test_birkhoff_reads_the_semiconjugacy_orbit(self, golden_rotation):
        m, lifts = counting_lift(golden_rotation)
        n, x0 = 2000, 0.15
        build_semiconjugacy(m, x0, n)
        assert len(lifts) == n
        birkhoff_estimate(m, x0, n)
        assert len(lifts) == n
        birkhoff_estimate(m, x0, n + 500)
        assert len(lifts) == n + 500

    def test_knots_match_the_eager_tuple(self, denjoy50):
        arnold = make_map({"kind": "arnold", "alpha": 0.41, "amplitude": 0.6})
        for diffeo, x0, n in ((denjoy50.base, denjoy50.cantor_anchor, 1000),
                              (arnold, 0.2, 600)):
            semi = build_semiconjugacy(diffeo, x0, n)
            pts = frac(orbit_lift(diffeo, x0, n)[:n])
            rank = np.argsort(np.argsort(pts))
            targets = np.sort(frac(np.arange(n) * semi.alpha))
            knot_targets = targets[(rank - rank[0]) % n]
            assert semi.knots == tuple(zip(pts.tolist(), knot_targets.tolist()))
            assert all(type(v) is float for knot in semi.knots for v in knot)

    def test_verdict_hands_back_its_semiconjugacy(self, denjoy50):
        semi = conjugacy_verdict(denjoy50, 1000).semi
        ref = build_semiconjugacy(denjoy50.base, denjoy50.cantor_anchor, 1000)
        for name in ("anchor", "alpha", "knots", "defect", "plateaus"):
            assert getattr(semi, name) == getattr(ref, name)
        assert np.array_equal(semi._domain, ref._domain)
        assert np.array_equal(semi._target, ref._target)

    def test_rational_verdict_has_no_semiconjugacy(self):
        v = conjugacy_verdict(make_map(QUARTER), 500)
        assert v.kind == "rational-rotation"
        assert v.semi is None

    def test_verdict_hands_back_its_gap_profile(self, denjoy50,
                                                golden_rotation, orbit_calls):
        quarter = make_map(QUARTER)
        anchor = dynamics.DEFAULT_ANCHOR
        for target, diffeo, x0, n, asked, read in (
                (denjoy50, denjoy50.base, denjoy50.cantor_anchor, 1000,
                 [1000], []),
                (golden_rotation, golden_rotation, anchor, 2000, [W, 2000], []),
                # x_w closed at w = n: the read takes x_n from the slot
                (quarter, quarter, anchor, 500, [500], [500])):
            orbit_calls.clear()
            v = conjugacy_verdict(target, n)
            # one anchor orbit per verdict, whatever its kind
            assert orbit_calls == asked
            profile = v.profile
            assert orbit_calls == asked + read
            assert profile == omega_gap_profile(diffeo, x0, n)
        assert v.profile.verdict == "periodic-like"
        assert v.profile.periodicity == v.period == 4


_ARGSORT = np.argsort


def _fingerprint(semi, profile):
    """Everything the semi-conjugacy and gap profile hold, as reprs and
    array bytes, so a float of another type or bit pattern shows."""
    return (repr(semi), repr(semi.plateaus), repr(profile),
            *(a.tobytes() for a in (semi._domain, semi._target, semi._points,
                                    semi._knot_targets, semi._plateau_lo,
                                    semi._plateau_hi, semi._flatness)))


def _same_as_reference(semi, profile, ref, ref_profile):
    """Whether a semi-conjugacy and gap profile give the bits of the
    reference's (semi-conjugacy, plateaus) pair and profile, the plateaus
    read against the reference loop's own tuple."""
    ref_semi, ref_plateaus = ref
    return (_fingerprint(semi, profile) == _fingerprint(ref_semi, ref_profile)
            and repr(semi.plateaus) == repr(ref_plateaus))


def _semi(orbit, x0, n):
    """_semiconjugacy of an n-step orbit, sorted as _orbit_and_period
    sorts it."""
    pts = frac(orbit[:n + 1])
    order = np.argsort(pts[:n], kind="stable")
    return dynamics._semiconjugacy(orbit, pts, order, x0, n)


def _anchor_case(diffeo, x0, n):
    """(orbit, period, x0, n): the n-step orbit of x0 from orbit_lift and
    the period _orbit_and_period reads on it."""
    return (orbit_lift(diffeo, x0, n),
            dynamics._orbit_and_period(diffeo, x0, n).period, x0, n)


def _matches_reference(orbit, period, x0, n):
    """Whether the whole-array semi-conjugacy and gap profile of an n-step
    orbit give the reference's bits.  The reference sorts with the default
    kind; here its sort is stable, which changes nothing on an orbit
    without repeats and breaks ties by orbit index as _semiconjugacy
    does."""
    got = (_semi(orbit, x0, n),
           dynamics._gap_profile(frac(orbit[:n + 1]), period, n))
    with mock.patch.object(np, "argsort",
                           functools.partial(_ARGSORT, kind="stable")):
        want = (reference._semiconjugacy(orbit, x0, n),
                reference._gap_profile(orbit, period, n))
    return _same_as_reference(*got, *want)


def _reference_run_sums(flat, gaps):
    """The reference's plateau loop, kept to its run walk and span sum."""
    n = len(flat)
    sums = []
    for i in np.flatnonzero(flat & ~np.roll(flat, 1)).tolist():
        j = i
        while flat[(j + 1) % n]:
            j += 1
        members = [(i + k) % n for k in range(j - i + 1)]
        sums.append(float(np.sum(gaps[members])))
    return sums


def _run_sums_match_reference(flat, gaps):
    starts, ends = dynamics._circular_runs(flat)
    got = dynamics._run_sums(gaps, starts, ends)
    return got.tobytes() == np.array(_reference_run_sums(flat, gaps)).tobytes()


#: runs of 4 (wrapping past index 0), 1, 2, 3, 8 and 185 gaps
RUNS = [[9998, 9999, 0, 1], [100], [200, 201], [300, 301, 302],
        list(range(400, 408)), list(range(1000, 1185))]


def _flat(runs, n=10_000):
    flat = np.zeros(n, dtype=bool)
    flat[np.concatenate(runs)] = True
    return flat


def _random_gaps(n=10_000):
    return np.random.default_rng(29).uniform(0.5, 1.5, n) / n


def _synthetic_orbit():
    """A 10 000-step orbit with a golden-mean rotation number whose sorted
    positions leave gaps wider than 10/n exactly at RUNS; the rigid
    targets are nowhere farther apart than 3/n, so those runs are the
    plateaus."""
    n = 10_000
    rng = np.random.default_rng(29)
    gaps = rng.uniform(0.5, 1.0, n)
    wide = np.concatenate(RUNS)
    gaps[wide] = rng.uniform(11.0, 14.0, wide.size)
    gaps /= gaps.sum()
    domain = 0.5 * gaps[-1] + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    orbit = rng.permutation(domain)
    return np.append(orbit, orbit[0] + n * GOLDEN), None, orbit[0], n


@functools.lru_cache(maxsize=None)
def _fixed_target(name):
    """The map a named fixed case iterates, as conjugacy_verdict takes it."""
    if name == "arnold-0.3-0.3":
        return _arnold(0.3, 0.3)
    return make_denjoy(SQRT2_M1, N=int(name.split("-")[1]), mass=0.5)


@functools.lru_cache(maxsize=None)
def _fixed_case(name):
    """(orbit, period, x0, n) of a named fixed case: the anchor orbit its
    verdict reads, at budget 10 000 for Arnold and 1 000 for Denjoy."""
    if name == "synthetic":
        return _synthetic_orbit()
    target = _fixed_target(name)
    diffeo = getattr(target, "base", target)
    x0 = dynamics._orbit_start(target)
    n = 10_000 if name.startswith("arnold") else 1000
    return _anchor_case(diffeo, x0, n)


FIXED_CASES = ["arnold-0.3-0.3", "denjoy-30", "denjoy-50", "denjoy-100",
               "synthetic"]


class TestWholeArrayForm:
    """The semi-conjugacy and gap profile against the reference loops."""

    @settings(max_examples=40, deadline=None)
    @given(smooth_map(), st.floats(-3.0, 3.0),
           st.sampled_from([100, 1000, 10_000]))
    def test_smooth_maps_match_the_reference(self, f, x0, n):
        assert _matches_reference(*_anchor_case(f, x0, n))

    @pytest.mark.parametrize("name", FIXED_CASES)
    def test_fixed_cases_match_the_reference(self, name):
        assert _matches_reference(*_fixed_case(name))

    @settings(max_examples=40, deadline=None)
    @given(smooth_map(), st.sampled_from([100, 1000, 10_000]))
    def test_verdict_profile_matches_the_reference(self, f, n):
        orbit, period, _, _ = _anchor_case(f, dynamics.DEFAULT_ANCHOR, n)
        assert (repr(conjugacy_verdict(f, n).profile)
                == repr(reference._gap_profile(orbit, period, n)))

    @pytest.mark.parametrize("name", ["arnold-0.3-0.3", "denjoy-30",
                                      "denjoy-50", "denjoy-100"])
    def test_fixed_verdicts_match_the_reference(self, name):
        orbit, period, x0, n = _fixed_case(name)
        v = conjugacy_verdict(_fixed_target(name), n)
        assert repr(v.profile) == repr(reference._gap_profile(orbit, period, n))
        assert _same_as_reference(v.semi, v.profile,
                                  reference._semiconjugacy(orbit, x0, n),
                                  v.profile)

    def test_verdict_probes_longest_first_ties_in_run_order(
            self, denjoy50, monkeypatch):
        # every probe overlaps, so the verdict probes all 11 plateaus of
        # the anchor orbit; two of them have the same length
        probed = []

        def overlapping(diffeo, arc, n):
            probed.append(arc)
            return dynamics.WanderingVerdict("overlap-at", pair=(0, 1))

        monkeypatch.setattr(dynamics, "wandering_verdict", overlapping)
        v = conjugacy_verdict(denjoy50, 1000)
        assert v.kind == "conjugate-evidence"
        ranked = [arc for arc, _ in sorted(v.semi.plateaus,
                                           key=lambda p: -p[0].length)]
        assert len({arc.length for arc in ranked}) == len(ranked) - 1
        assert probed == [
            Arc(a.start + 0.25 * a.length, a.start + 0.75 * a.length)
            for a in ranked]

    @pytest.mark.parametrize("name", FIXED_CASES)
    def test_plateau_count_reads_the_arrays(self, name):
        orbit, _, x0, n = _fixed_case(name)
        semi = _semi(orbit, x0, n)
        assert type(semi.plateau_count) is int
        assert semi.plateau_count == len(semi.plateaus) > 0

    def test_fixed_cases_hold_the_runs_they_name(self):
        orbit, _, x0, n = _fixed_case("arnold-0.3-0.3")
        assert len(_semi(orbit, x0, n).plateaus) == 575
        orbit, _, x0, n = _fixed_case("synthetic")
        semi = _semi(orbit, x0, n)
        # knots strictly inside each plateau arc: one fewer than its gaps
        inside = [int(np.sum([arc.contains(p) for p in semi._domain])) - 2
                  for arc, _ in semi.plateaus]
        assert inside == [len(r) - 1 for r in RUNS[1:] + RUNS[:1]]
        assert [arc.end < arc.start for arc, _ in semi.plateaus] == [
            False] * 5 + [True]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), min_size=2, max_size=300).filter(
        lambda flat: not all(flat)), st.data())
    def test_run_sums_match_the_reference_loop(self, flat, data):
        gaps = np.array(data.draw(st.lists(
            st.floats(1e-6, 1.0), min_size=len(flat), max_size=len(flat))))
        assert _run_sums_match_reference(np.array(flat), gaps)

    def test_run_sums_on_fixed_runs(self):
        assert _run_sums_match_reference(_flat(RUNS), _random_gaps())

    def test_reduceat_spans_fail_the_property(self, monkeypatch):
        # orbit gaps are differences of sorted floats, whose run sums come
        # out the same in either order; random gaps show the order
        def reduceat_sums(gaps, starts, ends):
            lengths = (ends - starts) % gaps.size + 1
            bounds = np.stack([starts, starts + lengths], axis=1).ravel()
            return np.add.reduceat(np.concatenate([gaps, gaps]), bounds)[::2]

        monkeypatch.setattr(dynamics, "_run_sums", reduceat_sums)
        assert not _run_sums_match_reference(_flat(RUNS), _random_gaps())

    def test_exact_repeats_pair_in_orbit_order(self):
        # 2 582 distinct points on the 10 000-step anchor orbit
        f = _arnold(0.7345873954837637, 0.8930492095305911)
        orbit, period, x0, n = _anchor_case(f, 3.5, 3000)
        assert np.unique(frac(orbit[:3000])).size < 3000
        assert period == 17
        assert _matches_reference(orbit, period, 3.5, 3000)
        # 0.011648892294727542 in the order of one CPU's default sort
        assert _semi(orbit, x0, n).defect == 0.012001889030971657

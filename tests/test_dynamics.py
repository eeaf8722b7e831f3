"""Orbit profiles, semi-conjugacies and wandering-interval detection."""
import math

import numpy as np
import pytest

from conftest import counting_lift
from denjoylab import (Arc, CollapsedArcError, PeriodicOrbitError, arc_image,
                       birkhoff_estimate, build_semiconjugacy,
                       conjugacy_verdict, dynamics, interval_orbit, make_map,
                       omega_gap_profile, orbit_lift, wandering_verdict)
from denjoylab.dynamics import PLATEAU_DOMAIN_FACTOR, PLATEAU_TARGET_FACTOR
from denjoylab.maps import first_overlap
from denjoylab.util import circle_dist, frac

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
QUARTER = {"kind": "rigid", "alpha": 0.25}


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


class TestOneOrbitPerCall:
    def test_semiconjugacy_iterates_once(self, denjoy50, orbit_calls):
        build_semiconjugacy(denjoy50.base, denjoy50.cantor_anchor, 1000)
        # burn-in 200 plus the period budget 1000
        assert orbit_calls == [1200]

    def test_gap_profile_iterates_once(self, golden_rotation, orbit_calls):
        omega_gap_profile(golden_rotation, 0.1, n=5000)
        assert orbit_calls == [5000]

    def test_plateau_free_verdict_iterates_once(self, golden_rotation,
                                                orbit_calls):
        v = conjugacy_verdict(golden_rotation, 2000)
        assert v.semi.plateaus == ()
        assert orbit_calls == [2000]

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
        for target, diffeo, x0, n in (
                (denjoy50, denjoy50.base, denjoy50.cantor_anchor, 1000),
                (golden_rotation, golden_rotation, anchor, 2000),
                (quarter, quarter, anchor, 500)):
            orbit_calls.clear()
            v = conjugacy_verdict(target, n)
            # one anchor orbit per verdict, whatever its kind
            assert len(orbit_calls) == 1
            assert v.profile == omega_gap_profile(diffeo, x0, n)
        assert v.profile.verdict == "periodic-like"
        assert v.profile.periodicity == v.period == 4

"""Cross ratios, their log identity and distortion bounds."""
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from denjoylab import (Arc, CircleDiffeo, DegenerateTupleError, FourTuple,
                       NonMonotoneMapError, OverlappingArcsError, arc_image,
                       crd_variation_estimate, cross_ratios, decompose_ab,
                       interval_orbit, iterate_distortion_bound,
                       koebe_log_ratio, make_map, term_b_constant)
from denjoylab.crossratio import CRD_BATCH_POINTS, QUAD_TOL
from denjoylab.variation import log_derivative_function

from _crd_reference import crd_variation_reference
from _oracles import compose, delta_and_bound, log_cr_first_quadrature
from _simpson_reference import adaptive_simpson_reference
from conftest import accepted_denjoy, count_lift_in_place

TWO_MINUS_TWO_LOG2 = 2.0 * (1.0 - math.log(2.0))


def _standard(a=0.0, s=0.1):
    return FourTuple(a, a + s, a + 2 * s, a + 3 * s)


class TestFourTuple:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            FourTuple(0.0, 0.3, 0.2, 0.4)

    def test_degenerate_rejected(self):
        # strictly increasing yet numerically collapsed spacing
        with pytest.raises(DegenerateTupleError):
            FourTuple(0.0, 1e-15, 0.1, 0.2)


class TestCrossRatios:
    def test_standard_tuple_first_ratio(self):
        first, _ = cross_ratios(_standard())
        assert first == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_second_ratio_definition(self):
        t = FourTuple(0.0, 0.1, 0.4, 0.5)
        _, second = cross_ratios(t)
        expected = (0.4 - 0.1) * (0.5 - 0.0) / ((0.1 - 0.0) * (0.5 - 0.4))
        assert second == pytest.approx(expected, rel=1e-14)

    def test_affine_invariance(self):
        t = FourTuple(0.05, 0.21, 0.33, 0.58)
        u = FourTuple(*(2.5 * p + 0.3 for p in (0.05, 0.21, 0.33, 0.58)))
        assert cross_ratios(t)[0] == pytest.approx(cross_ratios(u)[0],
                                                   rel=1e-13)

    # narrow gaps put x close to c, where 1/(c - x) is steepest
    @pytest.mark.parametrize("low, high", [(0.05, 0.4), (1e-6, 0.3)],
                             ids=["wide-gaps", "narrow-gaps"])
    def test_log_first_ratio_is_double_integral(self, low, high):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gaps = rng.uniform(low, high, size=3)
            a = rng.uniform(0.0, 0.2)
            pts = a + np.concatenate([[0.0], np.cumsum(gaps)])
            t = FourTuple(*pts)
            quad = log_cr_first_quadrature(t)
            assert quad == pytest.approx(math.log(cross_ratios(t)[0]),
                                         abs=1e-10)


class TestKoebeLogRatio:
    def test_rotation_gives_zero(self, golden_rotation):
        assert koebe_log_ratio(golden_rotation, 0.2, 0.7) == pytest.approx(
            0.0, abs=1e-14)

    def test_square_map_value(self):
        # x^2 is no degree-one lift, but only [1, 2] is read
        sq = CircleDiffeo(lift_eval=lambda x: np.asarray(x, dtype=float) ** 2,
                          lift_derivative=lambda x: 2.0 * np.asarray(x),
                          label="square")
        # log 2 + log 4 - 2 log 3
        assert koebe_log_ratio(sq, 1.0, 2.0) == pytest.approx(
            math.log(8.0 / 9.0), abs=1e-14)

    def test_requires_order(self, golden_rotation):
        with pytest.raises(ValueError):
            koebe_log_ratio(golden_rotation, 0.7, 0.2)

    def test_folding_lift_is_a_named_error(self):
        # x^2 reverses the order of -2 < -1
        sq = CircleDiffeo(lift_eval=lambda x: np.asarray(x, dtype=float) ** 2,
                          lift_derivative=lambda x: 2.0 * np.asarray(x),
                          label="square")
        with pytest.raises(NonMonotoneMapError,
                           match=r"map is not increasing on \(-2\.0, -1\.0\)"):
            koebe_log_ratio(sq, -2.0, -1.0)

    def test_nonpositive_derivative_rejected(self):
        # an increasing lift whose stored derivative reads 0 at x
        flat = CircleDiffeo(lift_eval=lambda x: np.asarray(x, dtype=float),
                            lift_derivative=lambda x: 0.0 * np.asarray(x),
                            label="flat")
        with pytest.raises(ValueError,
                           match="derivative must be positive, got 0.0, 0.0"):
            koebe_log_ratio(flat, 0.2, 0.7)


class TestDecomposition:
    def test_identity_and_bounds(self):
        f = make_map({"kind": "arnold", "alpha": 0.37, "amplitude": 0.7})
        for x, y in ((0.05, 0.3), (0.4, 0.62), (0.7, 0.95)):
            br = decompose_ab(f, x, y)
            assert br.log_koebe == pytest.approx(br.term_a - 2.0 * br.term_b,
                                                 abs=1e-12)
            assert abs(br.term_a) <= br.zv_bound + 1e-12
            assert abs(br.term_b) <= br.qv_bound + 1e-12

    def test_lifts_the_pair_once(self):
        f = make_map({"kind": "arnold", "alpha": 0.37, "amplitude": 0.7})
        pair_lifts = []

        def counting(x):
            if np.ndim(x) == 1 and np.size(x) == 2:
                pair_lifts.append(tuple(np.asarray(x).tolist()))
            return f.lift_eval(x)

        br = decompose_ab(dataclasses.replace(f, lift_eval=counting), 0.05, 0.3)
        assert pair_lifts == [(0.05, 0.3)]
        assert br == decompose_ab(f, 0.05, 0.3)
        assert br.log_koebe == koebe_log_ratio(f, 0.05, 0.3)

    def test_requires_order(self, golden_rotation):
        with pytest.raises(ValueError, match="need x < y"):
            decompose_ab(golden_rotation, 0.7, 0.2)

    def test_terms_keep_the_reference_quadrature_bits(self, denjoy50):
        # the end values of log h' feed both the quadrature and term_a
        home = denjoy50.wandering_arc
        for lo, hi in ((0.1, 0.4), (0.3, 0.9)):
            x, y = home.start + lo * home.length, home.start + hi * home.length
            logd = log_derivative_function(denjoy50.base, x, y)
            avg_log = adaptive_simpson_reference(logd, x, y, tol=QUAD_TOL) / (y - x)
            hx, hy = denjoy50.base.lift_eval(np.array([x, y])).tolist()
            br = decompose_ab(denjoy50.base, x, y)
            assert br.term_a == logd(x) + logd(y) - 2.0 * avg_log
            assert br.term_b == math.log((hy - hx) / (y - x)) - avg_log


class TestDeltaFactor:
    def test_value_at_one(self):
        val, bound = delta_and_bound(1.0, 1.0)
        assert val == pytest.approx(TWO_MINUS_TWO_LOG2, abs=1e-15)
        assert bound == val

    def test_limit_at_zero(self):
        val, _ = delta_and_bound(1e-9, 1e-9)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_decreasing_with_valid_floor(self):
        v1, b1 = delta_and_bound(2.0, 0.5)
        assert v1 < b1
        with pytest.raises(ValueError):
            delta_and_bound(0.5, 0.7)
        with pytest.raises(ValueError):
            delta_and_bound(0.5, -1.0)


def test_term_b_constant_positive_and_reproducible():
    f = make_map({"kind": "arnold", "alpha": 0.23, "amplitude": 0.6})
    c1 = term_b_constant(f, 0.1, 0.35)
    c2 = term_b_constant(f, 0.1, 0.35)
    assert c1 == c2
    assert c1 > 0.0


class TestIterateBound:
    def test_rotation_measures_zero(self, golden_rotation):
        t = FourTuple(0.0, 0.01, 0.02, 0.03)
        arcs = [Arc(0.0, 0.03)]
        for _ in range(4):
            arcs.append(arc_image(golden_rotation, arcs[-1]))
        measured, budget = iterate_distortion_bound(golden_rotation, 5, t,
                                                    arcs[:5])
        assert measured == pytest.approx(0.0, abs=1e-12)
        assert abs(measured) <= budget + 1e-10

    def test_perturbed_map_within_budget(self):
        f = make_map({"kind": "arnold", "alpha": 0.41, "amplitude": 0.5})
        t = FourTuple(0.10, 0.11, 0.12, 0.13)
        arcs = [Arc(0.10, 0.13)]
        for _ in range(4):
            arcs.append(arc_image(f, arcs[-1]))
        measured, budget = iterate_distortion_bound(f, 5, t, arcs[:5])
        assert abs(measured) <= budget + 1e-10

    def test_reassembly_matches_composed_map(self):
        f = make_map({"kind": "arnold", "alpha": 0.41, "amplitude": 0.5})
        t = FourTuple(0.10, 0.11, 0.12, 0.13)
        arcs = [Arc(0.10, 0.13)]
        for _ in range(3):
            arcs.append(arc_image(f, arcs[-1]))
        measured, _ = iterate_distortion_bound(f, 4, t, arcs[:4])
        g = compose(compose(f, f), compose(f, f))
        assert measured == pytest.approx(koebe_log_ratio(g, t.a, t.d),
                                         abs=1e-8)

    def test_measured_equals_the_per_step_loop(self, denjoy50):
        # criterion 09 shape, against the hand-rolled orbit and Koebe sum
        base, home = denjoy50.base, denjoy50.wandering_arc
        s, width = home.start, home.length
        t = FourTuple(s + 0.2 * width, s + 0.4 * width,
                      s + 0.6 * width, s + 0.8 * width)
        arcs = [home] + interval_orbit(base, home, 29)
        measured, _ = iterate_distortion_bound(base, 30, t, arcs)
        xs, ys = [t.a], [t.d]
        for _ in range(30):
            xs.append(base.lift_eval(xs[-1]))
            ys.append(base.lift_eval(ys[-1]))
        expected = 0.0
        for i in range(30):
            dx = float(base.lift_derivative(xs[i]))
            dy = float(base.lift_derivative(ys[i]))
            quotient = (ys[i + 1] - xs[i + 1]) / (ys[i] - xs[i])
            expected += math.log(dx) + math.log(dy) - 2.0 * math.log(quotient)
        assert measured == expected

    def test_overlapping_arcs_rejected(self, golden_rotation):
        t = FourTuple(0.0, 0.01, 0.02, 0.03)
        with pytest.raises(ValueError):
            iterate_distortion_bound(golden_rotation, 2, t,
                                     [Arc(0.0, 0.05), Arc(0.04, 0.09)])

    def test_overlap_is_a_named_error(self, golden_rotation):
        t = FourTuple(0.0, 0.01, 0.02, 0.03)
        with pytest.raises(OverlappingArcsError, match="arcs 0 and 1 overlap"):
            iterate_distortion_bound(golden_rotation, 2, t,
                                     [Arc(0.0, 0.05), Arc(0.04, 0.09)])


class TestCrdVariation:
    def test_rotation_is_flat(self, golden_rotation):
        assert crd_variation_estimate(golden_rotation, 5) < 1e-10

    def test_perturbed_map_stabilizes_with_depth(self):
        f = make_map({"kind": "arnold", "alpha": 0.618, "amplitude": 0.5})
        d6 = crd_variation_estimate(f, 6)
        d7 = crd_variation_estimate(f, 7)
        assert d6 > 0.0
        assert abs(d7 - d6) <= 0.05 * d6

    @pytest.mark.parametrize("depth", [1, 2, 3, 6])
    def test_folding_lift_raises(self, depth):
        # amplitude 1.5: F' = 1 + 1.5 cos 2 pi x turns negative, so some
        # cells fold and their log ratios would be NaN; the estimate read
        # 0.0 at these depths, the value of a rigid rotation
        fold = CircleDiffeo(lift_eval=lambda x: x + 0.3 + 1.5 / (2.0 * math.pi)
                            * np.sin(2.0 * math.pi * x))
        with pytest.raises(NonMonotoneMapError, match="at level 1 "):
            crd_variation_estimate(fold, depth)

    def test_matches_the_former_loop_at_the_estimators_depth(self, denjoy50):
        # the estimators benchmark runs crd at depth 13 on this map, where
        # each lift call holds two inner pairs
        got = crd_variation_estimate(denjoy50.base, 13)
        assert _bits(got) == _bits(crd_variation_reference(denjoy50.base, 13))

    def test_lift_calls_are_bounded_arrays_of_the_former_points(self):
        recipe = {"kind": "arnold", "alpha": 0.41, "amplitude": 0.6}
        new = _lift_calls_by_level(crd_variation_estimate, make_map(recipe), 13)
        old = _lift_calls_by_level(crd_variation_reference, make_map(recipe), 13)
        for level, (calls, former) in enumerate(zip(new, old), start=1):
            cells = 2 ** level
            assert all(isinstance(x, np.ndarray) and x.ndim == 1 for x in calls)
            assert max(x.size for x in calls) <= max(CRD_BATCH_POINTS, 2 * cells)
            assert np.array_equal(np.sort(np.concatenate(calls)),
                                  np.sort(np.concatenate(former)))
            if level <= 10:
                assert len(calls) == 2
        # at level 13 the cell ends take one call and the nine inner pairs
        # go two by two, in pair order
        assert [x.size // 2 ** 13 for x in new[-1]] == [2, 4, 4, 4, 4, 2]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _lift_calls_by_level(estimate, f, depth):
    """The arrays ``estimate`` hands f's lift at each level up to depth:
    level L's calls are those of ``estimate(f, L)`` after those of
    ``estimate(f, L - 1)``."""
    calls = count_lift_in_place(f)
    by_level, before = [], 0
    for level in range(1, depth + 1):
        calls.clear()
        estimate(f, level)
        by_level.append(calls[before:])
        before = len(calls)
    return by_level


CRD_MAPS = st.one_of(
    st.builds(lambda alpha, amplitude: make_map(
        {"kind": "arnold", "alpha": alpha, "amplitude": amplitude}),
        st.floats(-1.0, 2.0), st.one_of(st.just(0.0), st.floats(0.0, 0.95))),
    st.builds(lambda alpha: make_map({"kind": "rigid", "alpha": alpha}),
              st.floats(-1.0, 2.0)),
    accepted_denjoy().map(lambda denjoy: denjoy.base))


@settings(max_examples=60, deadline=None)
@given(CRD_MAPS, st.integers(1, 11))
def test_crd_matches_the_former_per_pair_loop(f, depth):
    assert _bits(crd_variation_estimate(f, depth)) == \
        _bits(crd_variation_reference(f, depth))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4, unique=True))
def test_cross_ratio_identity_on_random_tuples(xs):
    try:
        t = FourTuple(*sorted(xs))
    except DegenerateTupleError:
        assume(False)
    first, second = cross_ratios(t)
    assert first == pytest.approx(1.0 + 1.0 / second, rel=1e-12)

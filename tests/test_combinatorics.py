"""Orbit-arc predecessors, successors, neighborhoods and Koebe constants."""
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _combinatorics_oracle import arc_meets_span, brute_table
from denjoylab import (Arc, DenjoyLabError, FloatRangeError, KoebeConstants,
                       OverlappingArcsError, eps_scale,
                       intersection_multiplicity, interval_orbit, make_map,
                       macroscopic_delta, natural_neighborhood,
                       predecessor_successor_table, pullback_arcs)
from denjoylab.util import ccw_gap, frac

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0
HALF = 1e-4


def point_arcs(alpha, N, half=HALF):
    centers = [float(frac(n * alpha)) for n in range(N + 1)]
    return centers, [Arc(c - half, c + half) for c in centers]


class TestTableAgainstOracle:
    @pytest.mark.parametrize("alpha,N", [(GOLDEN, 13), (GOLDEN, 40),
                                         (SQRT2_M1, 30)])
    def test_matches_brute_force(self, alpha, N):
        centers, arcs = point_arcs(alpha, N)
        table = predecessor_successor_table(arcs)
        L, R, S, side = brute_table(centers, HALF)
        assert list(table.left_pred) == L[:1] + L[1:]
        assert list(table.right_pred) == R[:1] + R[1:]
        assert list(table.successor) == S
        assert list(table.successor_side) == side


class TestSuccessorStructure:
    def test_golden_jumps_are_fibonacci(self):
        _, arcs = point_arcs(GOLDEN, 40)
        t = predecessor_successor_table(arcs)
        jumps = {t.successor[n] - n for n in range(41)
                 if t.successor[n] is not None}
        assert jumps == {1, 3, 5, 8, 13}

    def test_pell_jumps(self):
        _, arcs = point_arcs(SQRT2_M1, 100)
        t = predecessor_successor_table(arcs)
        jumps = {t.successor[n] - n for n in range(101)
                 if t.successor[n] is not None}
        assert jumps == {1, 2, 5, 12, 29}

    def test_chains_keep_jump_and_side(self):
        _, arcs = point_arcs(GOLDEN, 60)
        t = predecessor_successor_table(arcs)
        for n in range(61):
            s = t.successor[n]
            if s is None or t.successor[s] is None:
                continue
            assert t.successor[s] - s == s - n
            assert t.successor_side[s] == t.successor_side[n]

    def test_successor_triples_equally_spaced(self):
        centers, arcs = point_arcs(GOLDEN, 40)
        t = predecessor_successor_table(arcs)
        for n in range(1, 41):
            s = t.successor[n]
            if s is None:
                continue
            a = s - n
            pred = n - a
            assert pred in (t.left_pred[n], t.right_pred[n])
            d1 = min(ccw_gap(centers[pred], centers[n]),
                     ccw_gap(centers[n], centers[pred]))
            d2 = min(ccw_gap(centers[n], centers[s]),
                     ccw_gap(centers[s], centers[n]))
            assert d1 == pytest.approx(d2, abs=1e-9)

    def test_two_arc_family_has_no_successor(self):
        _, arcs = point_arcs(GOLDEN, 1)
        t = predecessor_successor_table(arcs)
        assert t.successor == (None, None)
        assert t.left_pred[1] == t.right_pred[1] == 0


class TestNaturalNeighborhood:
    def test_contains_arc_and_excludes_earlier_ones(self):
        _, arcs = point_arcs(GOLDEN, 30)
        t = predecessor_successor_table(arcs)
        for n in range(1, 31):
            if t.natural_nbhd[n] is None:
                continue
            T = natural_neighborhood(t, n)
            assert T.contains(arcs[n].midpoint())
            bound_lo = t.successor[n] if t.successor_side[n] == "left" \
                else t.left_pred[n]
            bound_hi = t.successor[n] if t.successor_side[n] == "right" \
                else t.right_pred[n]
            for k in range(n):
                if k in (bound_lo, bound_hi):
                    continue
                assert not _strictly_inside(arcs[k], T)

    def test_endpoints_come_from_bounding_arcs(self):
        _, arcs = point_arcs(GOLDEN, 13)
        t = predecessor_successor_table(arcs)
        n = 3
        assert t.successor[n] == 6
        assert t.successor_side[n] == "left"
        T = natural_neighborhood(t, n)
        assert T.start == pytest.approx(arcs[6].start)
        assert T.end == pytest.approx(arcs[t.right_pred[n]].end)

    def test_unavailable_for_index_zero(self):
        _, arcs = point_arcs(GOLDEN, 10)
        t = predecessor_successor_table(arcs)
        with pytest.raises(ValueError):
            natural_neighborhood(t, 0)


UNIT = st.floats(0.0, 1.0, exclude_max=True)
#: a span end: any point, or an end of the tested arc
END = st.one_of(UNIT, st.sampled_from(["start", "end"]))


@settings(max_examples=300, deadline=None)
@given(UNIT, UNIT, END, END)
@example(0.9, 0.2, 0.95, 0.3)         # both arcs wrap through 0
@example(0.9, 0.2, "end", 0.5)        # the span starts where the arc ends
@example(0.7, 0.2, 0.95, "start")     # the wrapped span ends where the arc starts
def test_bridge_test_is_arc_intersects(a_start, a_len, lo, hi):
    """The table's bridge test, now ``Arc.intersects``, answers as the
    former ``_arc_meets_span`` did, closed ends and wrapped arcs included."""
    try:
        arc = Arc(a_start, a_start + a_len)
        lo = {"start": arc.start, "end": arc.end}.get(lo, lo)
        hi = {"start": arc.start, "end": arc.end}.get(hi, hi)
        span = Arc(lo, hi)
    except ValueError:
        assume(False)   # an empty or full arc: the table never builds one
    assert arc.intersects(span) == arc_meets_span(arc.start, arc.length,
                                                  span.start, span.end)


def _strictly_inside(arc, T):
    return (ccw_gap(T.start, arc.start) < T.length
            and ccw_gap(T.start, arc.end) < T.length
            and ccw_gap(T.start, arc.start) > 0.0)


class TestTableInputs:
    def test_overlapping_arcs_rejected(self):
        with pytest.raises(ValueError):
            predecessor_successor_table([Arc(0.0, 0.2), Arc(0.1, 0.3)])

    def test_overlap_is_a_named_runtime_error(self):
        assert issubclass(OverlappingArcsError, DenjoyLabError)
        assert issubclass(OverlappingArcsError, ValueError)
        with pytest.raises(OverlappingArcsError, match="arcs 0 and 1 overlap"):
            predecessor_successor_table([Arc(0.0, 0.2), Arc(0.1, 0.3)])

    def test_denjoy_arcs_reproduce_rotation_table(self, denjoy50):
        n = 25
        arcs = [denjoy50.wandering_arc] + interval_orbit(
            denjoy50.base, denjoy50.wandering_arc, n)
        fat = predecessor_successor_table(arcs)
        _, thin = point_arcs(denjoy50.alpha, n)
        ref = predecessor_successor_table(thin)
        assert fat.successor == ref.successor
        assert fat.left_pred == ref.left_pred
        assert fat.right_pred == ref.right_pred


class TestIntersectionMultiplicity:
    def test_disjoint_is_one(self):
        arcs = [Arc(0.1 * k, 0.1 * k + 0.05) for k in range(5)]
        assert intersection_multiplicity(arcs) == 1

    def test_nested_counts_depth(self):
        arcs = [Arc(0.5 - w, 0.5 + w) for w in (0.05, 0.1, 0.15, 0.2)]
        assert intersection_multiplicity(arcs) == 4

    def test_shared_endpoint_counts(self):
        assert intersection_multiplicity([Arc(0.1, 0.3), Arc(0.3, 0.5)]) == 2


class TestPullbacks:
    def test_rotation_preimages_translate(self):
        f = make_map({"kind": "rigid", "alpha": 0.25})
        fam = pullback_arcs(f, Arc(0.5, 0.6), 2)
        assert len(fam) == 3
        assert fam[1].start == pytest.approx(0.25)
        assert fam[2].start == pytest.approx(0.0, abs=1e-9)
        assert all(a.length == pytest.approx(0.1, abs=1e-9) for a in fam)

    def test_neighborhood_pullbacks_stay_thin(self, denjoy50):
        arcs = [denjoy50.wandering_arc] + interval_orbit(
            denjoy50.base, denjoy50.wandering_arc, 30)
        t = predecessor_successor_table(arcs)
        n = next(k for k in range(5, 31) if t.natural_nbhd[k] is not None)
        fam = pullback_arcs(denjoy50.base, natural_neighborhood(t, n), n)
        assert intersection_multiplicity(fam) <= 15


class TestEpsScale:
    def test_symmetric_flanks(self):
        assert eps_scale(Arc(0.2, 0.3), Arc(0.0, 0.5)) == pytest.approx(2.0)

    def test_min_flank_rules(self):
        assert eps_scale(Arc(0.05, 0.25), Arc(0.0, 0.5)) == pytest.approx(
            0.25)

    def test_shared_endpoint_gives_zero(self):
        assert eps_scale(Arc(0.0, 0.1), Arc(0.0, 0.5)) == 0.0

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            eps_scale(Arc(0.4, 0.7), Arc(0.0, 0.5))


class TestMacroscopicDelta:
    def test_reference_value(self):
        k = macroscopic_delta(0.0, 1.0)
        assert isinstance(k, KoebeConstants)
        assert k.C == pytest.approx(3.0)
        assert k.i_star == 3
        assert k.delta == pytest.approx(1.0 / 7.0)

    def test_generous_scale_needs_one_step(self):
        k = macroscopic_delta(0.0, 1e9)
        assert k.i_star == 1
        assert k.delta == pytest.approx(1.0)

    def test_monotone_in_both_arguments(self):
        base = macroscopic_delta(0.5, 0.3).delta
        assert macroscopic_delta(1.5, 0.3).delta <= base
        assert macroscopic_delta(0.5, 0.1).delta <= base
        assert macroscopic_delta(0.5, 2.0).delta >= base

    def test_delta_never_exceeds_eps(self):
        for b in (0.0, 0.7, 2.0):
            for eps in (0.05, 0.3, 1.0, 8.0):
                assert macroscopic_delta(b, eps).delta <= eps + 1e-12

    def test_large_budget_does_not_overflow(self):
        # 2^i_star - 1 is past the floats here, and delta underflows to 0.0
        k = macroscopic_delta(10.0, 1.0)
        assert k.i_star > 1076 and k.delta == 0.0

    def test_delta_does_not_grow_across_the_float_range(self):
        # i_star crosses 1024 (2^i - 1 overflows) inside this budget range
        ks = [macroscopic_delta(float(b), 0.01) for b in np.linspace(4.2, 4.4, 201)]
        deltas = [k.delta for k in ks]
        assert deltas == sorted(deltas, reverse=True)
        # past the floats, 1 / (2^i - 1) rounds to the subnormal 2^-i
        past = [k for k in ks if 1024 < k.i_star <= 1074]
        assert past and all(k.delta == math.ldexp(1.0, -k.i_star) for k in past)

    @pytest.mark.parametrize("B", [60.0, 300.0, 707.6])
    def test_i_star_past_2_53_is_the_first_float_crossing(self, B):
        # past 2^53 one more i does not move the float product i * step
        start = time.perf_counter()
        k = macroscopic_delta(B, 1.0)
        assert time.perf_counter() - start < 0.5
        step = math.log1p(1.0 / k.C)
        assert 2 ** 80 < k.i_star < 2 ** 1022 and k.delta == 0.0
        assert math.expm1(k.i_star * step) > 1.0
        assert not math.expm1((k.i_star - 1) * step) > 1.0

    @pytest.mark.parametrize("B, eps", [
        (707.7, 1.0), (709.0, 1.0), (710.0, 1.0), (1e6, 1.0), (math.inf, 1.0),
        (0.0, 1e-308)])
    def test_past_the_floats_raises_a_named_error(self, B, eps):
        # C = 3 e^B, i_star or 1/eps passes 2^1022
        start = time.perf_counter()
        with pytest.raises(FloatRangeError, match="passes 2\\^1022"):
            macroscopic_delta(B, eps)
        assert time.perf_counter() - start < 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            macroscopic_delta(-0.1, 1.0)
        with pytest.raises(ValueError):
            macroscopic_delta(0.0, 0.0)
        for nan_args in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                macroscopic_delta(*nan_args)

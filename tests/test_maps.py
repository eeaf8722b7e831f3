"""Arcs, lifts, inversion, iteration and composition."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _orbit_reference import orbit_lift_reference
from _smooth_reference import periodic_lift
from denjoylab import (Arc, arc_image, compose, inverse_eval, make_map,
                       orbit_lift, validate_lift)
from denjoylab.util import circle_dist, frac


def _arnold(alpha, amp):
    return make_map({"kind": "arnold", "alpha": alpha, "amplitude": amp})


class TestArc:
    def test_normalizes_and_measures(self):
        a = Arc(1.25, -0.1)
        assert a.start == pytest.approx(0.25)
        assert a.end == pytest.approx(0.9)
        assert a.length == pytest.approx(0.65)

    def test_wrapping_arc(self):
        a = Arc(0.9, 0.1)
        assert a.length == pytest.approx(0.2)
        assert a.contains(0.95)
        assert a.contains(0.05)
        assert not a.contains(0.5)
        assert a.midpoint() == pytest.approx(0.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Arc(0.3, 0.3)

    def test_closed_endpoints_and_tolerance(self):
        a = Arc(0.2, 0.4)
        assert a.contains(0.2) and a.contains(0.4)
        assert not a.contains(0.4 + 1e-6)
        assert a.contains(0.4 + 1e-6, tol=1e-5)

    def test_intersects_symmetry(self):
        a, b = Arc(0.1, 0.3), Arc(0.25, 0.5)
        assert a.intersects(b) and b.intersects(a)
        c = Arc(0.6, 0.8)
        assert not a.intersects(c) and not c.intersects(a)
        # wrap case
        d = Arc(0.95, 0.05)
        assert d.intersects(Arc(0.02, 0.2))
        assert not d.intersects(Arc(0.3, 0.9))


def _former_arc(start, end):
    """Arc's endpoints, length and midpoint as it reduced them with
    ``frac``, or None where it raised."""
    start, end = float(frac(start)), float(frac(end))
    length = float(frac(end - start))
    if not 0.0 < length < 1.0:
        return None
    return start, end, length, float(frac(start + 0.5 * length))


def _former_intersects(a, b, tol):
    return bool(frac(b[0] - a[0]) <= a[2] + tol or frac(a[0] - b[0]) <= b[2] + tol)


def _former_contains(a, point, tol):
    return bool(frac(point - a[0]) <= a[2] + tol or frac(a[0] - point) <= tol)


def _ulps_from(x, k):
    """The float k steps of one ulp above x (below for a negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


#: an endpoint or a point: a float in [-2, 2], or a few ulps from a shared base
ARC_VALUE = st.one_of(st.floats(-2.0, 2.0), st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
# (0.3 - 1 ulp) - 0.3 = -2^-54 reduces to 0.0, not 1.0: the point is in the arc
@example(0.3, [0, 0.6, -1, 0.9, -1], 0.0, float)
# a start one ulp below 0 reduces to 0.0
@example(0.0, [-1, 0.5, 0.25, 0.75, -2], 0.0, np.float64)
@example(0.2, [1, 0.7, 0, 0.1, -2], 0.0, np.float32)
@given(st.floats(0.0, 1.0, exclude_max=True), st.lists(ARC_VALUE, min_size=5, max_size=5),
       st.sampled_from((0.0, 1e-12, 1e-3)), st.sampled_from((float, np.float64, np.float32)))
def test_arc_matches_the_former_frac_forms(base, values, tol, point_type):
    """Endpoints, length, midpoint, intersects and contains give the bits
    and truth values of their former ``frac`` forms, differences within
    2^-54 below 0 included: an integer k in ``values`` stands for k ulps
    from base."""
    s0, e0, s1, e1, p = (_ulps_from(base, v) if isinstance(v, int) else v for v in values)
    arcs = []
    for start, end in ((s0, e0), (s1, e1)):
        former = _former_arc(start, end)
        if former is None:
            with pytest.raises(ValueError):
                Arc(start, end)
            return
        arc = Arc(start, end)
        assert np.array_equal(_bits([arc.start, arc.end, arc.length, arc.midpoint()]),
                              _bits(former))
        arcs.append((arc, former))
    (a, fa), (b, fb) = arcs
    assert a.intersects(b, tol) == _former_intersects(fa, fb, tol)
    assert b.intersects(a, tol) == _former_intersects(fb, fa, tol)
    point = point_type(p)
    assert a.contains(point, tol) == _former_contains(fa, point, tol)
    assert b.contains(point, tol) == _former_contains(fb, point, tol)


def test_lift_is_degree_one():
    f = _arnold(0.4, 0.6)
    xs = np.linspace(-1.0, 2.0, 101)
    assert np.allclose(f.lift_eval(xs + 1.0), f.lift_eval(xs) + 1.0, atol=1e-12)
    assert np.all(f.derivative(xs) > 0.0)


def test_inverse_eval_roundtrip():
    f = _arnold(0.29, 0.7)
    for y in (0.0, 0.123, 0.5, 0.871, 0.999):
        x = inverse_eval(f, y)
        assert circle_dist(float(f.lift_eval(x)), y) <= 1e-9


@settings(max_examples=200, deadline=None)
@example("rigid", 0.3, 0.0, True, 524289.0)
@given(st.sampled_from(("rigid", "arnold")), st.floats(0.0, 1.0, exclude_max=True),
       st.floats(0.0, 0.999999), st.booleans(), st.floats(-1e9, 1e9))
def test_generic_inverse_solves_at_any_scale(kind, alpha, amplitude, with_derivative, y):
    f = make_map({"kind": kind, "alpha": alpha, "amplitude": amplitude})
    if not with_derivative:
        f = dataclasses.replace(f, lift_derivative=None)
    x = inverse_eval(f, y)
    assert abs(f.lift_eval(x) - y) <= 4.0 * np.spacing(max(abs(y), 1.0))


@settings(max_examples=200, deadline=None)
@example("arnold", 0.41, 5, 0.6, True, 0.5984229185852419)
@given(st.sampled_from(("rigid", "arnold")), st.floats(0.0, 1.0, exclude_max=True),
       st.integers(-50, 50), st.floats(0.0, 0.999999), st.booleans(),
       st.floats(-1e9, 1e9))
def test_generic_inverse_solves_on_integer_shifted_lifts(kind, alpha0, shift, amplitude,
                                                         with_derivative, y):
    # the same circle map as at alpha0, with a displacement F - id near shift
    f = make_map({"kind": kind, "alpha": alpha0 + shift, "amplitude": amplitude})
    if not with_derivative:
        f = dataclasses.replace(f, lift_derivative=None)
    x = inverse_eval(f, y)
    assert abs(f.lift_eval(x) - y) <= 4.0 * np.spacing(max(abs(y), abs(x), 1.0))


def test_orbit_lift_steps_forward():
    f = _arnold(0.41, 0.4)
    lift = orbit_lift(f, 0.2, 10)
    assert lift.shape == (11,)
    assert lift[0] == 0.2
    assert lift[10] == float(f.lift_eval(float(lift[9])))
    # displacement never exceeds one per step for this family
    assert np.all(np.diff(lift) > 0.0)
    assert np.all(np.diff(lift) < 1.0)
    assert orbit_lift(f, 0.2, 0).tolist() == [0.2]
    with pytest.raises(ValueError):
        orbit_lift(f, 0.2, -1)


ORBIT_MAP = _arnold(0.41, 0.6)
#: starts of the slot property: both zeros, and one start per sign
ORBIT_STARTS = (0.0, -0.0, 0.2, -1.3)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None)
@example(calls=[(0, 0.0, 20), (0, -0.0, 5), (0, 0.0, 5), (0, 0.0, 40),
                (1, 0.0, 30), (0, 0.0, 10), (1, 0.0, 10), (1, 0.0, 45)])
@given(calls=st.lists(st.tuples(st.integers(0, 1), st.sampled_from(ORBIT_STARTS),
                                st.integers(0, 50)), min_size=1, max_size=12))
def test_orbit_lift_slot_matches_the_former_loop(denjoy50, calls):
    """Interleaved calls on an Arnold and a Denjoy map, hitting the stored
    orbit with prefixes and resumes, give the fresh loop's bits, and a
    caller that writes into a returned orbit changes no later one."""
    maps = (ORBIT_MAP, denjoy50.base)
    for which, x0, n in calls:
        got = orbit_lift(maps[which], x0, n)
        assert np.array_equal(_bits(got), _bits(orbit_lift_reference(maps[which], x0, n)))
        got[:] = math.nan


def test_arc_image_of_rotation_is_translation():
    f = make_map({"kind": "rigid", "alpha": 0.34})
    img = arc_image(f, Arc(0.9, 0.2))
    assert img.start == pytest.approx(frac(0.9 + 0.34))
    assert img.length == pytest.approx(0.3)


def test_validate_lift_accepts_smooth_family():
    rep = validate_lift(_arnold(0.35, 0.8), grid_size=2000)
    assert rep.periodicity_defect <= 1e-10
    assert rep.monotonicity_defect == 0.0
    assert rep.derivative_min > 0.0
    assert rep.increment_defect <= 1e-8


def test_validate_lift_fails_a_nan_derivative():
    smooth = _arnold(0.35, 0.8)

    def deriv(x):
        t = np.asarray(x, dtype=float)
        return np.where((0.3001 < t) & (t < 0.3002), math.nan,
                        smooth.lift_derivative(x))

    rep = validate_lift(dataclasses.replace(smooth, lift_derivative=deriv),
                        grid_size=2000)
    assert math.isnan(rep.increment_defect)
    assert not rep.passed


def test_validate_lift_fails_a_nan_lift():
    smooth = _arnold(0.35, 0.8)

    def lift(x):
        t = frac(np.asarray(x, dtype=float))
        return np.where((0.5 < t) & (t < 0.5006), math.nan, smooth.lift_eval(x))

    rep = validate_lift(dataclasses.replace(smooth, lift_eval=lift), grid_size=2000)
    assert math.isnan(rep.monotonicity_defect)
    # the NaN monotonicity defect fails the check by itself
    assert not dataclasses.replace(rep, periodicity_defect=0.0).passed


def test_validate_lift_gives_plus_zero_for_a_flat_lift():
    stair = periodic_lift(lambda u: -u)      # F(x) = floor(x)
    rep = validate_lift(stair, grid_size=100)
    assert rep.monotonicity_defect == 0.0
    assert math.copysign(1.0, rep.monotonicity_defect) == 1.0


def test_validate_lift_flags_folding_map():
    # sin displacement with amplitude above 1/(2 pi) makes the lift fold
    fold = periodic_lift(lambda x: 0.3 * np.sin(2.0 * np.pi * x))
    rep = validate_lift(fold, grid_size=500)
    assert rep.monotonicity_defect > 0.0
    assert rep.periodicity_defect <= 1e-12


def test_compose_rotations_adds_angles():
    f = make_map({"kind": "rigid", "alpha": 0.3})
    g = make_map({"kind": "rigid", "alpha": 0.25})
    fg = compose(f, g)
    xs = np.linspace(0.0, 1.0, 33)
    assert np.allclose(fg.lift_eval(xs), xs + 0.55, atol=1e-12)

"""Arcs, lifts, inversion, iteration and composition."""
import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _orbit_reference import orbit_lift_reference
from _overlap_reference import first_overlap_pairwise
from _oracles import compose
from _simpson_reference import validate_lift_reference
from _smooth_reference import periodic_lift
from conftest import SQRT2_M1, counting_lift
from denjoylab import (Arc, arc_image, inverse_eval, make_denjoy, make_map,
                       orbit_lift, validate_lift)
from denjoylab.maps import first_overlap
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


@st.composite
def arc_families(draw):
    """0 to 60 arcs in random row order, wrap-around ones among them.

    Half the families are disjoint or touching by construction: one arc in
    each gap between sorted cut points, the last gap wrapping past 1, each
    arc covering a share of its gap drawn from one set per family, or the
    last arc stretched past the first start.  The others draw starts
    within a few 2^-54 steps of a few shared bases and lengths from 2^-60
    to 1/2; a pair that ``Arc`` rejects is skipped.
    """
    m = draw(st.integers(0, 60))
    if draw(st.booleans()):
        # multiples of 2^-30, so that no gap reads 0.0 (as one within
        # 2^-54 below a start does) and the families stay disjoint
        cuts = sorted({k * 2.0 ** -30 for k in draw(st.lists(
            st.integers(0, 2 ** 30 - 1), min_size=m, max_size=m))})
        shares = draw(st.sampled_from(((0.5,), (0.5, 2.0 ** -40), (1.0 - 2.0 ** -52,),
                                       (0.5, 1.0))))
        arcs = []
        for i, cut in enumerate(cuts):
            gap = (cuts[(i + 1) % len(cuts)] - cut) % 1.0 or 1.0
            share = draw(st.sampled_from(shares))
            if i == len(cuts) - 1 and draw(st.booleans()):
                share = 1.5     # across 1, past the first start: only that pair meets
            try:
                arcs.append(Arc(cut, cut + share * gap))
            except ValueError:
                pass
        return draw(st.permutations(arcs))
    bases = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3))
    arcs = []
    for _ in range(m):
        start = draw(st.sampled_from(bases + [0.0])) + draw(st.integers(-3, 3)) * 2.0 ** -54
        length = 2.0 ** -draw(st.floats(1.0, 60.0))
        try:
            arcs.append(Arc(start, start + length))
        except ValueError:
            pass
    return arcs


@settings(max_examples=100, deadline=None)
# only the pair of the last and the first start in start order meets
@example([Arc(0.05, 0.06), Arc(0.5, 0.51), Arc(0.9, 1.1)], 0.0)
@given(arc_families(), st.sampled_from((0.0, 1e-12)))
def test_first_overlap_matches_the_pairwise_scan(arcs, tol):
    assert first_overlap(arcs, tol) == first_overlap_pairwise(arcs, tol)


def test_lift_is_degree_one():
    f = _arnold(0.4, 0.6)
    xs = np.linspace(-1.0, 2.0, 101)
    assert np.allclose(f.lift_eval(xs + 1.0), f.lift_eval(xs) + 1.0, atol=1e-12)
    assert np.all(f.lift_derivative(xs) > 0.0)


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
    caller cannot write into a returned orbit, nor make it writeable."""
    maps = (ORBIT_MAP, denjoy50.base)
    for which, x0, n in calls:
        got = orbit_lift(maps[which], x0, n)
        assert np.array_equal(_bits(got), _bits(orbit_lift_reference(maps[which], x0, n)))
        with pytest.raises(ValueError, match="read-only"):
            got[:] = math.nan
        with pytest.raises(ValueError):
            got.flags.writeable = True


def _wrapped(f):
    """f under a lift wrapper, which drops the orbit kernel."""
    return dataclasses.replace(f, lift_eval=lambda x: f.lift_eval(x))


#: map builders for both ways orbit_lift fills an orbit: the kernel of a
#: rigid and an Arnold map, and one lift call per step on a wrapped lift
ORBIT_BUILDS = {"rigid": lambda: make_map({"kind": "rigid", "alpha": 0.618}),
                "arnold": lambda: _arnold(0.3, 0.3),
                "wrapped-arnold": lambda: _wrapped(_arnold(0.3, 0.3))}


@pytest.mark.parametrize("build", ORBIT_BUILDS.values(), ids=ORBIT_BUILDS.keys())
def test_fresh_orbit_is_one_buffer(build):
    """A fresh orbit is iterated into the one buffer the slot keeps and
    returned as a view of it: its traced peak and what it holds after
    the call both stay near n + 1 floats."""
    f, n = build(), 100_000
    tracemalloc.start()
    try:
        got = orbit_lift(f, 0.1, n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = 8 * (n + 1)
    assert got.size == n + 1
    assert size <= held <= 1.2 * size
    assert peak <= 1.2 * size


@pytest.mark.parametrize("build", ORBIT_BUILDS.values(), ids=ORBIT_BUILDS.keys())
def test_extending_a_stored_orbit_leaves_the_old_view(build):
    f = build()
    short = orbit_lift(f, 0.1, 50_000)
    before = short.tobytes()
    extended = orbit_lift(f, 0.1, 100_000)
    assert short.tobytes() == before
    assert extended.tobytes() == orbit_lift(build(), 0.1, 100_000).tobytes()
    assert extended.tobytes()[:len(before)] == before


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


def _nan_derivative_map():
    smooth = _arnold(0.35, 0.8)

    def deriv(x):
        t = np.asarray(x, dtype=float)
        return np.where((0.3001 < t) & (t < 0.3002), math.nan,
                        smooth.lift_derivative(x))

    return dataclasses.replace(smooth, lift_derivative=deriv)


def _nan_lift_map():
    smooth = _arnold(0.35, 0.8)

    def lift(x):
        t = frac(np.asarray(x, dtype=float))
        return np.where((0.5 < t) & (t < 0.5006), math.nan, smooth.lift_eval(x))

    return dataclasses.replace(smooth, lift_eval=lift)


def _stair_map():
    return periodic_lift(lambda u: -u)      # F(x) = floor(x)


def _fold_map():
    # sin displacement with amplitude above 1/(2 pi) makes the lift fold
    return periodic_lift(lambda x: 0.3 * np.sin(2.0 * np.pi * x))


def test_validate_lift_fails_a_nan_derivative():
    rep = validate_lift(_nan_derivative_map(), grid_size=2000)
    assert math.isnan(rep.increment_defect)
    assert not rep.passed


def test_validate_lift_fails_a_nan_lift():
    rep = validate_lift(_nan_lift_map(), grid_size=2000)
    assert math.isnan(rep.monotonicity_defect)
    # the NaN monotonicity defect fails the check by itself
    assert not dataclasses.replace(rep, periodicity_defect=0.0).passed


def test_validate_lift_gives_plus_zero_for_a_flat_lift():
    rep = validate_lift(_stair_map(), grid_size=100)
    assert rep.monotonicity_defect == 0.0
    assert math.copysign(1.0, rep.monotonicity_defect) == 1.0


def test_validate_lift_flags_folding_map():
    rep = validate_lift(_fold_map(), grid_size=500)
    assert rep.monotonicity_defect > 0.0
    assert rep.periodicity_defect <= 1e-12


def _np_float64_derivative_map():
    """Arnold (0.3, 0.3) whose scalar derivative returns np.float64."""
    smooth = _arnold(0.3, 0.3)
    return dataclasses.replace(
        smooth, lift_derivative=lambda x: np.float64(smooth.lift_derivative(x)))


def _np_float32_derivative_map():
    """Arnold (0.3, 0.3) whose derivative returns np.float32 values."""
    smooth = _arnold(0.3, 0.3)
    return dataclasses.replace(
        smooth, lift_derivative=lambda x: np.float32(smooth.lift_derivative(x)))


def _array_derivative_map():
    """Arnold (0.3, 0.3) whose scalar derivative returns a 0-d array."""
    smooth = _arnold(0.3, 0.3)
    return dataclasses.replace(
        smooth, lift_derivative=lambda x: np.asarray(smooth.lift_derivative(x)))


def _same_report(got, want):
    """Field by field, floats by their bits, so NaN equals NaN and the
    sign of a zero counts."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, float):
            if not (type(a) is float and np.float64(a).view(np.int64)
                    == np.float64(b).view(np.int64)):
                return False
        elif a != b:
            return False
    return True


#: (map, grid size) pairs on which validate_lift keeps the reference's report
VALIDATE_CASES = {
    "denjoy-n30": (lambda: make_denjoy(SQRT2_M1, N=30, mass=0.5).base, 2048),
    "denjoy-n50": (lambda: make_denjoy(SQRT2_M1, N=50, mass=0.5).base, 2048),
    "denjoy-n100": (lambda: make_denjoy(SQRT2_M1, N=100, mass=0.5).base, 2048),
    "arnold-0.3-0.5": (lambda: _arnold(0.3, 0.5), 2000),
    "rigid": (lambda: make_map({"kind": "rigid", "alpha": 0.618}), 500),
    "nan-derivative": (_nan_derivative_map, 2000),
    "nan-lift": (_nan_lift_map, 2000),
    "stair": (_stair_map, 100),
    "fold": (_fold_map, 500),
    "np-float64-derivative": (_np_float64_derivative_map, 1000),
    "np-float32-derivative": (_np_float32_derivative_map, 1000),
    "array-derivative": (_array_derivative_map, 1000),
}


@pytest.mark.parametrize("case", VALIDATE_CASES)
def test_validate_lift_keeps_the_reference_report(case):
    build, grid_size = VALIDATE_CASES[case]
    diffeo = build()
    got = validate_lift(diffeo, grid_size=grid_size)
    assert _same_report(got, validate_lift_reference(diffeo, grid_size))


def test_a_moved_defect_fails_the_report_check():
    diffeo = _arnold(0.3, 0.5)
    ref = validate_lift_reference(diffeo, 200)
    nudged = np.nextafter(ref.increment_defect, 1.0)
    assert not _same_report(dataclasses.replace(ref, increment_defect=nudged), ref)
    assert not _same_report(dataclasses.replace(ref, monotonicity_defect=-0.0), ref)
    nan = dataclasses.replace(ref, increment_defect=math.nan)
    assert _same_report(nan, nan)


def test_validate_lift_calls_the_derivative_once_per_knot():
    smooth = _arnold(0.3, 0.5)
    scalar_args = []

    def deriv(x):
        if isinstance(x, float):
            scalar_args.append(x)
        return smooth.lift_derivative(x)

    counted = dataclasses.replace(smooth, lift_derivative=deriv)
    knots = np.linspace(0.0, 1.0, 201).tolist()
    for validate, interior in ((validate_lift, 1), (validate_lift_reference, 2)):
        scalar_args.clear()
        validate(counted, 200)
        seen = Counter(scalar_args)
        assert [seen[k] for k in knots] == [1] + [interior] * 199 + [1]


@pytest.mark.parametrize("grid_size", [0, -3])
def test_validate_lift_rejects_an_empty_grid(grid_size):
    counted, calls = counting_lift(_arnold(0.3, 0.5))
    with pytest.raises(ValueError, match=f"grid_size must be >= 1, got {grid_size}$"):
        validate_lift(counted, grid_size=grid_size)
    assert calls == []


def test_compose_rotations_adds_angles():
    f = make_map({"kind": "rigid", "alpha": 0.3})
    g = make_map({"kind": "rigid", "alpha": 0.25})
    fg = compose(f, g)
    xs = np.linspace(0.0, 1.0, 33)
    assert np.allclose(fg.lift_eval(xs), xs + 0.55, atol=1e-12)

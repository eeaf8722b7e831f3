"""Built-in maps and example functions."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from denjoylab import (Arc, CATALOG_ENTRIES, NonMonotoneMapError,
                       example_function, inverse_eval, make_denjoy, make_map,
                       orbit_lift, takagi_total_variation, validate_lift)
from denjoylab.util import frac

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestMakeMap:
    def test_rigid(self):
        f = make_map({"kind": "rigid", "alpha": 0.3})
        assert float(f.lift(0.9)) == pytest.approx(1.2)
        assert float(f.derivative(0.123)) == 1.0

    def test_arnold_reduces_to_rigid_at_zero_amplitude(self):
        f = make_map({"kind": "arnold", "alpha": 0.3, "amplitude": 0.0})
        xs = np.linspace(0.0, 1.0, 17)
        assert np.allclose(f.lift(xs), xs + 0.3)

    def test_arnold_amplitude_bound(self):
        with pytest.raises(NonMonotoneMapError):
            make_map({"kind": "arnold", "alpha": 0.3, "amplitude": 1.0})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_map({"kind": "parabolic", "alpha": 0.3})

    @pytest.mark.parametrize("kind", ["rigid", "arnold"])
    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, kind, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            make_map({"kind": kind, "alpha": alpha, "amplitude": 0.5})

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude must be non-negative"):
            make_map({"kind": "arnold", "alpha": 0.3, "amplitude": math.nan})

    @pytest.mark.parametrize("kind", ["rigid", "arnold"])
    def test_non_finite_scalar_raises(self, kind):
        # scalars take math.floor, arrays np.floor
        f = make_map({"kind": kind, "alpha": 0.3, "amplitude": 0.5})
        for evaluate in (f.lift_eval, f.lift_derivative):
            with pytest.raises(ValueError):
                evaluate(math.nan)
            with pytest.raises(OverflowError):
                evaluate(-math.inf)
            with np.errstate(invalid="ignore"):
                assert np.isnan(evaluate(np.array([math.nan, math.inf]))).all()


class TestDenjoy:
    def test_structure(self, denjoy50):
        d = denjoy50
        assert d.truncation == 50
        assert d.alpha == pytest.approx(math.sqrt(2.0) - 1.0)
        assert len(d.inserted_lengths) == 101
        total = sum(d.inserted_lengths)
        assert total <= 0.5 + 1e-12
        # lengths fall off quadratically in the orbit index
        assert d.insertion_length(0) > d.insertion_length(5)
        assert d.insertion_length(3) == d.insertion_length(-3)

    def test_wandering_arc_is_orbit_zero_insertion(self, denjoy50):
        ins = denjoy50.insertion_arc(0)
        assert denjoy50.wandering_arc.start == pytest.approx(ins.start)
        assert denjoy50.wandering_arc.length == pytest.approx(ins.length)

    def test_insertion_arcs_disjoint(self, denjoy50):
        arcs = [denjoy50.insertion_arc(m) for m in range(-8, 9)]
        for i, a in enumerate(arcs):
            for b in arcs[i + 1:]:
                assert not a.intersects(b)

    def test_base_is_smooth_circle_map(self, denjoy50):
        rep = validate_lift(denjoy50.base, grid_size=1000)
        assert rep.periodicity_defect <= 1e-9
        assert rep.monotonicity_defect == 0.0
        assert rep.derivative_min > 0.0

    def test_anchor_sits_outside_all_insertions(self, denjoy50):
        anchor = denjoy50.cantor_anchor
        for m in range(-denjoy50.truncation, denjoy50.truncation + 1):
            assert not denjoy50.insertion_arc(m).contains(anchor)

    def test_rational_alpha_rejected(self):
        with pytest.raises(ValueError):
            make_denjoy(0.5, N=10, mass=0.5)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            make_denjoy(alpha, N=10, mass=0.5)

    def test_mass_must_leave_room(self):
        with pytest.raises(ValueError):
            make_denjoy(GOLDEN, N=10, mass=1.0)

    def test_overlapping_image_tiling_rejected(self):
        # the closing adjustment of the last piece turns it negative
        with pytest.raises(ValueError, match="image tiling degenerate"):
            make_denjoy(math.pi - 3.0, N=100, mass=0.5)


class TestExampleFunctions:
    def test_names_and_domains(self):
        for name in ("ex1", "ex2", "ex3"):
            f = example_function(name, 6)
            lo, hi = f.domain
            assert lo < hi
            assert np.isfinite(float(f.eval(0.5 * (lo + hi))))
        with pytest.raises(ValueError):
            example_function("ex4")

    def test_oracle_info_matches_design(self):
        ex1 = example_function("ex1", 8).oracle
        assert ex1.total_variation == pytest.approx(2.0)
        assert not ex1.zygmund_norm_bounded
        ex2 = example_function("ex2", 8).oracle
        assert ex2.zygmund_norm_bounded
        assert ex2.total_variation == pytest.approx(takagi_total_variation(8))
        ex3 = example_function("ex3", 8).oracle
        assert ex3.quadratic_variation == pytest.approx(
            sum(2.0 / n**2 for n in range(1, 9)))

    def test_tent_sum_evaluates_at_dyadic_points(self):
        f = example_function("ex2", 4)
        # every summand vanishes at 0 and 1
        assert float(f.eval(0.0)) == pytest.approx(0.0)
        assert float(f.eval(1.0)) == pytest.approx(0.0, abs=1e-12)


def test_takagi_total_variation_closed_form():
    for depth in range(1, 12):
        m = depth + 1
        expected = m * 2.0 ** (2 - m) * math.comb(m - 1, (m - 1) // 2)
        assert takagi_total_variation(depth) == pytest.approx(
            expected, rel=1e-12)
    vals = [takagi_total_variation(d) for d in range(1, 12)]
    assert vals == sorted(vals)
    # grows without bound, far slower than depth + 1
    assert vals[-1] < 12.0


def test_catalog_entries_cover_built_ins():
    names = {name for name, _ in CATALOG_ENTRIES}
    assert names == {"rigid", "arnold", "denjoy", "ex1", "ex2", "ex3"}
    assert all(blurb for _, blurb in CATALOG_ENTRIES)


def test_denjoy_base_maps_insertions_forward(denjoy50):
    d = denjoy50
    for k in (0, 1, 5):
        src = d.insertion_arc(k)
        img_start = frac(d.base.lift(src.start))
        tgt = d.insertion_arc(k + 1)
        assert abs(float(img_start) - tgt.start) < 1e-8 or \
            Arc(tgt.start - 1e-8, tgt.start + 1e-8).contains(float(img_start))


@st.composite
def accepted_denjoy(draw):
    """A make_denjoy map over random (alpha, N, mass) that it accepts."""
    alpha = draw(st.floats(0.02, 0.98))
    n = draw(st.integers(10, 120))
    mass = draw(st.floats(0.02, 0.95))
    try:
        return make_denjoy(alpha, N=n, mass=mass)
    except (ValueError, RuntimeError):
        # parameters rejected, or no dust anchor found for them
        assume(False)


def _piece_knots(d):
    """The lift's piece boundaries over one period: the insertion arcs'
    endpoints, which alternate with the dust pieces, and the first one
    shifted by one."""
    ends = sorted(p for a in d.insertion_arcs for p in (a.start, a.end))
    return np.array(ends + [ends[0] + 1.0])


def _with_neighbours(points):
    """The points, their integer translates, and both one-ulp neighbours
    of every one of them."""
    pts = np.concatenate([points + k for k in (-2.0, 0.0, 1.0, 3.0)])
    return np.concatenate([pts, np.nextafter(pts, -np.inf),
                           np.nextafter(pts, np.inf)])


LIFT_PROPERTY = settings(max_examples=25, deadline=None)


@LIFT_PROPERTY
@given(accepted_denjoy(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
def test_denjoy_scalar_lift_matches_vector_path_bitwise(d, xs):
    f = d.base
    pts = _with_neighbours(np.concatenate([xs, _piece_knots(d)]))
    lift, deriv = f.lift_eval(pts), f.lift_derivative(pts)
    for scalars in (pts.tolist(), list(pts)):      # float, np.float64
        assert np.array_equal([f.lift_eval(x) for x in scalars], lift)
        assert np.array_equal([f.lift_derivative(x) for x in scalars], deriv)
    grid = np.arange(-3.0, 4.0)
    for ints in (list(range(-3, 4)), list(np.arange(-3, 4))):   # int, np.int64
        assert [f.lift_eval(i) for i in ints] == f.lift_eval(grid).tolist()
        assert [f.lift_derivative(i) for i in ints] == f.lift_derivative(grid).tolist()


@LIFT_PROPERTY
@given(accepted_denjoy(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
def test_denjoy_inverse_round_trips(d, ys):
    f = d.base
    img_knots = f.lift_eval(_piece_knots(d))
    for y in _with_neighbours(np.concatenate([ys, img_knots])).tolist():
        assert abs(f.lift_eval(inverse_eval(f, y)) - y) <= 1e-12


@LIFT_PROPERTY
@given(accepted_denjoy(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
def test_denjoy_inverse_agrees_with_bisection(d, ys):
    f = d.base
    generic = dataclasses.replace(f, lift_inverse=None)
    img_knots = f.lift_eval(_piece_knots(d))
    for y in np.concatenate([ys, img_knots]).tolist():
        assert abs(inverse_eval(f, y) - inverse_eval(generic, y)) <= 1e-12


@LIFT_PROPERTY
@given(accepted_denjoy(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=60))
def test_denjoy_lift_periodic_and_increasing(d, xs):
    f = d.base
    pts = np.unique(np.concatenate([xs, _with_neighbours(_piece_knots(d))]))
    # one-ulp neighbours may share an image; keep points 1e-9 apart
    pts = pts[np.concatenate([[True], np.diff(pts) > 1e-9])]
    fx = f.lift_eval(pts)
    assert np.max(np.abs(f.lift_eval(pts + 1.0) - fx - 1.0)) <= 1e-12
    assert np.all(np.diff(fx) > 0.0)


@st.composite
def smooth_map(draw):
    """A rigid or Arnold make_map over random alpha and amplitude in [0, 1)."""
    return make_map({"kind": draw(st.sampled_from(("rigid", "arnold"))),
                     "alpha": draw(st.floats(0.0, 1.0, exclude_max=True)),
                     "amplitude": draw(st.floats(0.0, 1.0, exclude_max=True))})


@LIFT_PROPERTY
@given(smooth_map(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
def test_smooth_scalar_lift_matches_vector_path_bitwise(f, xs):
    pts = _with_neighbours(np.concatenate([xs, np.arange(-3.0, 4.0)]))
    lift, deriv = f.lift_eval(pts), f.lift_derivative(pts)
    for scalars in (pts.tolist(), list(pts)):      # float, np.float64
        assert np.array_equal([f.lift_eval(x) for x in scalars], lift)
        assert np.array_equal([f.lift_derivative(x) for x in scalars], deriv)
    grid = np.arange(-3.0, 4.0)
    for ints in (list(range(-3, 4)), list(np.arange(-3, 4))):   # int, np.int64
        assert [f.lift_eval(i) for i in ints] == f.lift_eval(grid).tolist()
        assert [f.lift_derivative(i) for i in ints] == f.lift_derivative(grid).tolist()


@LIFT_PROPERTY
@given(smooth_map(), st.floats(-3.0, 3.0), st.integers(0, 300))
def test_orbit_lift_matches_array_lift_loop(f, x0, n):
    ref = [x0]
    for _ in range(n):
        ref.append(f.lift_eval(np.array(ref[-1:]))[0])
    assert np.array_equal(orbit_lift(f, x0, n), ref)

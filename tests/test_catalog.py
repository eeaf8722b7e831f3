"""Built-in maps and example functions."""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from denjoylab import (Arc, CATALOG_ENTRIES, NonMonotoneMapError, catalog,
                       example_function, inverse_eval, make_denjoy, make_map,
                       orbit_lift, takagi_total_variation, validate_lift)
from denjoylab.util import frac

from _denjoy_reference import find_dust_anchor, former_kernels, piece_table
from _smooth_reference import make_map as reference_map
from _orbit_reference import orbit_lift_reference
from conftest import (accepted_denjoy, accepted_denjoy_parameters, anchored_denjoy,
                      anchored_denjoy_parameters, counting_lift, smooth_map)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class TestMakeMap:
    def test_rigid(self):
        f = make_map({"kind": "rigid", "alpha": 0.3})
        assert float(f.lift_eval(0.9)) == pytest.approx(1.2)
        assert float(f.lift_derivative(0.123)) == 1.0

    def test_arnold_reduces_to_rigid_at_zero_amplitude(self):
        f = make_map({"kind": "arnold", "alpha": 0.3, "amplitude": 0.0})
        xs = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(f.lift_eval(xs), xs + 0.3)

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

    def test_golden_mean_finds_no_dust_anchor(self):
        # a known defect, pinned at N = 30 by the golden reports; the
        # benchmark labels it by this exception type.  The map builds; the
        # first read of its anchor screens and raises.
        d = make_denjoy(GOLDEN, N=50, mass=0.5)
        with pytest.raises(RuntimeError) as err:
            d.cantor_anchor
        assert type(err.value) is RuntimeError
        assert str(err.value) == "no dust anchor found clear of insertions for 1100 steps"

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
        assert ex2.zygmund_norm_bounded is False
        assert ex2.total_variation == pytest.approx(takagi_total_variation(8))
        ex3 = example_function("ex3", 8).oracle
        assert ex3.quadratic_variation == pytest.approx(
            sum(2.0 / n**2 for n in range(1, 9)))

    def test_tent_sum_depth_limit(self):
        # the layer scale 2.0 ** depth overflows a float from depth 1024
        top = catalog.MAX_TENT_DEPTH
        f = example_function("ex2", top)
        assert np.all(np.isfinite(f.eval(np.linspace(0.0, 1.0, 9))))
        assert math.isfinite(f.oracle.total_variation)
        for build in (takagi_total_variation, lambda d: example_function("ex2", d)):
            with pytest.raises(ValueError, match=f"^tent depth must be <= {top}, "
                                                 f"got {top + 1}$"):
                build(top + 1)

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
        img_start = frac(d.base.lift_eval(src.start))
        tgt = d.insertion_arc(k + 1)
        assert abs(float(img_start) - tgt.start) < 1e-8 or \
            Arc(tgt.start - 1e-8, tgt.start + 1e-8).contains(float(img_start))


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
@given(anchored_denjoy_parameters(), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
def test_denjoy_matches_the_former_tiling_and_solver(drawn, ys):
    alpha, n, mass, d = drawn
    ref = piece_table(alpha, n, mass)
    assert d.insertion_arcs == ref.insertion_arcs
    # a source knot lands exactly on its image knot (s = 0) only when
    # both knot tables agree with the reference
    assert d.base.lift_eval(ref.src_knots[:-1]).tolist() == ref.img_knots[:-1].tolist()
    assert d.cantor_anchor == find_dust_anchor(d.base.lift_eval, ref.insertion_arcs,
                                               ref.dust_position, d.anchor_budget)
    for y in _with_neighbours(np.concatenate([ys, ref.img_knots])).tolist():
        assert d.base.lift_inverse(y) == ref.lift_inverse(y)


def _step_of(d):
    """The scalar ``step(x) -> (F(x), piece index)`` that the map's anchor
    screen iterates, caught by running the screen with a spy."""
    steps = []

    def spy(step, dust_position, budget):
        steps.append(step)
        return [0.0]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "_find_dust_anchor", spy)
        d._screen(0)
    return steps[0]


def _packed(value):
    """Type, dtype, shape and bytes of a result: a float, a numpy scalar or
    array, or a step's (float, int) pair."""
    if isinstance(value, tuple):
        return tuple(_packed(v) for v in value)
    arr = np.asarray(value)
    return type(value), arr.dtype, arr.shape, arr.tobytes()


@LIFT_PROPERTY
@given(accepted_denjoy_parameters(), st.lists(st.floats(-3.0, 3.0), max_size=20))
def test_denjoy_kernels_match_the_former_kernels_bitwise(drawn, xs):
    """Step (with its piece index), lift, derivative and inverse give the
    bits of the former closures at random points and at every source or
    image knot with its integer translates and one-ulp neighbours, for
    floats, np.float64, ints, np.int64, 0-d arrays and arrays."""
    alpha, n, mass, d = drawn
    old = former_kernels(alpha, n, mass)
    f, step = d.base, _step_of(d)
    pts = _with_neighbours(np.concatenate([xs, old.table.src_knots]))
    for x in pts.tolist():
        assert _packed(step(x)) == _packed(old.step(x))
    # every point as a float and in one array, every fifth in every form
    for x in pts.tolist() + [pts] + _argument_types(pts[::5].tolist()):
        assert _packed(f.lift_eval(x)) == _packed(old.lift(x))
        assert _packed(f.lift_derivative(x)) == _packed(old.lift_derivative(x))
    ys = _with_neighbours(np.concatenate([xs, old.table.img_knots]))
    for y in ys.tolist() + list(ys[::5]) + [-2, 0, 3, np.int64(1)]:
        assert _packed(f.lift_inverse(y)) == _packed(old.lift_inverse(y))


def test_insertion_arcs_built_on_first_read():
    d = make_denjoy(math.sqrt(2.0) - 1.0, N=30, mass=0.5)
    assert "insertion_arcs" not in vars(d)
    arcs = d.insertion_arcs
    assert vars(d)["insertion_arcs"] is arcs
    assert arcs[30] == d.wandering_arc
    assert dataclasses.replace(d).insertion_arcs == arcs


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


@LIFT_PROPERTY
@given(anchored_denjoy())
def test_make_denjoy_hands_its_anchor_orbit_to_orbit_lift(d):
    """Prefixes of the orbit the anchor read stored, and resumes past its
    end, are bit for bit the fresh orbit of the anchor."""
    for n in (0, 1000, 1100, 1200):
        got = orbit_lift(d.base, d.cantor_anchor, n)
        ref = orbit_lift_reference(d.base, d.cantor_anchor, n)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_replace_copy_screens_on_first_read(monkeypatch):
    """A dataclasses.replace copy, as the benchmark tracer makes one,
    screens on its first read and stores the orbit under its own base."""
    d = make_denjoy(math.sqrt(2.0) - 1.0, N=30, mass=0.5)
    screens = []
    screen = catalog._find_dust_anchor

    def spy(step, dust_position, budget):
        screens.append(budget)
        return screen(step, dust_position, budget)

    monkeypatch.setattr(catalog, "_find_dust_anchor", spy)
    base, calls = counting_lift(d.base)
    copy = dataclasses.replace(d, base=base)
    assert screens == []
    anchor = copy.cantor_anchor
    assert copy.cantor_anchor == anchor
    assert screens == [copy.anchor_budget]
    n = copy.anchor_budget + 1
    got = orbit_lift(copy.base, anchor, n)
    assert calls == []
    ref = orbit_lift_reference(d.base, anchor, n)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert d.cantor_anchor == anchor
    assert screens == [n - 1, n - 1]


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


#: orbit starts where x - floor(x) is delicate: both zeros, and integers up
#: to 1e6 in size with their one-ulp neighbours
ORBIT_EDGE_STARTS = [0.0, -0.0] + _with_neighbours(
    np.array([0.0, 1e6 - 3.0, 2.0 - 1e6])).tolist()
orbit_start = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(ORBIT_EDGE_STARTS))


@LIFT_PROPERTY
@given(smooth_map(), orbit_start,
       st.integers(1, 2000).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n))))
def test_orbit_kernel_matches_the_reference_loop(f, x0, lengths):
    """The lift's orbit kernel gives the one-call-per-step loop's bits,
    from a fresh slot and when it extends a stored shorter orbit."""
    n1, n2 = lengths
    ref = orbit_lift_reference(f, x0, n2).view(np.int64)
    assert np.array_equal(orbit_lift(f, x0, n2).view(np.int64), ref)
    g = dataclasses.replace(f)          # the same lift under a new slot key
    assert np.array_equal(orbit_lift(g, x0, n1).view(np.int64), ref[:n1 + 1])
    assert np.array_equal(orbit_lift(g, x0, n2).view(np.int64), ref)


@LIFT_PROPERTY
@given(smooth_map(), orbit_start, st.integers(0, 300))
def test_wrapped_lift_falls_back_to_one_call_per_step(f, x0, n):
    counted, calls = counting_lift(f)
    got = orbit_lift(counted, x0, n)
    assert np.array_equal(got.view(np.int64), orbit_lift(f, x0, n).view(np.int64))
    assert len(calls) == n and all(type(x) is float for x in calls)


@pytest.mark.parametrize("kind", ["rigid", "arnold"])
def test_catalog_lifts_carry_the_orbit_kernel(kind):
    f = make_map({"kind": kind, "alpha": 0.3, "amplitude": 0.5})
    assert callable(getattr(f.lift_eval, "orbit", None))
    empty = f.lift_eval.orbit(0.25, 0)
    assert type(empty) is np.ndarray and empty.dtype == np.float64
    assert empty.shape == (0,)


#: amplitude-0 catalog maps, whose orbit kernel is one ordered accumulate;
#: alpha = +-0.0 checks the signs where a zero z meets a zero step
FLAT_RECIPES = [{"kind": kind, "alpha": alpha, "amplitude": 0.0}
                for kind in ("rigid", "arnold")
                for alpha in (-2.5, -0.0, 0.0, 0.3, 37.25)]


def _kernel_matches_reference(kernel, f, n):
    """The kernel's n steps from every edge start have the bits of the
    one-call-per-step reference loop on f, in a float64 array."""
    for x0 in ORBIT_EDGE_STARTS:
        got = kernel(x0, n)
        ref = orbit_lift_reference(f, x0, n)[1:]
        if not (got.dtype == np.float64
                and np.array_equal(got.view(np.int64), ref.view(np.int64))):
            return False
    return True


@pytest.mark.parametrize("n", [0, 1, 2, 10_000])
@pytest.mark.parametrize("recipe", FLAT_RECIPES,
                         ids=lambda r: f"{r['kind']}-{r['alpha']}")
def test_amplitude_zero_kernel_matches_the_reference_loop(recipe, n):
    f = make_map(recipe)
    assert _kernel_matches_reference(f.lift_eval.orbit, f, n)
    assert _kernel_matches_reference(lambda z, n: orbit_lift(f, z, n)[1:], f, n)


def test_product_form_fails_the_amplitude_zero_check():
    # z + alpha * k rounds once, the loop once per step
    f = make_map({"kind": "rigid", "alpha": 0.3})
    assert not _kernel_matches_reference(
        lambda z, n: z + 0.3 * np.arange(1, n + 1), f, 10_000)


@pytest.mark.parametrize("kind", ["rigid", "arnold"])
def test_amplitude_zero_kernel_raises_where_the_loop_raises(kind):
    kernel = make_map({"kind": kind, "alpha": 0.3, "amplitude": 0.0}).lift_eval.orbit
    with pytest.raises(ValueError):
        kernel(math.nan, 3)
    for x0 in (math.inf, -math.inf):
        with pytest.raises(OverflowError):
            kernel(x0, 3)
    for x0 in (math.nan, math.inf, -math.inf):
        assert kernel(x0, 0).shape == (0,)
    # z_2 = +-inf: the loop floors z_0 .. z_(n-1), so it returns at n = 2
    # and raises from n = 3 on, without a numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e308, -1e308):
            f = make_map({"kind": kind, "alpha": alpha, "amplitude": 0.0})
            kernel = f.lift_eval.orbit
            for n in (1, 2):
                ref = orbit_lift_reference(f, 0.0, n)[1:]
                assert np.array_equal(kernel(0.0, n), ref)
            assert kernel(0.0, 2)[-1] == math.copysign(math.inf, alpha)
            for n in (3, 4, 100):
                with pytest.raises(OverflowError):
                    orbit_lift_reference(f, 0.0, n)
                with pytest.raises(OverflowError):
                    kernel(0.0, n)


@pytest.mark.parametrize("kind", ["rigid", "arnold"])
def test_non_finite_orbit_start_raises(kind):
    f = make_map({"kind": kind, "alpha": 0.3, "amplitude": 0.5})
    for diffeo in (f, counting_lift(f)[0]):
        with pytest.raises(ValueError):
            orbit_lift(diffeo, math.nan, 3)
        for x0 in (math.inf, -math.inf):
            with pytest.raises(OverflowError):
                orbit_lift(diffeo, x0, 3)


#: points where x - floor(x) is delicate: both zeros, a negative x whose
#: fractional part rounds to 1.0, and integers with their one-ulp neighbours
SMOOTH_EDGE_POINTS = [0.0, -0.0, -2.0 ** -60] + [
    float(v) for k in range(-3, 4)
    for v in (k, np.nextafter(k, -np.inf), np.nextafter(k, np.inf))]


def _argument_types(xs):
    """Each point as a float, an np.float64 and a 0-d array, each integral
    one also as an int and an np.int64, and all of them as 1-d arrays."""
    out = []
    for x in xs:
        out += [x, np.float64(x), np.array(x)]
        if x == int(x):
            out += [int(x), np.int64(int(x))]
    ints = [int(x) for x in xs if x == int(x)]
    return out + [np.array(xs), np.array(ints, dtype=np.int64)]


def _same_bits(a, b):
    """Both arrays of one shape, or both scalars (a 0-d argument's
    derivative was a float and is an np.float64), with the same bits."""
    return (isinstance(a, np.ndarray) == isinstance(b, np.ndarray)
            and np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64)))


@LIFT_PROPERTY
@example(alpha=0.0, amplitude=0.5, xs=[-2.0 ** -60])
@given(st.one_of(st.sampled_from((0.0, -0.0)), st.floats(0.0, 1.0, exclude_max=True)),
       st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       st.lists(st.floats(-3.0, 3.0), max_size=20))
def test_smooth_lifts_match_the_two_layer_reference(alpha, amplitude, xs):
    """make_map's one-layer closures give the bits of the former
    periodic_lift over displacement closures; rigid ignores the
    amplitude, and at amplitude 0 the Arnold map is the rigid rotation."""
    rigid = make_map({"kind": "rigid", "alpha": alpha, "amplitude": amplitude})
    arnold = make_map({"kind": "arnold", "alpha": alpha, "amplitude": amplitude})
    pairs = [(rigid, reference_map("rigid", alpha)),
             (arnold, reference_map("arnold", alpha, amplitude))]
    if amplitude == 0.0:
        pairs.append((arnold, pairs[0][1]))
    with np.errstate(invalid="ignore"):
        for x in _argument_types(SMOOTH_EDGE_POINTS + xs):
            for f, ref in pairs:
                assert _same_bits(f.lift_eval(x), ref.lift_eval(x))
                assert _same_bits(f.lift_derivative(x), ref.lift_derivative(x))

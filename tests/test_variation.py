"""Total, Zygmund and quadratic variation estimators."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _partition_oracles import (monotone_runs, qv_dp_reference, qv_oracle,
                                qv_scan_reference, tv_oracle, zv_dp_reference,
                                zv_oracle, zygmund_profile_reference)
from denjoylab import (IntervalFunction, NotDifferentiableError,
                       UnresolvedExtremaError, classify_regularity,
                       example_function, make_map, quadratic_variation)
from denjoylab.util import dyadic_grid
from denjoylab.variation import (MAX_ZV_DEPTH, _extrema, _quadratic_dp,
                                 _zygmund_dp, holder_bound,
                                 log_derivative_function, probe_depths,
                                 total_variation_estimate,
                                 zygmund_norm_estimate, zygmund_norm_profile,
                                 zygmund_variation_estimate)


def _fn(expr, label, lo=0.0, hi=1.0):
    return IntervalFunction(domain=(lo, hi), eval=expr, oracle=None, label=label)


SQUARE = _fn(lambda x: np.asarray(x, dtype=float) ** 2, "square")
SINE = _fn(lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float)), "sine")


class TestTotalVariation:
    def test_monotone_value(self):
        assert total_variation_estimate(SQUARE, 6) == pytest.approx(1.0)

    def test_oscillation_counts_every_swing(self):
        assert total_variation_estimate(SINE, 8) == pytest.approx(
            4.0, abs=1e-6)

    def test_first_example_is_exactly_two(self):
        assert total_variation_estimate(example_function("ex1", 10),
                                        10) == 2.0


class TestZygmundVariation:
    def test_square_attains_half_on_single_cell(self):
        # per-cell second difference is (b-a)^2 / 2, so coarser is bigger
        assert zygmund_variation_estimate(SQUARE, 6) == pytest.approx(0.5)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        grid = dyadic_grid(0.0, 1.0, 3)
        for _ in range(25):
            a, b, c = rng.uniform(-2.0, 2.0, size=3)
            f = _fn(lambda x, a=a, b=b, c=c: a * np.sin(2 * np.pi * np.asarray(x))
                    + b * np.asarray(x) ** 2 + c * np.asarray(x), "smooth")
            est = zygmund_variation_estimate(f, 3)
            assert est == pytest.approx(zv_oracle(f, grid), abs=1e-12)

    def test_piecewise_linear_equality(self):
        rng = np.random.default_rng(5)
        grid = dyadic_grid(0.0, 1.0, 3)
        for _ in range(25):
            knots = rng.uniform(-1.0, 1.0, size=9)
            f = _fn(lambda x, k=knots: np.interp(np.asarray(x), grid, k),
                    "pw-linear")
            est = zygmund_variation_estimate(f, 3)
            assert est == pytest.approx(zv_oracle(f, grid), abs=1e-12)


class TestQuadraticVariation:
    def test_monotone_square_of_rise(self):
        assert quadratic_variation(SQUARE, 5) == pytest.approx(1.0)

    def test_sine_runs(self):
        # runs rise 1, fall 2, rise 1: squared oscillations sum to 6
        assert quadratic_variation(SINE, 5) == pytest.approx(6.0)

    def test_matches_enumeration_on_samples(self):
        rng = np.random.default_rng(23)
        grid = dyadic_grid(0.0, 1.0, 3)
        for _ in range(20):
            a, b = rng.uniform(-1.5, 1.5, size=2)
            f = _fn(lambda x, a=a, b=b: a * np.sin(2 * np.pi * np.asarray(x))
                    + b * np.asarray(x), "smooth")
            vals = np.asarray(f.eval(grid), dtype=float)
            try:
                est = quadratic_variation(f, 3)
            except UnresolvedExtremaError:
                continue
            assert est == pytest.approx(qv_oracle(vals), abs=1e-12)

    def test_unresolved_dip_raises(self):
        # one grid sample dips below an otherwise rising profile, so a
        # single interior cell holds two uncertified extrema
        dip = _fn(lambda x: np.asarray(x) - 0.5 * np.maximum(
            0.0, 1.0 - 32.0 * np.abs(np.asarray(x) - 0.5)), "dip")
        with pytest.raises(UnresolvedExtremaError):
            quadratic_variation(dip, 3)

    # few distinct values, so repeats, flat steps and NaN runs are common
    @given(st.integers(1, 6).flatmap(lambda r: st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan])
        | st.floats(-2.0, 2.0), min_size=2**r + 1, max_size=2**r + 1)))
    def test_extrema_match_the_scan(self, values):
        vals = np.array(values)
        runs = monotone_runs(np.diff(vals))
        assert _extrema(np.diff(vals)).tolist() == [0] + [e for _, e in runs]
        resolution = int(math.log2(vals.size - 1))
        try:
            got = quadratic_variation(_fn(lambda x: vals, "samples"),
                                      resolution)
        except UnresolvedExtremaError as err:
            got = err.cell
        assert repr(got) == repr(qv_scan_reference(
            vals, dyadic_grid(0.0, 1.0, resolution)))

    def test_third_example_partial_sums(self):
        for d in (4, 8, 12):
            f = example_function("ex3", d)
            expected = sum(2.0 / n**2 for n in range(1, d + 1))
            assert quadratic_variation(f, d + 3) == pytest.approx(
                expected, abs=1e-12)


def _kernel_input(data, denjoy50):
    """Fine samples (2**(depth + 1) + 1 of them) of a drawn function, some
    set to NaN, for the partition DPs at a drawn depth 1..10."""
    depth = data.draw(st.integers(1, 10), label="depth")
    kind = data.draw(st.sampled_from(
        ["pw-linear", "ex1", "ex2", "ex3", "denjoy", "arnold"]), label="kind")
    if kind == "pw-linear":
        ys = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=12))
        knots = np.linspace(0.0, 1.0, len(ys))
        f = _fn(lambda x: np.interp(np.asarray(x), knots, ys), kind)
    elif kind.startswith("ex"):
        f = example_function(kind, data.draw(st.integers(0, 12)))
    else:
        lo = data.draw(st.floats(-1.0, 1.0))
        hi = lo + data.draw(st.floats(1e-3, 1.0))
        diffeo = denjoy50.base if kind == "denjoy" else make_map({
            "kind": "arnold", "alpha": data.draw(st.floats(0.0, 1.0)),
            "amplitude": data.draw(st.floats(0.0, 0.9))})
        f = log_derivative_function(diffeo, lo, hi)
    lo, hi = f.domain
    vals = np.asarray(f.eval(dyadic_grid(lo, hi, depth + 1)), dtype=float)
    nans = data.draw(st.lists(st.integers(0, vals.size - 1), max_size=3))
    vals[nans] = math.nan
    return depth, vals


# p = 33 breakpoints: rows 1-16 and 17-32 are two blocks of the DP kernel.
# Each case sets (fine samples of the midpoint DP, extrema of the QV DP)
# by index; inf + -inf and inf - inf make a NaN term of one pair.
_PLACEMENTS = {
    "nan-in-outer-columns-only": ({33: math.nan}, {3: math.inf, 20: math.inf}),
    "nan-in-a-triangle-only": ({36: math.inf, 50: -math.inf},
                               {18: math.inf, 25: math.inf}),
    "nan-in-the-first-row": ({1: math.nan}, {0: math.inf, 1: math.inf}),
    "nan-in-a-block-first-row": ({34: math.nan}, {17: math.nan}),
    "inf-minus-inf": ({36: math.inf, 43: math.inf},
                      {18: -math.inf, 25: -math.inf}),
    "inf-without-nan": ({36: math.inf}, {18: math.inf}),
}


class TestPartitionKernels:
    """Both DPs against their former loops, compared by repr so that
    every bit counts and NaN equals NaN."""

    @pytest.mark.parametrize("p", [2, 3, 16, 17, 18, 33])
    def test_sizes_around_block_edges(self, p):
        rng = np.random.default_rng(p)
        for _ in range(5):
            fine, ext = rng.normal(size=2 * p - 1), rng.normal(size=p)
            assert repr(_zygmund_dp(fine)) == repr(zv_dp_reference(fine))
            assert repr(_quadratic_dp(ext)) == repr(qv_dp_reference(ext))

    @pytest.mark.parametrize("depth", [11, 12])
    def test_deep_inputs(self, depth, denjoy50):
        for f in (example_function("ex1"), log_derivative_function(denjoy50.base)):
            lo, hi = f.domain
            fine = np.asarray(f.eval(dyadic_grid(lo, hi, depth + 1)), dtype=float)
            assert repr(zygmund_variation_estimate(f, depth)) == repr(
                zv_dp_reference(fine))
        ext = np.random.default_rng(depth).normal(size=2**depth + 1)
        assert repr(_quadratic_dp(ext)) == repr(qv_dp_reference(ext))

    @pytest.mark.parametrize("case", sorted(_PLACEMENTS))
    def test_nan_and_inf_placements(self, case):
        rng = np.random.default_rng(33)
        fine, ext = rng.normal(size=65), rng.normal(size=33)
        for values, placed in zip((fine, ext), _PLACEMENTS[case]):
            values[list(placed)] = list(placed.values())
        with np.errstate(invalid="ignore"):
            assert repr(_zygmund_dp(fine)) == repr(zv_dp_reference(fine))
            assert repr(_quadratic_dp(ext)) == repr(qv_dp_reference(ext))

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_zygmund_dp_matches_the_former_loop(self, data, denjoy50):
        depth, vals = _kernel_input(data, denjoy50)
        got = zygmund_variation_estimate(_fn(lambda x: vals, "samples"), depth)
        assert repr(got) == repr(zv_dp_reference(vals))

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_quadratic_dp_matches_the_former_loop(self, data, denjoy50):
        depth, vals = _kernel_input(data, denjoy50)
        try:
            got = quadratic_variation(_fn(lambda x: vals, "samples"), depth + 1)
        except UnresolvedExtremaError as err:
            got = err.cell
        assert repr(got) == repr(qv_scan_reference(
            vals, dyadic_grid(0.0, 1.0, depth + 1)))

    @given(x=st.floats(-3.0, 3.0), alpha=st.floats(0.0, 1.0),
           amplitude=st.floats(0.0, 0.9))
    def test_scalar_log_derivative_matches_the_0d_path(self, denjoy50, x,
                                                       alpha, amplitude):
        arnold = make_map({"kind": "arnold", "alpha": alpha,
                           "amplitude": amplitude})
        for diffeo in (denjoy50.base, arnold):
            f = log_derivative_function(diffeo)
            zero_d = f(np.array(x))
            assert repr(f(x)) == repr(zero_d)
            assert repr(f(np.float64(x))) == repr(zero_d)

    def test_scalar_log_derivative_matches_on_a_dense_grid(self, denjoy50):
        # dense enough that a last-bit difference of the log shows
        xs = np.linspace(-1.0, 2.0, 6001).tolist()
        arnold = make_map({"kind": "arnold", "alpha": 0.3, "amplitude": 0.8})
        for diffeo in (denjoy50.base, arnold):
            f = log_derivative_function(diffeo)
            assert ([repr(f(x)) for x in xs]
                    == [repr(f(np.array(x))) for x in xs])


class TestTotalVariationOracle:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(17)
        grid = dyadic_grid(0.0, 1.0, 3)
        for _ in range(20):
            knots = rng.uniform(-1.0, 1.0, size=9)
            f = _fn(lambda x, k=knots: np.interp(np.asarray(x), grid, k),
                    "pw-linear")
            vals = np.asarray(f.eval(grid), dtype=float)
            assert total_variation_estimate(f, 3) == pytest.approx(
                tv_oracle(vals), abs=1e-12)


class TestZygmundNorm:
    def test_first_example_grows_geometrically(self):
        prof = zygmund_norm_profile(example_function("ex1", 10), 7)
        ratios = prof[2:] / prof[1:-1]
        assert np.all(ratios >= math.sqrt(2.0) * 0.9)

    def test_second_example_saturates(self):
        vals = [zygmund_norm_estimate(example_function("ex2", d), 8)
                for d in range(4, 17)]
        assert max(vals) == 24.0
        assert vals[3:] == [24.0] * 10

    def test_second_example_profile_grows_by_four_per_scale(self):
        # every layer coarser than the step kinks at the dyadic point, so
        # the tent sum is not in the Zygmund class
        prof = zygmund_norm_profile(example_function("ex2", 20), 18)
        assert prof.tolist() == [4.0, 4.0] + [4.0 * (k - 2) for k in range(3, 19)]

    def test_estimate_is_profile_max(self):
        f = example_function("ex1", 8)
        assert zygmund_norm_estimate(f, 6) == pytest.approx(
            float(np.max(zygmund_norm_profile(f, 6))))

    @settings(deadline=None, max_examples=60)
    @given(domain=st.sampled_from([(0.0, 1.0), (-1.0, 1.0)]),
           scales=st.integers(1, 10), data=st.data())
    def test_one_sample_matches_the_three_evaluation_loop(self, domain,
                                                          scales, data):
        lo, hi = domain
        xs = data.draw(st.lists(st.floats(lo, hi), max_size=10), label="knots")
        knots = np.unique([lo, hi, *xs])
        ys = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=knots.size,
                                max_size=knots.size), label="values")
        f = _fn(lambda x: np.interp(np.asarray(x), knots, ys), "pw-linear",
                lo, hi)
        assert repr(zygmund_norm_profile(f, scales).tolist()) == repr(
            zygmund_profile_reference(f, scales).tolist())


class TestHolderBound:
    # zero or at least 1e-100: the bound then stays a normal float, where
    # a relative tolerance holds
    @settings(max_examples=200, deadline=None)
    @given(B=st.just(0.0) | st.floats(1e-100, 1e6),
           t=st.just(0.0) | st.floats(1e-100, 1.0),
           d=st.just(0.0) | st.floats(1e-100, 1e3) | st.floats(-1e3, -1e-100),
           alpha=st.floats(0.001, 0.999))
    def test_matches_the_plain_float_loop(self, B, t, d, alpha):
        ref = max((abs(d) + n * B) * (t * 2.0 ** -n) ** (1.0 - alpha)
                  for n in range(600))
        # numpy's array pow and the scalar pow may differ by an ulp or two
        assert holder_bound(B, t, d, alpha) == pytest.approx(
            ref, rel=4 * np.finfo(float).eps, abs=0.0)

    def test_the_report_field_is_the_bound(self):
        rep = classify_regularity(SINE, 8)
        base = abs(float(SINE.eval(1.0)) - float(SINE.eval(0.0)))
        assert rep.holder == (0.5, holder_bound(rep.zyg_norm, 1.0, base, 0.5))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_alpha_outside_the_open_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            holder_bound(1.0, 0.5, 0.1, alpha)

    def test_negative_budget(self):
        with pytest.raises(ValueError, match="B must be non-negative"):
            holder_bound(-1e-300, 0.5, 0.1, 0.5)


class TestClassifyRegularity:
    def test_first_example(self):
        rep = classify_regularity(example_function("ex1", 8), 8)
        assert rep.tv == pytest.approx(2.0)
        assert rep.diverging == {"tv": False, "zv": False, "zyg_norm": True}
        assert rep.holder is None
        assert set(rep.trends) == {"tv", "zv", "zyg_norm"}
        assert rep.describe("tv") == "2"

    def test_second_example(self):
        rep = classify_regularity(example_function("ex2", 10), 10)
        assert rep.diverging["tv"] is True
        assert rep.diverging["zyg_norm"] is False
        assert rep.holder is not None
        alpha, bound = rep.holder
        assert 0.0 < alpha < 1.0 and bound > 0.0

    def test_third_example(self):
        rep = classify_regularity(example_function("ex3", 8), 8)
        assert rep.qv == pytest.approx(sum(2.0 / n**2 for n in range(1, 9)))
        assert rep.diverging["zv"] is True

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "denjoy"])
    def test_zyg_norm_trend_reads_one_profile(self, name, denjoy50):
        # every trend is read from one sample, and equals the public
        # estimator that samples f on its own
        f = (log_derivative_function(denjoy50.base) if name == "denjoy"
             else example_function(name, 12))
        probes = probe_depths(12)
        assert classify_regularity(f, 12).trends == {
            "tv": tuple(total_variation_estimate(f, d) for d in probes),
            "zv": tuple(zygmund_variation_estimate(f, min(d, MAX_ZV_DEPTH))
                        for d in probes),
            "zyg_norm": tuple(zygmund_norm_estimate(f, d) for d in probes),
        }

    def test_one_sample_per_run(self):
        f = log_derivative_function(make_map(
            {"kind": "arnold", "alpha": 0.41, "amplitude": 0.6}))
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return f.eval(x)

        classify_regularity(_fn(counted, "counted"), 8)
        # the level-9 sample, then the quadratic variation's own level-8
        # one, which resolves its extrema on the first try
        assert sizes == [513, 257]

    def test_checks_hold_for_smooth_input(self):
        rep = classify_regularity(SQUARE, 6)
        assert all(rep.checks.values())

    def test_describe_rejects_unknown_metric(self):
        rep = classify_regularity(SQUARE, 4)
        with pytest.raises(AttributeError):
            rep.describe("depths")


class TestLogDerivativeInput:
    def test_rigid_rotation_is_flat(self, golden_rotation):
        f = log_derivative_function(golden_rotation)
        assert total_variation_estimate(f, 6) == pytest.approx(0.0, abs=1e-12)

    def test_matches_log_of_derivative(self):
        g = make_map({"kind": "arnold", "alpha": 0.3, "amplitude": 0.5})
        f = log_derivative_function(g)
        xs = np.linspace(0.0, 1.0, 33)
        assert np.allclose(np.asarray(f.eval(xs)),
                           np.log(np.asarray(g.lift_derivative(xs))), atol=1e-12)

    def test_interval_function_input(self):
        # only a circle map carries a derivative
        sq = _fn(lambda x: x * x, "sq", 1.0, 2.0)
        with pytest.raises(NotDifferentiableError, match=(
                "^no derivative: IntervalFunction is not a CircleDiffeo$")):
            log_derivative_function(sq, 1.0, 2.0)

    def test_missing_derivative_raises_when_built(self):
        rigid = make_map({"kind": "rigid", "alpha": 0.3})
        with pytest.raises(NotDifferentiableError,
                           match=r"^map 'rigid\(0.3\)' is not C1: no derivative stored$"):
            log_derivative_function(dataclasses.replace(rigid, lift_derivative=None))

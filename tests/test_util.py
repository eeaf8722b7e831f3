"""Circle arithmetic, quadrature and continued-fraction helpers."""
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from denjoylab import Arc
from denjoylab.util import (adaptive_simpson, ccw_gap, circle_dist,
                            continued_fraction, dyadic_grid, frac)


def test_frac_wraps_into_unit_interval():
    assert frac(1.25) == pytest.approx(0.25)
    assert frac(-0.25) == pytest.approx(0.75)
    assert frac(3.0) == 0.0
    out = frac(np.array([-1.5, 0.5, 2.75]))
    assert np.allclose(out, [0.5, 0.5, 0.75])


def test_frac_of_a_tiny_negative_is_zero():
    # x - floor(x) rounds to 1.0 here; one ulp further out it does not
    for x in (-1e-20, -2.0 ** -54, -5e-324):
        value = frac(x)
        assert value == 0.0 and type(value) is np.float64
    assert frac(-2.0 ** -53) == 1.0 - 2.0 ** -53
    out = frac(np.array([-1e-20, -2.0 ** -53, 0.5]))
    assert out.tolist() == [0.0, 1.0 - 2.0 ** -53, 0.5]
    assert Arc(-1e-20, 0.3).start == 0.0


@example(-1e-20)
@example(-0.0)
@given(st.floats())
def test_frac_scalar_path_matches_array_path_bitwise(x):
    with np.errstate(invalid="ignore"):
        ref = frac(np.array([x]))
        for scalar in (x, np.float64(x)):
            value = frac(scalar)
            assert type(value) is np.float64
            assert np.array_equal([value], ref, equal_nan=True)
            assert np.signbit(value) == np.signbit(ref[0])


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_circle_dist_is_symmetric_and_bounded(a, b):
    d = circle_dist(a, b)
    assert 0.0 <= d <= 0.5 + 1e-12
    assert d == pytest.approx(circle_dist(b, a))


def test_circle_dist_picks_shorter_way_round():
    assert circle_dist(0.1, 0.9) == pytest.approx(0.2)
    assert circle_dist(0.0, 0.5) == pytest.approx(0.5)


def test_ccw_gap_is_oriented():
    assert ccw_gap(0.2, 0.5) == pytest.approx(0.3)
    assert ccw_gap(0.5, 0.2) == pytest.approx(0.7)
    assert ccw_gap(0.9, 0.1) == pytest.approx(0.2)


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12)
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-10)
    # integrand of the log cross-ratio identity on a sample cell
    val = adaptive_simpson(lambda x: 1.0 / (x - 2.0) ** 2, 0.0, 1.0)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_adaptive_simpson_returns_nan_without_refining_it():
    calls = []

    def half_nan(x):
        calls.append(x)
        return math.nan if x > 0.5 else 1.0

    assert math.isnan(adaptive_simpson(half_nan, 0.0, 1.0))
    # one split of the whole interval already shows a NaN correction
    assert len(calls) == 5


def test_dyadic_grid_shape_and_endpoints():
    g = dyadic_grid(0.0, 1.0, 3)
    assert g.shape == (9,)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.allclose(np.diff(g), 1.0 / 8.0)
    h = dyadic_grid(0.25, 0.75, 1)
    assert np.allclose(h, [0.25, 0.5, 0.75])


def test_circle_dist_across_the_seam():
    assert circle_dist(0.999, 0.001) <= 0.01
    assert not circle_dist(0.4, 0.6) <= 0.1


def test_continued_fraction_of_golden_mean_is_all_ones():
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    terms = continued_fraction(phi, max_terms=12)
    assert terms[0] == 0
    assert all(a == 1 for a in terms[1:])


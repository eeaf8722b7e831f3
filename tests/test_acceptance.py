"""End-to-end acceptance suite.

One test per numbered criterion, at the stated tolerances and time
budgets, so that a pytest -v run reports a single pass or fail line for
each.  Random draws use fixed seeds; wall-clock limits are asserted with
time.monotonic.
"""
import functools
import math
import time

import numpy as np
import pytest

from _oracles import compose, delta_and_bound, log_cr_first_quadrature
from _partition_oracles import qv_oracle, tv_oracle, zv_oracle
from denjoylab import (Arc, FourTuple, IntervalFunction,
                       UnresolvedExtremaError, arc_image, birkhoff_estimate,
                       build_semiconjugacy, classify_regularity,
                       conjugacy_verdict, cross_ratios,
                       eps_scale, example_function, intersection_multiplicity,
                       interval_orbit, iterate_distortion_bound,
                       koebe_log_ratio,
                       log_derivative_function, macroscopic_delta, make_map,
                       natural_neighborhood, orbit_lift,
                       predecessor_successor_table, pullback_arcs,
                       quadratic_variation, takagi_total_variation,
                       total_variation_estimate,
                       validate_lift, wandering_verdict,
                       zygmund_norm_estimate, zygmund_norm_profile,
                       zygmund_variation_estimate)
from denjoylab.util import circle_dist, frac

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT2_M1 = math.sqrt(2.0) - 1.0

# arnold tuning frozen so the rotation number sits on the golden mean to
# a few parts in 1e6 after 1e4 iterates (no low-period resonance nearby)
TUNED_ARNOLD = ((0.3, 0.6166966281891195), (0.5, 0.614533432652604))


def _piecewise_linear(knots, vals):
    return IntervalFunction(
        domain=(0.0, 1.0),
        eval=lambda x, k=knots, v=vals: np.interp(x, k, v),
        label="piecewise-linear")


def test_criterion_01_standard_tuples_and_quadrature_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    total = 1_000_000
    chunk = 100_000
    for _ in range(total // chunk):
        a = rng.uniform(0.0, 0.5, size=chunk)
        s = rng.uniform(1e-3, 0.15, size=chunk)
        for i in range(chunk):
            first, _ = cross_ratios(
                FourTuple(a[i], a[i] + s[i], a[i] + 2.0 * s[i],
                          a[i] + 3.0 * s[i]))
            assert abs(first - 4.0 / 3.0) <= 1e-12
    for _ in range(100):
        base = rng.uniform(0.0, 0.3)
        gaps = rng.uniform(0.02, 0.2, size=3)
        pts = base + np.concatenate(([0.0], np.cumsum(gaps)))
        t = FourTuple(*pts)
        first, _ = cross_ratios(t)
        assert abs(math.log(first) - log_cr_first_quadrature(t)) <= 1e-6
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_second_differences_within_variation_budget():
    rng = np.random.default_rng(202)
    knots = np.linspace(0.0, 1.0, 33)
    grid = np.linspace(0.0, 1.0, 257)
    violations = 0
    for _ in range(500):
        vals = rng.uniform(-1.0, 1.0, size=33)
        phi = _piecewise_linear(knots, vals)
        zv = zygmund_variation_estimate(phi, 8)
        # pointwise second differences are dominated by the variation
        pairs = rng.integers(0, grid.size, size=(100, 2))
        for i, j in pairs:
            if i == j:
                continue
            x, y = sorted((float(grid[i]), float(grid[j])))
            mid = 0.5 * (x + y)
            term = abs(float(phi.eval(x)) + float(phi.eval(y))
                       - 2.0 * float(phi.eval(mid)))
            violations += term > zv + 1e-12
        # trapezoid values at successive dyadic levels deviate by at
        # most the variation split across scales
        areas = []
        for k in range(14):
            g = np.linspace(0.0, 1.0, 2 ** k + 1)
            areas.append(float(np.trapezoid(phi.eval(g), g)))
        for k in range(13):
            n_k = abs(areas[k] - areas[k + 1])
            violations += n_k > zv / 2.0 ** (k + 2) + 1e-12
    assert violations == 0


def test_criterion_03_remainder_factor_profile():
    eps = np.linspace(-0.99, 100.0, 10_002)[1:-1]
    vals = np.array([delta_and_bound(float(e), float(e))[0] for e in eps])
    assert vals.size == 10_000
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)
    assert abs(delta_and_bound(1e-9, 1e-9)[0] - 1.0) <= 1e-6
    assert abs(delta_and_bound(1.0, 1.0)[0]
               - 2.0 * (1.0 - math.log(2.0))) <= 1e-12


def test_criterion_04_example_catalog_signatures():
    t0 = time.monotonic()
    ex1 = example_function("ex1")
    assert total_variation_estimate(ex1, 8) == 2.0
    profile = zygmund_norm_profile(ex1, 7)
    ratios = [profile[i + 1] / profile[i]
              for i in range(len(profile) - 1) if profile[i] > 0.0]
    assert all(r >= math.sqrt(2.0) * 0.9 for r in ratios)

    for d in (4, 8, 12):
        ex3 = example_function("ex3", depth=d)
        closed = 2.0 * sum(1.0 / n ** 2 for n in range(1, d + 1))
        assert abs(quadratic_variation(ex3, d + 3) - closed) <= 1e-12
    for d in (8, 12):
        rep = classify_regularity(example_function("ex3", depth=d), d)
        assert rep.diverging["zv"]

    # a bound over 8 scales only: the tent sum is not in the Zygmund
    # class, and its profile grows by 4 per scale up to its depth
    norms = [zygmund_norm_estimate(example_function("ex2", depth=d), 8)
             for d in range(4, 17)]
    assert max(norms) <= 24.0 + 1e-9

    assert time.monotonic() - t0 < 60.0

    # the variation of the tent sums.  Exact resampling at depth d+2
    # captures every kink, so the estimate equals the closed form
    # 2 E|S_{d+1}| (S a simple random walk): unbounded, but growing like
    # sqrt(d) because slopes of different levels cancel.
    for d in range(1, 7):
        measured = total_variation_estimate(
            example_function("ex2", depth=d), d + 2)
        closed = takagi_total_variation(d)
        assert measured == closed, (
            f"depth {d}: measured total variation {measured}, "
            f"closed form {closed}")


def test_criterion_05_estimators_match_exhaustive_partition_search():
    rng = np.random.default_rng(505)
    coarse = np.linspace(0.0, 1.0, 5)
    grid = np.linspace(0.0, 1.0, 9)
    for trial in range(200):
        linear = trial % 2 == 0
        if linear:
            f = _piecewise_linear(coarse, rng.uniform(-1.0, 1.0, size=5))
        else:
            a = rng.uniform(0.5, 1.0)
            b = rng.uniform(-0.5, 0.5)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            f = IntervalFunction(
                domain=(0.0, 1.0),
                eval=lambda x, a=a, b=b, ph=ph: (
                    a * np.sin(2.0 * math.pi * np.asarray(x) + ph)
                    + b * np.asarray(x)),
                label="smooth")
        sampled = np.array([float(f.eval(x)) for x in grid])
        assert abs(total_variation_estimate(f, 3) - tv_oracle(sampled)) <= 1e-12
        assert abs(quadratic_variation(f, 3) - qv_oracle(sampled)) <= 1e-12
        est = zygmund_variation_estimate(f, 3)
        oracle = zv_oracle(f, grid)
        assert est <= oracle + 1e-12
        if linear:
            assert abs(est - oracle) <= 1e-12


def test_criterion_06_denjoy_pipeline(denjoy50):
    t0 = time.monotonic()
    n = 1000
    report = validate_lift(denjoy50.base, grid_size=2048)
    assert report.periodicity_defect <= 1e-8
    assert report.monotonicity_defect == 0.0
    assert report.increment_defect <= 1e-8
    assert report.derivative_min > 0.0

    verdict = wandering_verdict(denjoy50.base, denjoy50.wandering_arc, 50)
    assert verdict.kind == "wandering-up-to-n"
    assert verdict.min_length > 0.0

    semi = build_semiconjugacy(denjoy50.base, denjoy50.cantor_anchor, n)
    mids = {m: denjoy50.insertion_arc(m).midpoint()
            for m in range(-denjoy50.truncation, denjoy50.truncation + 1)}
    for arc, _ in semi.plateaus:
        assert any(arc.contains(mid, tol=1e-9) for mid in mids.values()), (
            f"plateau {arc} covers no inserted arc")
    wide = [m for m in mids
            if denjoy50.insertion_arc(m).length > 10.0 / n]
    for m in wide:
        assert any(arc.contains(mids[m], tol=1e-9)
                   for arc, _ in semi.plateaus), (
            f"inserted arc {m} has no plateau above it")

    assert conjugacy_verdict(denjoy50, n).kind == "wandering-interval-found"

    rotation = birkhoff_estimate(denjoy50.base, denjoy50.cantor_anchor, n)
    assert abs(rotation.value - denjoy50.alpha) <= 2.0 / n
    assert time.monotonic() - t0 < 30.0


def test_criterion_07_pullback_multiplicity_stays_bounded(denjoy50,
                                                          golden_rotation):
    wandering = denjoy50.insertion_arc(0)
    denjoy_arcs = [wandering] + interval_orbit(denjoy50.base, wandering, 50)
    denjoy_table = predecessor_successor_table(denjoy_arcs)

    centers = [float(frac(k * GOLDEN)) for k in range(61)]
    rigid_arcs = [Arc(c - 1e-4, c + 1e-4) for c in centers]
    rigid_table = predecessor_successor_table(rigid_arcs)

    tested = 0
    worst = 0
    for table, diffeo, count in ((denjoy_table, denjoy50.base,
                                  len(denjoy_arcs)),
                                 (rigid_table, golden_rotation,
                                  len(rigid_arcs))):
        for index in range(count):
            if tested >= 100 or table.natural_nbhd[index] is None:
                continue
            family = pullback_arcs(diffeo,
                                   natural_neighborhood(table, index), index)
            mult = intersection_multiplicity(family)
            assert mult <= 15
            worst = max(worst, mult)
            tested += 1
    assert tested == 100
    print(f"max pullback intersection multiplicity over {tested} "
          f"indices: {worst}")


def _distortion_sup(diffeo, arc, samples=40):
    xs = np.linspace(arc.start, arc.start + arc.length, samples)
    worst = 0.0
    for i in range(samples - 1):
        for j in range(i + 1, samples):
            worst = max(worst, abs(koebe_log_ratio(diffeo, float(xs[i]),
                                                   float(xs[j]))))
    return worst


def test_criterion_08_macroscopic_scale_constants(golden_rotation):
    first = macroscopic_delta(0.0, 1.0)
    assert abs(first.delta - 1.0 / 7.0) <= 1e-12

    bs = np.linspace(0.0, 3.0, 20)
    epss = np.logspace(-2.0, 1.0, 20)
    table = np.array([[macroscopic_delta(float(b), float(e)).delta
                       for e in epss] for b in bs])
    assert np.all(np.diff(table, axis=0) <= 1e-15)   # shrinks with budget
    assert np.all(np.diff(table, axis=1) >= -1e-15)  # grows with scale

    arnold = make_map({"kind": "arnold", "alpha": 0.618, "amplitude": 0.3})
    rng = np.random.default_rng(808)
    for diffeo, steps in ((golden_rotation, 1), (arnold, 1), (arnold, 3)):
        iterated = functools.reduce(compose, [diffeo] * steps)
        for _ in range(25):
            start = rng.uniform(0.0, 1.0)
            width = rng.uniform(0.05, 0.15)
            outer = Arc(start, start + width)
            pad = rng.uniform(0.2, 0.35) * width
            inner = Arc(start + pad, start + width - pad)
            budget = 0.0
            pushed = outer
            for _ in range(steps):
                budget += _distortion_sup(diffeo, pushed)
                pushed = arc_image(diffeo, pushed)
            image_eps = eps_scale(arc_image(iterated, inner),
                                  arc_image(iterated, outer))
            constants = macroscopic_delta(budget, image_eps)
            assert eps_scale(inner, outer) >= constants.delta - 1e-12


def test_criterion_09_iterate_distortion_budget(denjoy50):
    base = denjoy50.base
    home = denjoy50.wandering_arc
    s, width = home.start, home.length
    tuple_ = FourTuple(s + 0.2 * width, s + 0.4 * width,
                       s + 0.6 * width, s + 0.8 * width)
    arcs = [home] + interval_orbit(base, home, 29)
    measured, budget = iterate_distortion_bound(base, 30, tuple_, arcs)
    assert abs(measured) <= budget

    # chain-rule reassembly against a directly composed 30th iterate
    composed = functools.reduce(compose, [base] * 30)
    direct = koebe_log_ratio(composed, tuple_.a, tuple_.d)
    assert abs(direct - measured) <= 1e-8


def test_criterion_10_smooth_conjugacy_positive_control():
    t0 = time.monotonic()
    for amplitude, alpha0 in TUNED_ARNOLD:
        assert amplitude <= 0.9
        diffeo = make_map({"kind": "arnold", "alpha": alpha0,
                           "amplitude": amplitude})
        x0 = 0.1
        lifts = orbit_lift(diffeo, x0, 1000)
        closest_return = min(float(circle_dist(frac(lifts[q]), x0))
                             for q in range(1, 1001))
        assert closest_return > 1e-9

        assert conjugacy_verdict(diffeo, 10_000).kind == "conjugate-evidence"
        semi = build_semiconjugacy(diffeo, x0, 10_000)
        assert semi.plateaus == ()
        assert abs(semi.alpha - GOLDEN) <= 1e-3

        report = classify_regularity(log_derivative_function(diffeo), 8)
        assert not report.diverging["zv"]
        assert not report.diverging["tv"]
        assert math.isfinite(report.qv)
    assert time.monotonic() - t0 < 60.0

"""Cross ratios, their distortion under maps, and the distortion budget.

The central quantity is the log Koebe ratio
log h'(x) + log h'(y) - 2 log[h']_xy with [h']_xy the increment quotient
(h(y) - h(x))/(y - x).  It splits exactly into a midpoint-vs-average part
controlled by Zygmund variation and a Jensen-gap part controlled by
quadratic variation; summing the split along disjoint orbit intervals
gives an explicit bound on the distortion of an iterate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateTupleError, NonMonotoneMapError,
                     OverlappingArcsError)
from .maps import CircleDiffeo, first_overlap, orbit_lift
from .util import adaptive_simpson
from .variation import (_derivative, _qv_resolved, log_derivative_function,
                        zygmund_variation_estimate)

#: spacing below which a 4-tuple is treated as degenerate
MIN_SPACING = 1e-14
#: |eps| below which the remainder function uses its Taylor series
SERIES_CUTOFF = 1e-4
#: quadrature tolerance for averages of log-derivatives
QUAD_TOL = 1e-10
#: partition depth for the variation budgets inside decompose_ab
BREAKDOWN_DEPTH = 9
#: partition depth for per-arc budgets inside iterate_distortion_bound
ARC_BUDGET_DEPTH = 7
#: derivative samples behind the range ratio of term_b_constant
TERM_B_SAMPLES = 257
#: seeded random inner pairs per level in crd_variation_estimate
CRD_INNER_SAMPLES = 8
#: points per lift call in crd_variation_estimate (256 KiB of floats)
CRD_BATCH_POINTS = 2 ** 15


@dataclass(frozen=True)
class FourTuple:
    """Four strictly increasing reals a < b < c < d."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = pts = self._floats()
        if not (a < b < c < d):
            raise ValueError(f"tuple must be strictly increasing, got {pts}")
        if min(b - a, c - b, d - c) < MIN_SPACING:
            raise DegenerateTupleError(f"tuple spacing below {MIN_SPACING}: {pts}")

    def _floats(self) -> tuple[float, float, float, float]:
        # plain floats: scalar numpy arithmetic costs several times more
        return float(self.a), float(self.b), float(self.c), float(self.d)


def _second_ratio(a, b, c, d):
    """(c-b)(d-a)/((b-a)(d-c)) on floats or elementwise on arrays."""
    return (c - b) * (d - a) / ((b - a) * (d - c))


def cross_ratios(t: FourTuple) -> tuple[float, float]:
    """Both cross ratios of the tuple.

    The first is (d-b)(c-a)/((c-b)(d-a)), the second
    (c-b)(d-a)/((b-a)(d-c)); they satisfy first = 1 + 1/second.
    """
    a, b, c, d = t._floats()
    first = (d - b) * (c - a) / ((c - b) * (d - a))
    return first, _second_ratio(a, b, c, d)


def koebe_log_ratio(h, x: float, y: float) -> float:
    """log h'(x) + log h'(y) - 2 log[h']_xy of a C1 circle map h on x < y.

    [h']_xy is the exact increment quotient of the lift, so rigid
    rotations give exactly zero.
    """
    return _koebe_log_ratio(h, x, y, *_lift_pair(h, x, y))


def _lift_pair(h, x: float, y: float) -> tuple[float, float]:
    """The images h(x), h(y) of a pair x < y, from one two-point lift of a
    circle diffeomorphism."""
    if not x < y:
        raise ValueError(f"need x < y, got {x}, {y}")
    hx, hy = h.lift_eval(np.array([x, y]))
    if not hx < hy:
        raise NonMonotoneMapError(f"map is not increasing on {(x, y)}")
    return float(hx), float(hy)


def _koebe_log_ratio(h, x: float, y: float, hx: float, hy: float) -> float:
    """koebe_log_ratio on x < y from the images hx = h(x) and hy = h(y)."""
    deriv = _derivative(h)
    dx, dy = float(deriv(x)), float(deriv(y))
    if dx <= 0.0 or dy <= 0.0:
        raise ValueError(f"derivative must be positive, got {dx}, {dy}")
    if not hx < hy:
        raise NonMonotoneMapError(f"map is not increasing on {(x, y)}")
    quotient = (hy - hx) / (y - x)
    return math.log(dx) + math.log(dy) - 2.0 * math.log(quotient)


@dataclass(frozen=True)
class DistortionBreakdown:
    """Split of the log Koebe ratio on a pair into its two mechanisms.

    ``term_a`` is the midpoint-vs-average discrepancy of log h' (bounded
    by its Zygmund variation), ``term_b`` the Jensen gap between the log
    of the average and the average of the log (bounded by a multiple of
    its quadratic variation); log_koebe = term_a - 2 term_b exactly.
    """

    log_koebe: float
    term_a: float
    term_b: float
    zv_bound: float
    qv_bound: float


def decompose_ab(h, x: float, y: float) -> DistortionBreakdown:
    """Both split terms of the log Koebe ratio of a C1 circle map h on
    [x, y], with the variation budgets of log h' that bound them.

    The average [log h']_xy is an adaptive-Simpson quadrature; the two
    occurrences cancel in the reassembled identity, which therefore holds
    to roundoff rather than to quadrature tolerance.
    """
    hx, hy = _lift_pair(h, x, y)
    log_koebe = _koebe_log_ratio(h, x, y, hx, hy)
    logd = log_derivative_function(h, x, y)
    avg_log = adaptive_simpson(logd, x, y, tol=QUAD_TOL) / (y - x)
    log_quotient = math.log((hy - hx) / (y - x))
    term_a = float(logd(x)) + float(logd(y)) - 2.0 * avg_log
    term_b = log_quotient - avg_log
    return DistortionBreakdown(
        log_koebe=log_koebe, term_a=term_a, term_b=term_b,
        zv_bound=zygmund_variation_estimate(logd, BREAKDOWN_DEPTH),
        qv_bound=_qv_resolved(logd, BREAKDOWN_DEPTH))


def _delta(eps: float) -> float:
    """2(eps - log(1+eps))/eps^2, continued by its limit 1 at eps = 0."""
    if eps <= -1.0:
        raise ValueError(f"eps must exceed -1, got {eps}")
    if abs(eps) < SERIES_CUTOFF:
        return 1.0 + eps * (-2.0 / 3.0 + eps * (0.5 - 0.4 * eps))
    return 2.0 * (eps - math.log1p(eps)) / (eps * eps)


def term_b_constant(h, x: float, y: float) -> float:
    """Constant K with |term_b| <= K * QV(log h' on [x, y]), h a C1 circle map.

    From the measured derivative range: with R the sup/inf ratio of h'
    on [x, y], every pointwise ratio h'(t)/[h']_xy is at least 1/R, so
    the remainder factor is at most its value at 1/R - 1, and the
    squared relative deviation is at most R^2 times a squared increment
    of log h'.  K = remainder(1/R - 1) * R^2 / 2, with R read off
    ``TERM_B_SAMPLES`` points.
    """
    grid = np.linspace(x, y, TERM_B_SAMPLES)
    d = np.asarray(_derivative(h)(grid), dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("derivative must be positive on the interval")
    ratio = float(np.max(d) / np.min(d))
    return _delta(1.0 / ratio - 1.0) * ratio * ratio / 2.0


def iterate_distortion_bound(h: CircleDiffeo, n: int, t: FourTuple,
                             arcs) -> tuple[float, float]:
    """Measured log Koebe ratio of the n-th iterate on the tuple's span,
    with its explicit budget from the per-arc variations of log h'.

    The measured value telescopes exactly into per-step log Koebe ratios
    because iterate derivatives multiply and increment quotients
    telescope.  The budget is K1 * sum of per-arc Zygmund variations
    plus K2 * sum of per-arc quadratic variations, K1 = 1 and K2 twice
    the worst per-arc Jensen-gap constant.
    """
    arcs = list(arcs)
    if len(arcs) != n:
        raise ValueError(f"need n={n} arcs, got {len(arcs)}")
    clash = first_overlap(arcs)
    if clash is not None:
        raise OverlappingArcsError(f"arcs {clash[0]} and {clash[1]} overlap; "
                                   "images must be disjoint")
    if not (arcs[0].contains(t.a) and arcs[0].contains(t.d)):
        raise ValueError("tuple must lie inside arcs[0]")

    x, y = t.a, t.d
    xs = orbit_lift(h, x, n)
    ys = orbit_lift(h, y, n)
    measured = 0.0
    for i in range(n):
        measured += _koebe_log_ratio(h, xs[i], ys[i], xs[i + 1], ys[i + 1])
    deriv = _derivative(h)
    direct = (sum(math.log(float(deriv(xs[i]))) for i in range(n))
              + sum(math.log(float(deriv(ys[i]))) for i in range(n))
              - 2.0 * math.log((ys[n] - xs[n]) / (y - x)))
    if abs(direct - measured) > 1e-8:
        raise ArithmeticError(
            f"chain-rule reassembly off by {abs(direct - measured):.3e}")

    zv_sum = 0.0
    qv_sum = 0.0
    k2 = 0.0
    for arc in arcs:
        lo, hi = arc.start, arc.start + arc.length
        logd = log_derivative_function(h, lo, hi)
        zv_sum += zygmund_variation_estimate(logd, ARC_BUDGET_DEPTH)
        qv_sum += _qv_resolved(logd, ARC_BUDGET_DEPTH)
        k2 = max(k2, 2.0 * term_b_constant(h, lo, hi))
    budget = 1.0 * zv_sum + k2 * qv_sum
    return float(measured), float(budget)


def crd_variation_estimate(f: CircleDiffeo, partition_depth: int) -> float:
    """Lower-bound estimate of the variation of log cross-ratio
    distortion of f over the circle.

    For each dyadic level up to partition_depth, every cell contributes
    the largest log distortion over inner pairs (the trisection pair plus
    ``CRD_INNER_SAMPLES`` random pairs seeded by the level); the estimate
    is the best level sum, hence non-decreasing in depth.

    Each level lifts the cell ends in one array call, then the inner
    points of whole pairs in calls of at most ``CRD_BATCH_POINTS`` points
    (one pair's 2 * cells when that is more): levels up to 10 take two
    calls.  The bound keeps a call's points (256 KiB) within L2 cache and
    the memory of a deep level at that of one pair; all pairs of a
    2^18-cell level in one call would hold 36 MiB of points before the
    lift's own temporaries.  Every ratio and log is elementwise and the pairs fold
    into the cell maxima in order, trisection first, so the estimate does
    not depend on how the points are split into calls.

    NonMonotoneMapError when a ratio at some level is not positive, NaN
    included: the map then folds some cell's points out of order.
    """
    if partition_depth < 1:
        raise ValueError(f"partition_depth must be >= 1, got {partition_depth}")
    best = 0.0
    for level in range(1, partition_depth + 1):
        cells = 2 ** level
        length = 1.0 / cells
        a = np.arange(cells) * length
        d = a + length
        fa, fd = np.asarray(f.lift_eval(np.concatenate([a, d]))).reshape(2, cells)
        r = np.random.default_rng(1000 + level).random((CRD_INNER_SAMPLES, 2))
        lo = 0.05 + 0.9 * np.min(r, axis=1)
        hi = 0.052 + 0.9 * np.max(r, axis=1)
        # offsets of b (row 0) and c (row 1) from a, trisection pair first
        offsets = np.array([[1.0 / 3.0, *lo], [2.0 / 3.0, *hi]]) * length
        per_call = max(1, CRD_BATCH_POINTS // (2 * cells))
        cell_best = np.zeros(cells)
        for start in range(0, offsets.shape[1], per_call):
            b, c = inner = a + offsets[:, start:start + per_call, None]
            fb, fc = np.asarray(f.lift_eval(inner.ravel())).reshape(inner.shape)
            ratio = _second_ratio(fa, fb, fc, fd) / _second_ratio(a, b, c, d)
            # a NaN log would drop out of the maxima and the level sum
            if not np.all(ratio > 0.0):
                raise NonMonotoneMapError(
                    f"cross ratio distortion at level {level} is not positive: "
                    "the map is not an increasing lift")
            for log_ratio in np.log(ratio):
                np.maximum(cell_best, log_ratio, out=cell_best)
        best = max(best, float(np.sum(cell_best)))
    return best

"""Regularity functionals over an interval.

Four functionals with one shared philosophy: sups over infinite partition
families are reported as lower bounds from finite dyadic families, with a
trend over increasing depths deciding between "converged" and "diverging".
Only the quadratic variation escapes this: for piecewise-monotone
functions its sup is attained at the extrema partition, so it is computed
exactly once the extrema are resolved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import IntervalFunction
from .errors import NotDifferentiableError, UnresolvedExtremaError
from .maps import CircleDiffeo
from .util import dyadic_grid

#: growth per depth doubling above which a functional is marked diverging
DIVERGENCE_RATIO = 1.10
#: growth per depth doubling below which a functional is marked converged
CONVERGENCE_RATIO = 1.01
#: depth cap for the quadratic-cost midpoint-sum estimator
MAX_ZV_DEPTH = 12


def total_variation_estimate(f: IntervalFunction, depth: int) -> float:
    """Sum of |increments| over the dyadic partition with 2**depth cells.

    A lower bound for the total variation, non-decreasing in depth, exact
    for piecewise-monotone functions once every extremum sits on the grid.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    lo, hi = f.domain
    vals = np.asarray(f.eval(dyadic_grid(lo, hi, depth)), dtype=float)
    return float(np.sum(np.abs(np.diff(vals))))


def zygmund_variation_estimate(f: IntervalFunction, depth: int) -> float:
    """Largest midpoint-second-difference sum over partitions with dyadic
    breakpoints of level <= depth.

    Dynamic programming over the 2**depth + 1 candidate breakpoints; cell
    midpoints land on the level depth+1 grid, so every term uses exact
    function values.  The result dominates each single-level sum, is
    non-decreasing in depth, and is a lower bound for the full sup over
    arbitrary partitions.

    Each step works in place in one buffer: |f(a) + f(b) - 2 f(mid)| is
    taken in that order of operations from a doubled copy of the fine
    samples (exact, a power-of-two scale), so every candidate, and hence
    the max, is the one the plain expression gives, NaN included.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    lo, hi = f.domain
    fine = np.asarray(f.eval(dyadic_grid(lo, hi, depth + 1)), dtype=float)
    coarse = fine[::2].copy()
    twice = 2.0 * fine
    p = coarse.size
    dp = np.empty(p)
    dp[0] = 0.0
    buf = np.empty(p)
    for j in range(1, p):
        w = buf[:j]
        np.add(coarse[:j], coarse[j], out=w)
        np.subtract(w, twice[j:2 * j], out=w)
        np.abs(w, out=w)
        np.add(dp[:j], w, out=w)
        dp[j] = w.max()
    return float(dp[-1])


def _extrema(diffs: np.ndarray) -> np.ndarray:
    """Sample indices of the extrema: both ends and every turn.

    A turn is a nonzero increment whose direction differs from the
    previous nonzero one; zero increments extend the open run, and any
    increment that is neither positive nor zero (NaN included) falls.
    """
    moving = np.flatnonzero(diffs != 0.0)
    rising = diffs[moving] > 0.0
    turns = moving[1:][rising[1:] != rising[:-1]]
    return np.concatenate(([0], turns, [diffs.size]))


def quadratic_variation(f: IntervalFunction, resolution: int) -> float:
    """Exact sup of squared-increment sums for piecewise-monotone f.

    Splitting a monotone stretch strictly decreases a sum of squares, and
    sliding a breakpoint inside one is dominated by moving it to the
    stretch's end, so an optimal partition breaks only at extrema.  A
    shallow reversal between two large same-direction stretches can still
    be worth skipping, hence the sup is taken over subsets of the sampled
    extrema by dynamic programming.  The function is sampled on
    2**resolution cells; an interior run spanning a single cell means two
    extrema closer than the cell width, which the sample cannot certify.
    The DP squares each increment in place in one buffer, the same
    operations as (ext[j] - ext[:j]) ** 2, so the result is unchanged to
    the bit.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    lo, hi = f.domain
    grid = dyadic_grid(lo, hi, resolution)
    vals = np.asarray(f.eval(grid), dtype=float)
    idx = _extrema(np.diff(vals))
    close = np.flatnonzero(np.diff(idx[1:-1]) == 1)
    if close.size:
        start = idx[1 + close[0]]
        raise UnresolvedExtremaError((float(grid[start]), float(grid[start + 1])))
    ext = vals[idx]
    best = np.zeros(ext.size)
    buf = np.empty(ext.size)
    for j in range(1, ext.size):
        w = buf[:j]
        np.subtract(ext[j], ext[:j], out=w)
        np.multiply(w, w, out=w)
        np.add(best[:j], w, out=w)
        best[j] = w.max()
    return float(best[-1])


def zygmund_norm_profile(f: IntervalFunction, scales: int) -> np.ndarray:
    """Per-scale maxima of |f(x+t) + f(x-t) - 2 f(x)| / t at t = span 2^-k.

    Scale k samples x on a grid of step t/2, k = 1..scales.
    """
    if scales < 1:
        raise ValueError(f"scales must be >= 1, got {scales}")
    lo, hi = f.domain
    span = hi - lo
    out = np.empty(scales)
    for k in range(1, scales + 1):
        t = span * 2.0 ** (-k)
        xs = lo + 0.5 * t * np.arange(2, 2 ** (k + 1) - 1)
        second = (np.asarray(f.eval(xs + t), dtype=float)
                  + np.asarray(f.eval(xs - t), dtype=float)
                  - 2.0 * np.asarray(f.eval(xs), dtype=float))
        out[k - 1] = float(np.max(np.abs(second))) / t
    return out


def zygmund_norm_estimate(f: IntervalFunction, scales: int) -> float:
    """Largest sampled scaled second difference; a lower bound for the
    uniform second-difference bound of f."""
    return float(np.max(zygmund_norm_profile(f, scales)))


def holder_bound(B: float, sample_increment: float, base_difference: float,
                 alpha: float) -> float:
    """Exponent-alpha modulus bound implied by a second-difference bound B.

    Halving the step n times grows the increment budget linearly in n
    (|D(x, t/2^n)| <= |D(x, t)| + n B), while the step shrinks
    geometrically; the returned value is the max over n of
    (|D| + n B) (t / 2^n)^(1 - alpha), finite for every alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if B < 0.0:
        raise ValueError(f"B must be non-negative, got {B}")
    t = float(sample_increment)
    d = abs(float(base_difference))
    ns = np.arange(0, 600)
    terms = (d + ns * B) * (t * 2.0 ** (-ns)) ** (1.0 - alpha)
    return float(np.max(terms))


@dataclass(frozen=True)
class VariationReport:
    """Snapshot of the four functionals with their depth trends.

    ``trends`` maps each partition-based functional to its values over the
    probe depths [ceil(d/8), ceil(d/4), ceil(d/2), d]; ``diverging`` marks
    those whose value kept growing by >= 10% per probe doubling, and
    ``converged`` those whose final doubling changed the value by <= 1%.
    ``checks`` holds the implication assertions evaluated on this run:
    a finite variation caps the midpoint sums and the quadratic variation,
    and a finite second-difference bound caps the midpoint sums.
    """

    tv: float
    zv: float
    qv: float
    zyg_norm: float
    depth: int
    trends: dict
    diverging: dict
    converged: dict
    rates: dict
    checks: dict
    holder: tuple[float, float] | None

    def describe(self, name: str) -> str:
        value = getattr(self, name)
        if self.diverging.get(name):
            return f"diverging(x{self.rates[name]:.2f}/doubling)"
        return f"{value:.12g}"


def _trend_flags(values: list[float]) -> tuple[bool, bool, float]:
    ratios = []
    for prev, cur in zip(values[:-1], values[1:]):
        ratios.append(cur / prev if prev > 0 else math.inf if cur > 0 else 1.0)
    diverging = len(ratios) >= 3 and all(r >= DIVERGENCE_RATIO for r in ratios[-3:])
    converged = bool(ratios) and ratios[-1] <= CONVERGENCE_RATIO
    return diverging, converged, (ratios[-1] if ratios else 1.0)


def probe_depths(depth: int) -> list[int]:
    """The depths, up to ``depth``, at which classify_regularity probes
    the partition-based functionals (the index of each ``trends`` entry)."""
    return sorted({max(1, math.ceil(depth / 8)), max(1, math.ceil(depth / 4)),
                   max(2, math.ceil(depth / 2)), depth})


def _qv_resolved(f: IntervalFunction, resolution: int) -> float:
    """Quadratic variation, retried two, four and six levels deeper while
    extrema stay unresolved."""
    last_err: UnresolvedExtremaError | None = None
    for extra in range(0, 7, 2):
        try:
            return quadratic_variation(f, resolution + extra)
        except UnresolvedExtremaError as err:
            last_err = err
    raise last_err


def classify_regularity(f: IntervalFunction, depth: int) -> VariationReport:
    """Estimate all four functionals of f and judge their depth trends.

    Partition-based functionals are probed at geometrically spaced depths
    so that three consecutive doublings are available for the divergence
    rule; the quadratic variation is computed once at the deepest
    resolution (retrying deeper if extrema are unresolved).
    """
    if depth < 4:
        raise ValueError(f"depth must be >= 4, got {depth}")
    probes = probe_depths(depth)

    profile = zygmund_norm_profile(f, depth)
    trends = {
        "tv": [total_variation_estimate(f, d) for d in probes],
        "zv": [zygmund_variation_estimate(f, min(d, MAX_ZV_DEPTH)) for d in probes],
        # scale k of the profile does not depend on how many scales are taken
        "zyg_norm": [float(np.max(profile[:d])) for d in probes],
    }
    qv = _qv_resolved(f, depth)

    diverging, converged, rates = {}, {}, {}
    for name, values in trends.items():
        d_flag, c_flag, rate = _trend_flags(values)
        diverging[name], converged[name], rates[name] = d_flag, c_flag, rate

    tv, zv, zyg_norm = (trends[n][-1] for n in ("tv", "zv", "zyg_norm"))
    lo, hi = f.domain
    max_abs = float(np.max(np.abs(np.asarray(
        f.eval(dyadic_grid(lo, hi, min(depth, 14))), dtype=float))))

    checks = {}
    if not diverging["tv"]:
        checks["variation_controls_midpoint_sums"] = bool(zv <= tv + 1e-9)
        checks["variation_controls_squares"] = bool(qv <= 2.0 * max_abs * tv + 1e-9)
    if not diverging["zyg_norm"]:
        checks["second_difference_controls_midpoint_sums"] = not diverging["zv"]

    holder = None
    if not diverging["zyg_norm"]:
        base = abs(float(np.asarray(f.eval(hi))) - float(np.asarray(f.eval(lo))))
        holder = (0.5, holder_bound(zyg_norm, hi - lo, base, 0.5))

    return VariationReport(tv=tv, zv=zv, qv=qv, zyg_norm=zyg_norm, depth=depth,
                           trends={k: tuple(v) for k, v in trends.items()},
                           diverging=diverging, converged=converged, rates=rates,
                           checks=checks, holder=holder)


def _derivative(h):
    """The derivative of a lift or a C1 interval function, as a callable."""
    if isinstance(h, CircleDiffeo):
        if h.lift_derivative is None:
            raise NotDifferentiableError(f"map {h.label!r} is not C1: no derivative stored")
        return h.lift_derivative
    if isinstance(h, IntervalFunction):
        if h.derivative is None:
            raise NotDifferentiableError(f"{h.label or 'function'} has no derivative")
        return h.derivative
    raise NotDifferentiableError(f"cannot differentiate {h!r}")


def log_derivative_function(diffeo, lo: float = 0.0,
                            hi: float = 1.0) -> IntervalFunction:
    """log of the derivative as an interval function on [lo, hi].

    ``diffeo`` is a circle diffeomorphism (its lift derivative is used)
    or an interval function that carries a derivative, else
    NotDifferentiableError.  A float argument is handed to the derivative
    as it is, so maps with a plain-float derivative path skip the 0-d
    array; ``np.log`` is kept on both paths because ``math.log`` can
    differ from it in the last bit.
    """
    deriv = _derivative(diffeo)

    def f(x):
        if isinstance(x, float):
            return float(np.log(deriv(x)))
        out = np.log(deriv(np.asarray(x, dtype=float)))
        return float(out) if np.ndim(x) == 0 else out

    return IntervalFunction(domain=(float(lo), float(hi)), eval=f,
                            label=f"log deriv of {diffeo.label}")

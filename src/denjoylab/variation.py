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
from numpy.lib.stride_tricks import sliding_window_view

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
#: rows per block of the partition DPs' max-plus kernel
DP_BLOCK = 16


def total_variation_estimate(f: IntervalFunction, depth: int) -> float:
    """Sum of |increments| over the dyadic partition with 2**depth cells.

    A lower bound for the total variation, non-decreasing in depth, exact
    for piecewise-monotone functions once every extremum sits on the grid.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _total_variation(_sample(f, depth))


def _sample(f: IntervalFunction, level: int) -> np.ndarray:
    """f on the 2**level + 1 dyadic points of its domain, as floats."""
    return np.asarray(f.eval(dyadic_grid(*f.domain, level)), dtype=float)


def _total_variation(vals: np.ndarray) -> float:
    """Sum of |increments| of the samples ``vals``."""
    return float(np.sum(np.abs(np.diff(vals))))


def _max_plus(p: int, rows) -> float:
    """best[p - 1] of best[0] = 0, best[j] = max over i < j of
    best[i] + T[j, i], for terms T that do not depend on best.

    Rows 1..p-1 go in blocks of ``DP_BLOCK``; ``rows(J, k)`` returns
    T[J, :k] for a slice J of rows as one 2-D array, k the last row's
    index.  The columns before a block reduce in one array call, and the
    triangle inside it (at most 120 pairs) runs on plain floats, so no
    array call runs per row.  Every candidate is the one float sum
    best[i] + T[j, i] and a max picks exactly, so each row's value is the
    one the per-row array loop gives; a NaN candidate makes its row NaN,
    as in ``ndarray.max`` (Python's ``max`` would depend on where the NaN
    sits).
    """
    best = np.zeros(p)
    for j0 in range(1, p, DP_BLOCK):
        j1 = min(j0 + DP_BLOCK, p)
        t = rows(slice(j0, j1), j1 - 1)
        outer = t[:, :j0]
        np.add(outer, best[:j0], out=outer)
        block = []
        for m, terms in zip(outer.max(axis=1).tolist(), t[:, j0:].tolist()):
            for b, term in zip(block, terms):
                c = b + term
                if c > m or c != c:
                    m = c
            block.append(m)
        best[j0:j1] = block
    return float(best[-1])


def _zygmund_dp(fine: np.ndarray) -> float:
    """Best midpoint-second-difference sum over partitions whose
    breakpoints are the even-indexed ``fine`` samples."""
    coarse = fine[::2].copy()
    mids = sliding_window_view(2.0 * fine, coarse.size - 1)  # [j, i]: 2 fine[i + j]

    def rows(J, k):
        t = np.add(coarse[:k], coarse[J, None])
        np.subtract(t, mids[J, :k], out=t)
        return np.abs(t, out=t)

    return _max_plus(coarse.size, rows)


def _quadratic_dp(ext: np.ndarray) -> float:
    """Best squared-increment sum over subsets of the extrema ``ext``."""
    def rows(J, k):
        t = np.subtract(ext[J, None], ext[:k])
        return np.multiply(t, t, out=t)

    return _max_plus(ext.size, rows)


def zygmund_variation_estimate(f: IntervalFunction, depth: int) -> float:
    """Largest midpoint-second-difference sum over partitions with dyadic
    breakpoints of level <= depth.

    Dynamic programming over the 2**depth + 1 candidate breakpoints; cell
    midpoints land on the level depth+1 grid, so every term uses exact
    function values.  The result dominates each single-level sum, is
    non-decreasing in depth, and is a lower bound for the full sup over
    arbitrary partitions.

    The DP runs in ``_max_plus``, ``DP_BLOCK`` rows at a time.  The term
    of breakpoints i < j is |(f(a_i) + f(a_j)) - 2 f(mid)| in that order
    of operations, the doubled fine samples (exact, a power-of-two scale)
    read through a sliding window with no gather, so every candidate is
    the one the plain expression gives; a NaN term makes the result NaN.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return _zygmund_dp(_sample(f, depth + 1))


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
    The DP runs in ``_max_plus``, ``DP_BLOCK`` rows at a time.  The term
    of extrema i < j is (ext[j] - ext[i]) squared as one product, the
    operations of (ext[j] - ext[:j]) ** 2, so the result is unchanged to
    the bit; a NaN term makes the result NaN.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    vals = _sample(f, resolution)
    idx = _extrema(np.diff(vals))
    close = np.flatnonzero(np.diff(idx[1:-1]) == 1)
    if close.size:
        start = idx[1 + close[0]]
        grid = dyadic_grid(*f.domain, resolution)
        raise UnresolvedExtremaError((float(grid[start]), float(grid[start + 1])))
    return _quadratic_dp(vals[idx])


def zygmund_norm_profile(f: IntervalFunction, scales: int) -> np.ndarray:
    """Per-scale maxima of |f(x+t) + f(x-t) - 2 f(x)| / t at t = span 2^-k.

    Scale k samples x on a grid of step t/2, k = 1..scales.
    """
    if scales < 1:
        raise ValueError(f"scales must be >= 1, got {scales}")
    lo, hi = f.domain
    return _zygmund_profile(_sample(f, scales + 1), scales, hi - lo)


def _zygmund_profile(vals: np.ndarray, scales: int, span: float) -> np.ndarray:
    """The profile from the level scales + 1 sample: at scale k, x and x +- t
    are every 2**(scales - k)-th value, in f(x+t) + f(x-t) - 2 f(x) order."""
    out = np.empty(scales)
    for k in range(1, scales + 1):
        v = vals[::2 ** (scales - k)]
        second = v[4:] + v[:-4] - 2.0 * v[2:-2]
        out[k - 1] = float(np.max(np.abs(second))) / (span * 2.0 ** (-k))
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
    resolution (retrying deeper if extrema are unresolved).  The rest
    reads one level depth + 1 sample: its every 2**(depth + 1 - l)-th
    value is the level-l sample on a domain of exact dyadic floats.
    """
    if depth < 4:
        raise ValueError(f"depth must be >= 4, got {depth}")
    probes = probe_depths(depth)
    lo, hi = f.domain
    vals = _sample(f, depth + 1)
    level = {lv: vals[::2 ** (depth + 1 - lv)] for lv in range(depth + 2)}

    profile = _zygmund_profile(vals, depth, hi - lo)
    trends = {
        "tv": [_total_variation(level[d]) for d in probes],
        "zv": [_zygmund_dp(level[min(d, MAX_ZV_DEPTH) + 1]) for d in probes],
        # scale k of the profile does not depend on how many scales are taken
        "zyg_norm": [float(np.max(profile[:d])) for d in probes],
    }
    qv = _qv_resolved(f, depth)

    diverging, converged, rates = {}, {}, {}
    for name, values in trends.items():
        d_flag, c_flag, rate = _trend_flags(values)
        diverging[name], converged[name], rates[name] = d_flag, c_flag, rate

    tv, zv, zyg_norm = (trends[n][-1] for n in ("tv", "zv", "zyg_norm"))
    max_abs = float(np.max(np.abs(level[min(depth, 14)])))

    checks = {}
    if not diverging["tv"]:
        checks["variation_controls_midpoint_sums"] = bool(zv <= tv + 1e-9)
        checks["variation_controls_squares"] = bool(qv <= 2.0 * max_abs * tv + 1e-9)
    if not diverging["zyg_norm"]:
        checks["second_difference_controls_midpoint_sums"] = not diverging["zv"]

    holder = None
    if not diverging["zyg_norm"]:
        base = abs(float(vals[-1]) - float(vals[0]))
        holder = (0.5, holder_bound(zyg_norm, hi - lo, base, 0.5))

    return VariationReport(tv=tv, zv=zv, qv=qv, zyg_norm=zyg_norm, depth=depth,
                           trends={k: tuple(v) for k, v in trends.items()},
                           diverging=diverging, converged=converged, rates=rates,
                           checks=checks, holder=holder)


def _derivative(h):
    """The lift derivative of a C1 circle diffeomorphism, as a callable."""
    if not isinstance(h, CircleDiffeo):
        raise NotDifferentiableError(
            f"no derivative: {type(h).__name__} is not a CircleDiffeo")
    if h.lift_derivative is None:
        raise NotDifferentiableError(f"map {h.label!r} is not C1: no derivative stored")
    return h.lift_derivative


def log_derivative_function(diffeo, lo: float = 0.0,
                            hi: float = 1.0) -> IntervalFunction:
    """log of the derivative as an interval function on [lo, hi].

    ``diffeo`` is a C1 circle diffeomorphism, whose lift derivative is
    used; anything else raises NotDifferentiableError.  A float argument
    is handed to the derivative as it is, so maps with a plain-float
    derivative path skip the 0-d array; ``np.log`` is kept on both paths
    because ``math.log`` can differ from it in the last bit.
    """
    deriv = _derivative(diffeo)

    def f(x):
        if isinstance(x, float):
            return float(np.log(deriv(x)))
        out = np.log(deriv(np.asarray(x, dtype=float)))
        return float(out) if np.ndim(x) == 0 else out

    return IntervalFunction(domain=(float(lo), float(hi)), eval=f,
                            label=f"log deriv of {diffeo.label}")

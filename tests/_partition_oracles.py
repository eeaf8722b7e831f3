"""Exhaustive partition oracles for the variation estimators.

Every oracle enumerates subsets of a small sample grid directly, with no
shared code path into the package, so agreement is meaningful evidence.
``qv_scan_reference`` is the quadratic variation's former one-increment-
at-a-time extrema scan, kept as the reference for the array version;
``qv_dp_reference`` and ``zv_dp_reference`` are the two partition DPs as
plain per-row array loops, the bit-for-bit references for the package's
blocked max-plus kernel.  ``zygmund_profile_reference`` is the Zygmund
profile's former loop, three evaluations of f per scale at hand-built
points x and x +- t, the reference for the profile read from one sample.
"""
from itertools import combinations

import numpy as np


def _partitions(n_points):
    """All breakpoint index tuples (0, ..., n-1) through interior subsets."""
    interior = range(1, n_points - 1)
    for r in range(len(interior) + 1):
        for mid in combinations(interior, r):
            yield (0, *mid, n_points - 1)


def tv_oracle(values):
    """Max over subset partitions of summed absolute increments."""
    values = np.asarray(values, dtype=float)
    best = 0.0
    for part in _partitions(values.size):
        pts = values[list(part)]
        best = max(best, float(np.sum(np.abs(np.diff(pts)))))
    return best


def qv_oracle(values):
    """Max over subset partitions of summed squared increments."""
    values = np.asarray(values, dtype=float)
    best = 0.0
    for part in _partitions(values.size):
        pts = values[list(part)]
        best = max(best, float(np.sum(np.diff(pts) ** 2)))
    return best


def zv_oracle(f, grid):
    """Max over subset partitions of summed midpoint second differences.

    Cell midpoints are evaluated on f directly, so the enumeration is not
    tied to the package's fine-grid bookkeeping.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(f.eval(grid), dtype=float)
    best = 0.0
    for part in _partitions(grid.size):
        total = 0.0
        for i, j in zip(part[:-1], part[1:]):
            mid = 0.5 * (grid[i] + grid[j])
            total += abs(vals[i] + vals[j] - 2.0 * float(f.eval(mid)))
        best = max(best, total)
    return best


def monotone_runs(diffs):
    """Maximal constant-direction runs [start, end) over the increment
    array; zero increments extend whichever run is open, and an increment
    neither positive nor zero (NaN) falls."""
    runs = []
    direction = 0
    start = 0
    for i, d in enumerate(diffs):
        s = 0 if d == 0.0 else (1 if d > 0.0 else -1)
        if s == 0 or s == direction:
            continue
        if direction != 0:
            runs.append((start, i))
            start = i
        direction = s
    runs.append((start, len(diffs)))
    return runs


def qv_scan_reference(values, grid):
    """Quadratic variation of the samples over their scanned extrema, or
    the cell (lo, hi) of the first interior run one cell long."""
    values = np.asarray(values, dtype=float)
    runs = monotone_runs(np.diff(values))
    for start, end in runs:
        if end - start == 1 and start > 0 and end < values.size - 1:
            return float(grid[start]), float(grid[end])
    return qv_dp_reference(values[[runs[0][0]] + [end for _, end in runs]])


def qv_dp_reference(ext):
    """Best squared-increment sum over subsets of the extrema ``ext``."""
    best = np.zeros(ext.size)
    for j in range(1, ext.size):
        best[j] = np.max(best[:j] + (ext[j] - ext[:j]) ** 2)
    return float(best[-1])


def zv_dp_reference(fine):
    """Best midpoint-second-difference sum over partitions whose
    breakpoints are the even-indexed ``fine`` samples."""
    fine = np.asarray(fine, dtype=float)
    coarse = fine[::2]
    dp = np.empty(coarse.size)
    dp[0] = 0.0
    for j in range(1, coarse.size):
        w = np.abs(coarse[:j] + coarse[j] - 2.0 * fine[j:2 * j])
        dp[j] = float(np.max(dp[:j] + w))
    return float(dp[-1])


def zygmund_profile_reference(f, scales):
    """Per-scale maxima of |f(x+t) + f(x-t) - 2 f(x)| / t at t = span 2^-k,
    with x on a grid of step t/2 and f evaluated at x + t, x - t and x."""
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

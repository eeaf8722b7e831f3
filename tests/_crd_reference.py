"""The level loop ``crossratio.crd_variation_estimate`` ran before it
batched its lift calls.

Each level lifted a and d in two calls, then the b and c points of each
inner pair in two more, 20 array calls per level.  The code is kept here,
as it was, for the tests that require the batched estimator to give the
same floats.
"""
import numpy as np

from denjoylab.crossratio import CRD_INNER_SAMPLES, _second_ratio


def crd_variation_reference(f, partition_depth):
    """Lower-bound estimate of the variation of log cross-ratio
    distortion of f, one lift call per point set."""
    if partition_depth < 1:
        raise ValueError(f"partition_depth must be >= 1, got {partition_depth}")
    best = 0.0
    for level in range(1, partition_depth + 1):
        cells = 2 ** level
        length = 1.0 / cells
        a = np.arange(cells) * length
        d = a + length
        fa, fd = f.lift_eval(a), f.lift_eval(d)
        r = np.random.default_rng(1000 + level).random((CRD_INNER_SAMPLES, 2))
        lo = 0.05 + 0.9 * np.min(r, axis=1)
        hi = 0.052 + 0.9 * np.max(r, axis=1)
        pairs = [(1.0 / 3.0, 2.0 / 3.0)] + list(zip(lo, hi))
        cell_best = np.zeros(cells)
        for u, v in pairs:
            b = a + u * length
            c = a + v * length
            fb, fc = f.lift_eval(b), f.lift_eval(c)
            ratio = _second_ratio(fa, fb, fc, fd) / _second_ratio(a, b, c, d)
            np.maximum(cell_best, np.log(ratio), out=cell_best)
        best = max(best, float(np.sum(cell_best)))
    return best

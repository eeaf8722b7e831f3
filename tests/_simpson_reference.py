"""Adaptive Simpson and lift validation as they were before the cell kernel.

``adaptive_simpson`` re-evaluated f at both ends of every interval it was
given, and ``validate_lift`` integrated each grid cell through its own
``float(deriv(t))`` wrapper, so every interior knot was evaluated twice.
The code is kept here, as it was, for the tests that require the kernel to
give the same floats.
"""
import numpy as np

from denjoylab.maps import VALIDATE_QUAD_TOL, LiftValidationReport
from denjoylab.util import SIMPSON_MAX_DEPTH


def adaptive_simpson_reference(f, a, b, tol=1e-10):
    """Adaptive Simpson quadrature of f over [a, b]."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)

    def _whole(lo, hi, flo, fhi, fmid):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def _rec(lo, hi, flo, fhi, fmid, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = f(lm), f(rm)
        left = _whole(lo, mid, flo, fmid, flm)
        right = _whole(mid, hi, fmid, fhi, frm)
        corr = left + right - whole
        if depth >= SIMPSON_MAX_DEPTH or abs(corr) <= 15.0 * eps or corr != corr:
            return left + right + corr / 15.0
        return (_rec(lo, mid, flo, fmid, flm, left, eps / 2.0, depth + 1)
                + _rec(mid, hi, fmid, fhi, frm, right, eps / 2.0, depth + 1))

    return _rec(a, b, fa, fb, fm, _whole(a, b, fa, fb, fm), tol, 0)


def validate_lift_reference(diffeo, grid_size):
    """Periodicity, monotonicity and derivative consistency on a grid."""
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    fx = np.asarray(diffeo.lift_eval(xs), dtype=float)
    fx1 = np.asarray(diffeo.lift_eval(xs + 1.0), dtype=float)
    periodicity = float(np.max(np.abs(fx1 - fx - 1.0)))
    increments = np.diff(fx)
    drop = -float(np.min(increments))
    monotonicity = 0.0 if drop <= 0.0 else drop

    derivative_min = None
    increment_defect = None
    if diffeo.lift_derivative is not None:
        dx = np.asarray(diffeo.lift_derivative(xs), dtype=float)
        derivative_min = float(np.min(dx))
        deriv = diffeo.lift_derivative
        defects = [abs(adaptive_simpson_reference(lambda t: float(deriv(t)), float(a),
                                                  float(b), tol=VALIDATE_QUAD_TOL)
                       - float(df))
                   for a, b, df in zip(xs[:-1], xs[1:], increments)]
        increment_defect = float(np.max(defects))

    return LiftValidationReport(
        grid_size=grid_size,
        periodicity_defect=periodicity,
        monotonicity_defect=monotonicity,
        derivative_min=derivative_min,
        increment_defect=increment_defect,
    )

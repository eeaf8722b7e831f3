"""The rigid and Arnold lifts as two layers: ``periodic_lift`` and the
displacement closures of ``make_map``.

``make_map`` once handed a period-one displacement g, written twice (in
``math`` for plain floats and in ``numpy`` otherwise), to ``periodic_lift``,
which took the fractional part and added x.  A rigid rotation had the
displacement alpha + 0.0 * u.  The code is kept here, as it was, for the
tests that require the one-layer closures to give the same floats, and
for lift-validation tests that need a lift built from a displacement.
"""
import math

import numpy as np

from denjoylab.catalog import SCALAR_TYPES, TWO_PI
from denjoylab.maps import CircleDiffeo


def periodic_lift(displacement, displacement_derivative=None, label=""):
    """Build a lift F(x) = x + g(x - floor(x)) of a period-one displacement g.

    A scalar x (any of ``SCALAR_TYPES``) takes its fractional part with
    ``math.floor`` and hands g a plain float.
    """
    def lift(x):
        if isinstance(x, SCALAR_TYPES):
            x = float(x)
            return x + displacement(x - math.floor(x))
        return x + displacement(x - np.floor(x))

    deriv = None
    if displacement_derivative is not None:
        def deriv(x):  # noqa: F811 - intentional rebinding
            if isinstance(x, SCALAR_TYPES):
                x = float(x)
                return 1.0 + displacement_derivative(x - math.floor(x))
            return 1.0 + displacement_derivative(x - np.floor(x))

    return CircleDiffeo(lift_eval=lift, lift_derivative=deriv, label=label)


def make_map(kind, alpha, amplitude=0.0):
    """A rigid or Arnold lift with parameters ``make_map`` accepts."""
    alpha = float(alpha)
    if kind == "rigid":
        return periodic_lift(lambda u: alpha + 0.0 * u,
                             lambda u: 0.0 * u,
                             label=f"rigid({alpha:.10g})")
    amplitude = float(amplitude)
    scale = amplitude / TWO_PI

    # periodic_lift hands a scalar argument over as a plain float
    def displacement(u):
        if isinstance(u, float):
            return alpha + scale * math.sin(TWO_PI * u)
        return alpha + scale * np.sin(TWO_PI * u)

    def displacement_derivative(u):
        if isinstance(u, float):
            return amplitude * math.cos(TWO_PI * u)
        return amplitude * np.cos(TWO_PI * u)

    return periodic_lift(displacement, displacement_derivative,
                         label=f"arnold({alpha:.10g}, {amplitude:.10g})")

"""The orbit loop ``maps.orbit_lift`` ran before it kept its last orbit.

Each call iterated the lift from x0 afresh.  The code is kept here, as it
was, for the tests that require the stored orbits to give the same floats.
"""
import numpy as np


def orbit_lift_reference(diffeo, x0, n):
    """Lift orbit [x0, F(x0), ..., F^n(x0)] as one array."""
    if n < 0:
        raise ValueError(f"need n >= 0 steps, got {n}")
    lift = diffeo.lift_eval
    z = float(x0)
    out = [z]
    append = out.append
    for _ in range(n):
        z = float(lift(z))
        append(z)
    return np.array(out)

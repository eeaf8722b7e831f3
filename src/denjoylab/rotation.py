"""Rotation number estimation.

One estimator, the Birkhoff average (F^n(x0) - x0)/n mod 1, with its a
priori error bound of 2/n.  Whether the rotation number is rational is
decided elsewhere, by the period test of ``dynamics``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maps import CircleDiffeo, orbit_lift
from .util import frac


@dataclass(frozen=True)
class RotationEstimate:
    """Birkhoff rotation-number estimate with its error bound."""

    value: float
    iterates_used: int
    error_bound: float


def birkhoff_estimate(diffeo: CircleDiffeo, x0: float, n: int) -> RotationEstimate:
    """Estimate the rotation number as (F^n(x0) - x0)/n mod 1.

    The classical displacement inequality gives |estimate - rho| < 1/n for
    any start point; the reported error_bound keeps the conservative 2/n.
    """
    return birkhoff_from_orbit(orbit_lift(diffeo, x0, n), n)


def birkhoff_from_orbit(orbit: np.ndarray, n: int) -> RotationEstimate:
    """The Birkhoff estimate (orbit[n] - orbit[0])/n mod 1 read off a lift
    orbit of at least n + 1 points, so a caller that needs the orbit too
    iterates it once."""
    if n < 1:
        raise ValueError(f"need n >= 1 iterates, got {n}")
    value = float(frac((orbit[n] - orbit[0]) / n))
    return RotationEstimate(value=value, iterates_used=n, error_bound=2.0 / n)

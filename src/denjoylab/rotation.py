"""Rotation number estimation.

Two estimators with different contracts: the Birkhoff average carries an
a priori error bound of 2/n, while the rational-bracket scan returns the
(p, q) pairs whose quality certificate |F^q(x) - x - p| < 1/q holds along
an orbit sample.  A detected periodic orbit aborts the scan, because every
quantity downstream of it assumes an irrational rotation number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PeriodicOrbitError
from .maps import CircleDiffeo, orbit_lift
from .util import convergents_of, frac

#: distance of a displacement F^q(x) - x to an integer p that counts as a
#: closed orbit, here and in the period test of ``dynamics``
PERIOD_TOL = 1e-9


@dataclass(frozen=True)
class RotationEstimate:
    """Birkhoff rotation-number estimate with its certificate.

    ``convergents`` are continued-fraction convergents of ``value`` with
    strictly increasing denominators, each satisfying |value - p/q| < 1/q**2.
    """

    value: float
    iterates_used: int
    error_bound: float
    convergents: tuple[tuple[int, int], ...]


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
    q_cap = max(13, int(np.sqrt(n)))
    convs = tuple(convergents_of(value, q_cap=q_cap))
    return RotationEstimate(value=value, iterates_used=n,
                            error_bound=2.0 / n, convergents=convs)


def convergent_sequence(diffeo: CircleDiffeo, q_max: int, x0: float,
                        samples: int = 128) -> tuple[tuple[int, int], ...]:
    """Rational brackets (p, q), q <= q_max, certified along an orbit sample.

    For each q the displacement d_j = F^q(x_j) - x_j is evaluated on orbit
    points x_j = f^j(x0).  A pair is accepted when max_j |d_j - p| < 1/q,
    which forces |rho - p/q| < 1/q (and 1/q**2 for a rigid rotation).  If
    d_j - p vanishes or changes sign across the sample there is a genuine
    orbit of period q and PeriodicOrbitError(q) is raised.
    """
    if q_max < 1:
        raise ValueError(f"need q_max >= 1, got {q_max}")
    m = max(2, int(samples))
    orbit = orbit_lift(diffeo, float(x0), m + q_max)
    accepted: list[tuple[int, int]] = []
    for q in range(1, q_max + 1):
        d = orbit[q:q + m] - orbit[:m]
        dmin, dmax = float(d.min()), float(d.max())
        if float(np.min(np.abs(d - np.round(d)))) <= PERIOD_TOL:
            raise PeriodicOrbitError(q)
        for p in range(int(np.floor(dmin)), int(np.ceil(dmax)) + 1):
            if dmin < p < dmax:
                # sign change of F^q - id - p along the sample: IVT gives a
                # genuine q-periodic point between two sample positions
                raise PeriodicOrbitError(q)
            if max(abs(dmin - p), abs(dmax - p)) < 1.0 / q:
                accepted.append((p, q))
    return tuple(accepted)

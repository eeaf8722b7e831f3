"""The semi-conjugacy and gap profile as ``dynamics`` computed them before
they read one shared sort of the orbit and found plateau runs from their
boundaries.

``_semiconjugacy`` walked each plateau run in a Python loop and summed its
spans with ``np.sum``; ``_gap_profile`` sorted the orbit prefix anew at each
checkpoint.  The code is kept here, as it was, for the property that the
whole-array form gives the same bits.
"""
import numpy as np

from denjoylab.dynamics import (CANTOR_GAP_FACTOR, DENSE_GAP_FACTOR,
                                PLATEAU_DOMAIN_FACTOR, PLATEAU_TARGET_FACTOR,
                                STABLE_RTOL, OrbitProfile, SemiConjugacy,
                                _interp_lift)
from denjoylab.maps import Arc
from denjoylab.rotation import birkhoff_from_orbit
from denjoylab.util import circle_dist, frac

def _max_circular_gap(points: np.ndarray) -> float:
    s = np.sort(points)
    gaps = np.diff(s)
    return float(max(np.max(gaps), 1.0 - s[-1] + s[0]))


def _gap_profile(orbit: np.ndarray, period: int | None, n: int) -> OrbitProfile:
    """omega_gap_profile read from _orbit_and_period of x0 and n."""
    pts = frac(orbit[:n + 1])

    checkpoints = sorted({max(10, n // 4), max(10, n // 2), n})
    trend = tuple((k, _max_circular_gap(pts[:k + 1])) for k in checkpoints)
    max_gap = trend[-1][1]

    if period is not None:
        verdict = "periodic-like"
    elif max_gap < DENSE_GAP_FACTOR / n:
        verdict = "dense-like"
    elif (len(trend) >= 2
          and abs(trend[-1][1] - trend[-2][1]) <= STABLE_RTOL * trend[-1][1]
          and max_gap > CANTOR_GAP_FACTOR / n):
        verdict = "Cantor-like"
    else:
        verdict = "unresolved"
    return OrbitProfile(max_gap=max_gap, gap_trend=trend,
                        periodicity=period, verdict=verdict)


def _semiconjugacy(orbit: np.ndarray, x0: float,
                   n: int) -> tuple[SemiConjugacy, tuple]:
    """build_semiconjugacy read from the aperiodic _orbit_and_period of x0,
    and the (Arc, flatness) plateau tuple the loop builds; the
    semi-conjugacy keeps the loop's plateau ends and flatness as arrays."""
    pts = frac(orbit[:n])
    alpha = birkhoff_from_orbit(orbit, n).value
    targets_sorted = np.sort(frac(np.arange(n) * alpha))

    order = np.argsort(pts)
    r0 = int(np.flatnonzero(order == 0)[0])
    assigned = np.roll(targets_sorted, r0)

    domain = pts[order]
    # unwrap the cyclically increasing targets into a monotone array
    wrap_at = int(np.argmin(assigned))
    target_inc = assigned + np.where(np.arange(n) < wrap_at, -1.0, 0.0)

    knot_targets = np.empty(n)
    knot_targets[order] = assigned
    d = np.abs(frac(knot_targets[1:]) - frac(knot_targets[:-1] + alpha))
    defect = float(np.max(np.minimum(d, 1.0 - d)))
    h_last = float(_interp_lift(domain, target_inc,
                                np.asarray(frac(orbit[n]))))
    defect = max(defect, circle_dist(h_last, knot_targets[n - 1] + alpha))

    dom_gaps = np.diff(np.concatenate([domain, [domain[0] + 1.0]]))
    tgt_gaps = np.diff(np.concatenate([target_inc, [target_inc[0] + 1.0]]))
    flat = (tgt_gaps < PLATEAU_TARGET_FACTOR / n) & (
        dom_gaps > PLATEAU_DOMAIN_FACTOR / n)

    # flat gaps are wider than 10/n and the n gaps sum to 1: not all are flat
    plateaus = []
    for i in np.flatnonzero(flat & ~np.roll(flat, 1)).tolist():
        j = i
        while flat[(j + 1) % n]:
            j += 1
        members = [(i + k) % n for k in range(j - i + 1)]
        lo = domain[i]
        hi = domain[(j + 1) % n]
        span_d = float(np.sum(dom_gaps[members]))
        span_t = float(np.sum(tgt_gaps[members]))
        plateaus.append((Arc(lo, hi), span_t / span_d))

    lo, hi, flatness = np.array(
        [(arc.start, arc.end, ratio) for arc, ratio in plateaus],
        dtype=float).reshape(-1, 3).T
    semi = SemiConjugacy(anchor=float(x0), alpha=float(alpha),
                         defect=float(defect), _domain=domain,
                         _target=target_inc, _points=pts,
                         _knot_targets=knot_targets, _plateau_lo=lo,
                         _plateau_hi=hi, _flatness=flatness)
    return semi, tuple(plateaus)

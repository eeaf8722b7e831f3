"""Small numeric helpers shared across modules."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import RootFindError

#: recursion cap of adaptive Simpson against pathological refinement
SIMPSON_MAX_DEPTH = 48
#: partial quotient past which a continued fraction is float noise
CF_STOP_QUOTIENT = 1e9
#: step cap of solve_increasing; bisecting a bracket 10 wide down to
#: SOLVE_STEP_FLOOR takes under 60 steps
SOLVE_MAX_STEPS = 100
#: a solve_increasing step no longer than this ends the solve
SOLVE_STEP_FLOOR = 2.0 ** -53


def frac(x):
    """Fractional part mapped to [0, 1).

    x - floor(x) rounds to 1.0 for a negative x no further than 2^-54
    from zero; that case gives 0.0.  A scalar gives an ``np.float64``.
    A float scalar takes a plain-float path, x % 1.0 % 1.0, which equals
    the array path bit for bit at about half the cost; on arrays % 1.0
    costs 15 times the subtraction, so they mask the 1.0 instead.
    """
    if isinstance(x, float):
        return np.float64(x % 1.0 % 1.0)
    r = x - np.floor(x)
    return r * (r != 1.0)


def solve_increasing(g: Callable[[float], float],
                     dg: Callable[[float], float] | None,
                     t: float, lo: float, hi: float, x: float) -> float:
    """The x in [lo, hi] with g(x) = t, for g increasing on the bracket.

    Newton steps with derivative ``dg`` from the start guess x, inside a
    bracket that shrinks to each evaluated point; a step that would leave
    it bisects instead, as does every step when ``dg`` is None or not
    positive.  Stops when g(x) = t, when a step moves x by at most
    ``SOLVE_STEP_FLOOR``, or when no float is left strictly inside the
    bracket, which ends the solve at any scale of x.  RootFindError after
    ``SOLVE_MAX_STEPS`` steps.
    """
    for _ in range(SOLVE_MAX_STEPS):
        f = float(g(x)) - t
        if f == 0.0:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        nxt = 0.5 * (lo + hi)
        if dg is not None:
            slope = float(dg(x))
            if slope > 0.0:
                newton = x - f / slope
                if lo < newton < hi:
                    nxt = newton
        if abs(nxt - x) <= SOLVE_STEP_FLOOR or not lo < nxt < hi:
            return nxt
        x = nxt
    raise RootFindError(f"no root of g(x) = {t!r} within {SOLVE_MAX_STEPS} steps; "
                        f"bracket [{lo!r}, {hi!r}]")


def circle_dist(a: float, b: float) -> float:
    """Shortest circular distance between two positions in [0, 1)."""
    d = abs(frac(a) - frac(b))
    return min(d, 1.0 - d)


def ccw_gap(a: float, b: float) -> float:
    """Counter-clockwise distance from a to b on the unit circle."""
    return float(frac(b - a))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    Recursion splits until the two-panel correction is below tol for the
    local slice, or ``SIMPSON_MAX_DEPTH`` levels deep.  A NaN correction
    ends the split too: refining could not clear it, so the NaN is
    returned at once instead of after 2**SIMPSON_MAX_DEPTH cells.
    """
    return _simpson_cell(f, a, b, f(a), f(b), tol)


def _simpson_cell(f, a, b, fa, fb, tol):
    """``adaptive_simpson`` given fa = f(a) and fb = f(b), so that adjacent
    cells evaluate their shared end once."""
    fm = f(0.5 * (a + b))
    return _simpson_split(f, a, b, fa, fb, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


def _simpson_split(f, lo, hi, flo, fhi, fmid, whole, eps, depth):
    mid = 0.5 * (lo + hi)
    lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
    flm, frm = f(lm), f(rm)
    left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
    right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
    corr = left + right - whole
    if depth >= SIMPSON_MAX_DEPTH or abs(corr) <= 15.0 * eps or corr != corr:
        return left + right + corr / 15.0
    return (_simpson_split(f, lo, mid, flo, fmid, flm, left, eps / 2.0, depth + 1)
            + _simpson_split(f, mid, hi, fmid, fhi, frm, right, eps / 2.0, depth + 1))


def dyadic_grid(lo: float, hi: float, depth: int) -> np.ndarray:
    """The 2**depth + 1 dyadic points of [lo, hi]."""
    return np.linspace(lo, hi, 2 ** depth + 1)


def continued_fraction(x: float, max_terms: int = 25) -> list[int]:
    """Partial quotients of x; stops when a quotient exceeds
    ``CF_STOP_QUOTIENT`` or max_terms is reached."""
    quotients = []
    y = float(x)
    for _ in range(max_terms):
        a = math.floor(y)
        quotients.append(a)
        rem = y - a
        if rem < 1.0 / CF_STOP_QUOTIENT:
            break
        y = 1.0 / rem
    return quotients


"""Small numeric helpers shared across modules."""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: recursion cap of adaptive Simpson against pathological refinement
SIMPSON_MAX_DEPTH = 48
#: partial quotient past which a continued fraction is float noise
CF_STOP_QUOTIENT = 1e9


def frac(x):
    """Fractional part mapped to [0, 1)."""
    return x - np.floor(x)


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
    local slice, or ``SIMPSON_MAX_DEPTH`` levels deep.
    """
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
        if depth >= SIMPSON_MAX_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (_rec(lo, mid, flo, fmid, flm, left, eps / 2.0, depth + 1)
                + _rec(mid, hi, fmid, fhi, frm, right, eps / 2.0, depth + 1))

    return _rec(a, b, fa, fb, fm, _whole(a, b, fa, fb, fm), tol, 0)


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


def convergents_of(x: float, max_terms: int = 20,
                   q_cap: int = 10 ** 6) -> list[tuple[int, int]]:
    """Continued-fraction convergents (p, q) of x with strictly increasing q.

    When the first two convergents share q = 1 only the better one is kept,
    so every returned pair satisfies |x - p/q| < 1/q**2.
    """
    qs = continued_fraction(x, max_terms)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = qs[0], 1
    out = [(p_cur, q_cur)]
    for a in qs[1:]:
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        if q_cur > q_cap:
            break
        if out and q_cur == out[-1][1]:
            out[-1] = (p_cur, q_cur)
        else:
            out.append((p_cur, q_cur))
    return out

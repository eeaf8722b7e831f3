"""Brute-force predecessor/successor oracle on point configurations.

Plain float circle arithmetic with no package imports, so table agreement
is an independent check rather than a reflection of shared code.
"""
import math


def _frac(x):
    return x - math.floor(x)


def _ccw(a, b):
    return _frac(b - a)


def _in_open(p, lo, hi):
    return 0.0 < _ccw(lo, p) < _ccw(lo, hi)


def arc_meets_span(a_start, a_len, lo, hi):
    """Closed arc [a_start, a_start+a_len] meets the closed ccw span
    from lo to hi.

    The table's former bridge test, ``combinatorics._arc_meets_span``,
    kept as the reference for ``Arc.intersects``; x % 1.0 % 1.0 is
    ``util.frac`` on a float, bit for bit.
    """
    span = (hi - lo) % 1.0 % 1.0
    return ((a_start - lo) % 1.0 % 1.0 <= span
            or (lo - a_start) % 1.0 % 1.0 <= a_len)


def brute_table(centers, half):
    """Tables for the arc family [c - half, c + half] around each center.

    A successor jump is accepted when the candidate triple looks like a
    translated return (predecessor, arc, target equally spaced on one
    side), no other predecessor sits on the closed bridge, the arrival
    gap holds no earlier arc, and the jump stays consistent along chains.
    """
    N = len(centers) - 1
    starts = [_frac(c - half) for c in centers]
    ends = [_frac(c + half) for c in centers]
    L = [None] * (N + 1)
    R = [None] * (N + 1)
    S = [None] * (N + 1)
    side = [None] * (N + 1)
    constraint = {}
    for n in range(1, N + 1):
        L[n] = min(range(n), key=lambda k: _ccw(ends[k], starts[n]))
        R[n] = min(range(n), key=lambda k: _ccw(ends[n], starts[k]))
    for n in range(1, N + 1):
        winners = []
        for role in ("L", "R"):
            pred = L[n] if role == "L" else R[n]
            a = n - pred
            t = n + a
            if a < 1 or t > N:
                continue
            if role == "L" and _ccw(centers[pred], centers[n]) < _ccw(
                    centers[pred], centers[t]):
                arr = "right"
                bridge = (starts[pred], ends[t])
                gap = (ends[n], starts[t])
            elif role == "R" and _ccw(centers[t], centers[n]) < _ccw(
                    centers[t], centers[pred]):
                arr = "left"
                bridge = (starts[t], ends[pred])
                gap = (ends[t], starts[n])
            else:
                continue
            ok = True
            for o in {L[n], R[n]} - {pred}:
                blen = _ccw(bridge[0], bridge[1])
                if _ccw(bridge[0], starts[o]) <= blen or \
                        _ccw(starts[o], bridge[0]) <= _ccw(starts[o], ends[o]):
                    ok = False
            for k in range(t):
                if k != n and _in_open(centers[k], gap[0], gap[1]):
                    ok = False
            if n in constraint and constraint[n] != (a, arr):
                ok = False
            if ok:
                winners.append((t, a, arr))
        assert len(winners) <= 1, (n, winners)
        if winners:
            t, a, arr = winners[0]
            S[n], side[n] = t, arr
            constraint[t] = (a, arr)
    return L, R, S, side

"""The float-scan ``combinatorics.predecessor_successor_table`` ran
before it read circular order off integer ranks.

It found each predecessor with an argmin over the ``frac`` distances to
all earlier arcs, tested the translation order and the bridge on arc
centers and ends, and scanned every arc's center for the arrival gap of
each successor candidate.  The code is kept here, as it was, as the
oracle for the tests that require the same table, or the same error.
"""
import numpy as np

from denjoylab.combinatorics import OrbitCombinatorics
from denjoylab.errors import OverlappingArcsError
from denjoylab.maps import Arc, first_overlap
from denjoylab.util import ccw_gap, frac


def predecessor_successor_table_scan(arcs):
    """Build the full predecessor/successor table of the family.

    The left (right) predecessor of I_n is the arc of smaller index
    immediately counter-clockwise before (after) I_n.  I_{n+a} is the
    successor of I_n when I_{n-a} is a predecessor, the triple
    I_{n-a}, I_n, I_{n+a} is ordered like a translation, no arc of
    index below n+a sits in the arrival gap, the opposite predecessor
    stays off the bridge spanned by the triple, and the jump a with its
    side continues the chain through I_n when I_n is itself a
    successor.  Construction is sequential in n; the finished table is
    immutable and safe to query concurrently.
    """
    arcs = tuple(arcs)
    if not arcs:
        raise ValueError("need at least one arc")
    clash = first_overlap(arcs)
    if clash is not None:
        raise OverlappingArcsError(f"arcs {clash[0]} and {clash[1]} overlap; "
                                   "the table needs a pairwise disjoint family")
    count = len(arcs)
    top = count - 1
    starts = np.array([a.start for a in arcs])
    ends = np.array([a.end for a in arcs])
    centers = np.array([a.midpoint() for a in arcs])
    idx = np.arange(count)

    left = [None] * count
    right = [None] * count
    succ = [None] * count
    side = [None] * count
    for n in range(1, count):
        left[n] = int(np.argmin(frac(starts[n] - ends[:n])))
        right[n] = int(np.argmin(frac(starts[:n] - ends[n])))

    chain = {}      # target index -> (jump, side) of the chain reaching it
    for n in range(1, count):
        winners = []
        for role in ("L", "R"):
            pred = left[n] if role == "L" else right[n]
            a = n - pred
            t = n + a
            if a < 1 or t > top:
                continue
            if role == "L":
                ordered = ccw_gap(centers[pred], centers[n]) < ccw_gap(
                    centers[pred], centers[t])
                arrival = "right"
                b_lo, b_hi = starts[pred], ends[t]
                g_lo, g_hi = ends[n], starts[t]
            else:
                ordered = ccw_gap(centers[t], centers[n]) < ccw_gap(
                    centers[t], centers[pred])
                arrival = "left"
                b_lo, b_hi = starts[t], ends[pred]
                g_lo, g_hi = ends[t], starts[n]
            if not ordered:
                continue
            other = right[n] if role == "L" else left[n]
            if other != pred and arcs[other].intersects(Arc(b_lo, b_hi)):
                continue
            gap_len = ccw_gap(g_lo, g_hi)
            off = frac(centers - g_lo)
            blocked = (off > 0.0) & (off < gap_len) & (idx < t) & (idx != n)
            if bool(blocked.any()):
                continue
            if n in chain and chain[n] != (a, arrival):
                continue
            winners.append((t, a, arrival))
        if len(winners) > 1:
            raise ArithmeticError(
                f"arc {n} admits two successors {winners}; the family does "
                "not look like a wandering orbit")
        if winners:
            t, a, arrival = winners[0]
            succ[n] = t
            side[n] = arrival
            chain[t] = (a, arrival)

    nbhd = [None] * count
    for n in range(1, count):
        if left[n] == right[n]:
            continue
        lo = succ[n] if side[n] == "left" else left[n]
        hi = succ[n] if side[n] == "right" else right[n]
        nbhd[n] = Arc(starts[lo], ends[hi])

    return OrbitCombinatorics(
        arcs=arcs, left_pred=tuple(left), right_pred=tuple(right),
        successor=tuple(succ), successor_side=tuple(side),
        natural_nbhd=tuple(nbhd))

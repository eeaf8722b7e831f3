"""Combinatorics of disjoint orbit arcs on the circle.

Given the forward images I_0, I_1, ... of a wandering arc, each arc
acquires at most one predecessor per side (the nearest earlier-indexed
arc in circular order) and at most one successor: the next return that
lands beside I_n at the same combinatorial depth.  Successor chains act
like translations, so the jump S(n) - n and the arrival side stay
constant along a chain; on rigid-rotation instances the jumps are
denominators of continued-fraction convergents.

The module also provides the intersection multiplicity of an arc
family, arc pullbacks under a diffeomorphism, the eps-scale of a
neighborhood, and the explicit constants of the macroscopic Koebe
estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FloatRangeError, OverlappingArcsError
from .maps import Arc, CircleDiffeo, first_overlap, inverse_eval
from .util import ccw_gap, frac

#: observed ceiling for the intersection multiplicity of natural
#: neighborhood pullbacks along a wandering orbit
PULLBACK_MULTIPLICITY_BOUND = 15


@dataclass(frozen=True)
class OrbitCombinatorics:
    """Predecessor/successor table of a disjoint arc family.

    Entry k of each per-index tuple refers to the arc I_k.  ``None``
    marks an undefined relation (no earlier arcs, no successor, or a
    degenerate two-sided neighborhood).  ``successor_side`` records
    whether I_{S(n)} arrived counter-clockwise after ("right") or
    before ("left") I_n.
    """

    arcs: tuple[Arc, ...]
    left_pred: tuple
    right_pred: tuple
    successor: tuple
    successor_side: tuple
    natural_nbhd: tuple

    def __len__(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class KoebeConstants:
    """Explicit constants for the macroscopic Koebe estimate.

    ``C`` bounds ratio distortion of standard interior triples under
    maps whose cross-ratio distortion variation is at most ``B``;
    ``i_star`` is the number of doubling steps after which an
    ``eps``-scaled image neighborhood forces geometry at the source,
    and ``delta`` the guaranteed scale there.
    """

    B: float
    C: float
    eps: float
    delta: float
    i_star: int


def predecessor_successor_table(arcs: Sequence[Arc]) -> OrbitCombinatorics:
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


def natural_neighborhood(table: OrbitCombinatorics, n: int) -> Arc:
    """The neighborhood of I_n spanned by its bounding arcs.

    Runs from the left predecessor (or a left-arriving successor) to
    the right predecessor (or a right-arriving successor), arcs
    included.  No arc of index at most n other than the bounds meets
    its interior.
    """
    if not 0 <= n < len(table):
        raise ValueError(f"index {n} outside table of size {len(table)}")
    nb = table.natural_nbhd[n]
    if nb is None:
        raise ValueError(
            f"arc {n} has no two-sided neighborhood; it needs distinct "
            "predecessors on both sides")
    return nb


def intersection_multiplicity(arcs: Sequence[Arc]) -> int:
    """Largest number of arcs of the family sharing a common point.

    Closed arcs: families touching only at an endpoint still count as
    intersecting there.  The maximum is attained at an arc endpoint, so
    an endpoint sweep is exact.
    """
    arcs = tuple(arcs)
    if not arcs:
        raise ValueError("need at least one arc")
    starts = np.array([a.start for a in arcs])
    lengths = np.array([a.length for a in arcs])
    pts = np.concatenate([starts, np.array([a.end for a in arcs])])
    rel = frac(pts[:, None] - starts[None, :])
    covered = rel <= lengths[None, :] + 1e-15
    return int(covered.sum(axis=1).max())


def pullback_arcs(diffeo: CircleDiffeo, arc: Arc, count: int) -> list[Arc]:
    """The arc together with its first ``count`` preimages, in order of
    increasing pullback depth."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out = [arc]
    lo, hi = float(arc.start), float(arc.start) + arc.length
    for _ in range(count):
        lo = inverse_eval(diffeo, lo)
        hi = inverse_eval(diffeo, hi)
        out.append(Arc(lo, hi))
    return out


def eps_scale(M: Arc, T: Arc) -> float:
    """Scale of T around M: min component length of T minus M, divided
    by the length of M.

    T is an eps-scaled neighborhood of M exactly when the returned
    value is at least eps.  Zero means M touches a boundary of T (or
    fills it).
    """
    left = ccw_gap(T.start, M.start)
    right = ccw_gap(M.end, T.end)
    if left > 1.0 - 1e-12:
        left = 0.0      # shared endpoint up to rounding
    if right > 1.0 - 1e-12:
        right = 0.0
    if left + M.length + right > T.length + 1e-12:
        raise ValueError("M is not contained in T")
    return min(left, right) / M.length


def macroscopic_delta(B: float, eps: float) -> KoebeConstants:
    """Constants guaranteeing a delta-scaled neighborhood at the source
    of a pullback whose image neighborhood is eps-scaled.

    With distortion budget B the ratio bound is C = 3 e^B; i_star, the
    smallest i with (1 + 1/C)^i - 1 > 1/eps, is bisected in floats, and
    delta = 1 / (2^i_star - 1), correctly rounded where 2^i_star - 1
    overflows a float (0.0 once it underflows).  FloatRangeError where
    i_star or 1/eps passes 2^1022, as from B = 707.7 at eps = 1.
    """
    if not B >= 0.0:
        raise ValueError(f"B must be >= 0, got {B}")
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    C = 3.0 * math.exp(min(B, 709.0))  # inf from B = 708.7, no OverflowError
    step, goal = math.log1p(1.0 / C), math.log1p(1.0 / eps)
    if not (1.0 / eps < 2.0 ** 1022 and goal < step * 2.0 ** 1022):
        raise FloatRangeError(f"B = {B}, eps = {eps}: i_star or 1/eps "
                              f"passes 2^1022")

    def exceeds(i: int) -> bool:  # true past goal + 1, where expm1 may overflow
        return i * step > goal + 1.0 or math.expm1(i * step) > 1.0 / eps

    # past 2^53 neighbouring i give one float i * step: bisect, never step
    lo, hi = 0, int(goal / step) + 1
    while not exceeds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if exceeds(mid) else (mid, hi)
    try:
        delta = 1.0 / math.expm1(hi * math.log(2.0))
    except OverflowError:  # 2^i - 1 past the floats: the exact quotient
        delta = 1 / (2 ** min(hi, 1076) - 1)  # rounds to 0.0 from 1076
    return KoebeConstants(B=float(B), C=C, eps=float(eps), delta=delta,
                          i_star=hi)

"""``conjugacy_verdict`` as it reads when the whole budget is iterated
first and the gap profile is built with the verdict.

``dynamics`` stops a rational verdict at the period window and builds the
gap profile on its first read.  This copy iterates the n-step anchor
orbit with a fresh loop, applies the same two period witnesses to it
(the exact repeats found by grouping equal positions, not by a sort),
and builds the semi-conjugacy and gap profile with the reference loops
of ``_semiconj_reference``, for the property that both give the same
verdict, semi-conjugacy and profile.
"""
import numpy as np

import _semiconj_reference as reference
from _orbit_reference import orbit_lift_reference
from denjoylab.dynamics import (CLOSED_DISPLACEMENT, EXACT_REPEAT, PERIOD_TOL,
                                PERIOD_WINDOW, PROBE_STEPS, _orbit_start,
                                wandering_verdict)
from denjoylab.maps import Arc
from denjoylab.util import frac


def period_witness(orbit, n):
    """(period, witness) of the n-step lift orbit: x_w against its own
    returns, w = min(n, PERIOD_WINDOW), else the smallest index gap
    between consecutive occurrences of one circle position among x_0 ..
    x_(n-1), else (None, None)."""
    w = min(n, PERIOD_WINDOW)
    for q in range(1, w + 1):
        disp = orbit[w] - orbit[w - q]
        if abs(disp - np.round(disp)) <= PERIOD_TOL:
            return q, CLOSED_DISPLACEMENT
    last = {}
    gaps = []
    for i, x in enumerate(frac(orbit[:n]).tolist()):
        if x in last:
            gaps.append(i - last[x])
        last[x] = i
    return (min(gaps), EXACT_REPEAT) if gaps else (None, None)


def conjugacy_verdict(target_map, budget):
    """(kind, period, detail, arc), the reference's (semi-conjugacy,
    plateaus) pair and the gap profile of the verdict; the pair is None
    for a rational map."""
    diffeo = getattr(target_map, "base", target_map)
    anchor = _orbit_start(target_map)
    orbit = orbit_lift_reference(diffeo, anchor, budget)
    period, witness = period_witness(orbit, budget)
    profile = reference._gap_profile(orbit, period, budget)
    if period is not None:
        return ("rational-rotation", period, witness, None), None, profile
    ref = reference._semiconjugacy(orbit, anchor, budget)
    _, plateaus = ref
    for arc, flatness in sorted(plateaus, key=lambda p: -p[0].length):
        quarter = 0.25 * arc.length
        middle = Arc(arc.start + quarter, arc.start + 3.0 * quarter)
        probe = wandering_verdict(diffeo, middle, PROBE_STEPS)
        if probe.kind == "wandering-up-to-n":
            detail = (f"plateau flatness {flatness:.3e}; images disjoint "
                      f"for {PROBE_STEPS} steps")
            verdict = ("wandering-interval-found", None, detail, arc)
            return verdict, ref, profile
    detail = ("no plateau at this resolution"
              if not plateaus else "plateaus present but unconfirmed")
    return (("conjugate-evidence", None, detail + "; scale-limited statement",
             None), ref, profile)

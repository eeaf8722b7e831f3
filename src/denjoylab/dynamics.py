"""Orbit limit sets, wandering-interval detection, and the numeric
semi-conjugacy to a rigid rotation.

The semi-conjugacy pairs the sorted orbit of an anchor with the sorted
rotation orbit of the estimated rotation number, anchored so the base
point maps to 0.  When the map really is (semi-)conjugate this is the
Poincare construction sampled at n points; plateau signatures in the
pairing (large domain gap carrying almost no target mass) are the
footprint of wandering intervals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import CollapsedArcError, PeriodicOrbitError
from .maps import Arc, CircleDiffeo, arc_image, first_overlap, orbit_lift
from .rotation import birkhoff_from_orbit
from .util import circle_dist, frac

#: target gap below target_factor/n qualifies a knot pair as flat
PLATEAU_TARGET_FACTOR = 8.0
#: domain gap above domain_factor/n qualifies a knot pair as wide
PLATEAU_DOMAIN_FACTOR = 10.0
#: final orbit gap below this multiple of 1/n reads as dense coverage
DENSE_GAP_FACTOR = 8.0
#: stabilized orbit gap above this multiple of 1/n reads as a Cantor gap
CANTOR_GAP_FACTOR = 20.0
#: relative agreement of the last two gap-trend values for "stabilized"
STABLE_RTOL = 0.05
#: start point used when a map carries no distinguished anchor
DEFAULT_ANCHOR = 0.1234567891
#: gap within which two scanned images overlap in wandering_verdict
WANDERING_TOL = 1e-12
#: distance of a displacement F^q(x) - x to an integer p that counts as a
#: closed orbit in _orbit_and_period
PERIOD_TOL = 1e-9
#: most returns the period test compares; x_w stays below the lift
#: magnitudes where rounding over q steps passes PERIOD_TOL
PERIOD_WINDOW = 1000
#: steps of the disjointness scan that confirms a plateau as wandering
PROBE_STEPS = 50
#: the period test's witnesses, as a rational verdict's detail names them
CLOSED_DISPLACEMENT = "closed displacement detected"
EXACT_REPEAT = "exact repeat detected"


@dataclass(frozen=True)
class OrbitProfile:
    """Finite-orbit approximation of a limit set.

    ``gap_trend`` holds (budget, largest complementary gap) checkpoints.
    The verdict is one of dense-like, Cantor-like, periodic-like or
    unresolved, judged from the trend at the final budget.
    """

    max_gap: float
    gap_trend: tuple
    periodicity: int | None
    verdict: str


@dataclass(frozen=True)
class WanderingVerdict:
    """Outcome of the pairwise-disjointness scan of an arc's images."""

    kind: str
    pair: tuple | None = None
    min_length: float | None = None


@dataclass(frozen=True)
class SemiConjugacy:
    """Monotone degree-1 knot interpolant sending orbit to rotation orbit.

    ``knots`` pairs each circle position f^k(x0) with its target on the
    rigid orbit of alpha.  ``plateaus`` lists (arc, flatness) for each
    maximal circular run of knot gaps that are wide in the domain yet
    almost collapsed in the target, in order of the run's first gap; the
    run that wraps past the first knot comes last.  The arc runs from the
    run's first knot to the knot after its last gap.  Flatness is the
    target span over the domain span, each the gap itself for a one-gap
    run and otherwise np.sum over the run's gaps in circular order.
    Both tuples are built when read, from the arrays kept here.
    """

    anchor: float
    alpha: float
    defect: float
    _domain: np.ndarray
    _target: np.ndarray
    _points: np.ndarray
    _knot_targets: np.ndarray
    _plateau_lo: np.ndarray
    _plateau_hi: np.ndarray
    _flatness: np.ndarray

    @property
    def knots(self) -> tuple:
        """(f^k(x0) mod 1, target) pairs of plain floats, k = 0 .. n - 1."""
        return tuple(zip(self._points.tolist(), self._knot_targets.tolist()))

    @property
    def plateaus(self) -> tuple:
        """(Arc, flatness) pairs of the plateaus, flatness a plain float."""
        return tuple((Arc(lo, hi), ratio) for lo, hi, ratio in zip(
            self._plateau_lo.tolist(), self._plateau_hi.tolist(),
            self._flatness.tolist()))

    @property
    def plateau_count(self) -> int:
        """len(plateaus), read off the arrays without building an Arc."""
        return self._plateau_lo.size

    def interpolant(self, x):
        """Evaluate the piecewise-linear lift h with h(x+1) = h(x) + 1."""
        out = _interp_lift(self._domain, self._target, np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out


def _interp_lift(domain: np.ndarray, target: np.ndarray, arr: np.ndarray):
    """Degree-1 piecewise-linear interpolation through circular knots."""
    base = np.floor(arr)
    u = arr - base
    dom = np.concatenate([domain, [domain[0] + 1.0]])
    tgt = np.concatenate([target, [target[0] + 1.0]])
    shift = np.where(u < dom[0], 1.0, 0.0)
    return np.interp(u + shift, dom, tgt) - shift + base


@dataclass(frozen=True)
class ConjugacyVerdict:
    """Scale-limited conjugacy classification of a circle map.

    ``profile`` is the gap profile of the orbit the verdict was read
    from, built on its first read by ``_profile``, an init field.  A
    verdict whose period test iterated the budget builds it from its own
    circle positions; one whose x_w closed extends that orbit to the
    budget through ``orbit_lift``'s slot (n - w more steps while the slot
    holds it, else all n again, to the same bits).
    """

    kind: str
    arc: Arc | None = None
    period: int | None = None
    detail: str = ""
    #: the semi-conjugacy the verdict was read from; None for a rational map
    semi: SemiConjugacy | None = field(default=None, compare=False, repr=False)
    _profile: Callable[[], OrbitProfile] | None = field(
        default=None, compare=False, repr=False)

    @cached_property
    def profile(self) -> OrbitProfile | None:
        return None if self._profile is None else self._profile()


class _PeriodTest(NamedTuple):
    """What ``_orbit_and_period`` read off the orbit of x0.

    ``orbit`` is the lift orbit through x_w when x_w closed, else through
    x_n; ``witness`` names the witness that gave ``period``.  ``pts`` and
    ``order`` are None when x_w closed, else frac(orbit) and the stable
    argsort of pts[:n].
    """

    orbit: np.ndarray
    period: int | None
    witness: str | None
    pts: np.ndarray | None = None
    order: np.ndarray | None = None


def _orbit_start(target, x0: float | None = None) -> float:
    """The start of every orbit a run reads, the conjugacy verdict's too:
    x0 when set, else the map's ``cantor_anchor`` (a Denjoy map screens
    for it on the first read), else ``DEFAULT_ANCHOR``."""
    if x0 is not None:
        return x0
    return float(getattr(target, "cantor_anchor", DEFAULT_ANCHOR))


def _orbit_and_period(diffeo: CircleDiffeo, x0: float, n: int) -> _PeriodTest:
    """The period of the n-step orbit of x0, by the lab's one period test,
    which has two witnesses.

    A closed displacement: x_w, w = min(n, PERIOD_WINDOW), against its own
    returns, so an orbit closing in on an attracting cycle closes.  The
    period is the smallest q <= w with x_w - x_(w-q) within PERIOD_TOL of
    an integer, and only the w steps the test reads are iterated.
    An exact repeat: when x_w does not close, the same orbit is extended
    to x_n through ``orbit_lift``'s slot and its circle positions x_0 ..
    x_(n-1) are sorted stably, once.  Tied neighbours are positions equal
    mod 1 to the last bit, and the period is the smallest index gap
    between them; the stable sort keeps each run of ties in orbit order.
    With neither witness the period is None.
    """
    window = min(n, PERIOD_WINDOW)
    orbit = orbit_lift(diffeo, x0, window)
    disp = orbit[window] - orbit[window - 1::-1]
    hits = np.flatnonzero(np.abs(disp - np.round(disp)) <= PERIOD_TOL)
    if hits.size:
        return _PeriodTest(orbit, int(hits[0]) + 1, CLOSED_DISPLACEMENT)
    if n > window:
        orbit = orbit_lift(diffeo, x0, n)
    pts = frac(orbit)
    order = np.argsort(pts[:n], kind="stable")
    ranked = pts[order]
    tied = np.flatnonzero(ranked[1:] == ranked[:-1])
    if tied.size:
        period = int(np.min(order[tied + 1] - order[tied]))
        return _PeriodTest(orbit, period, EXACT_REPEAT, pts, order)
    return _PeriodTest(orbit, None, None, pts, order)


def interval_orbit(diffeo: CircleDiffeo, arc: Arc, n: int) -> list[Arc]:
    """The first n forward images of the arc, in order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    cur = arc
    for _ in range(n):
        cur = arc_image(diffeo, cur)
        out.append(cur)
    return out


def wandering_verdict(diffeo: CircleDiffeo, arc: Arc,
                      n: int) -> WanderingVerdict:
    """Scan the arc and its first n images for pairwise disjointness.

    All separated by more than ``WANDERING_TOL`` reads wandering-up-to-n;
    otherwise the verdict is overlap-at the first clashing index pair.
    An image that collapses below floating-point resolution, or whose
    complement does, ends the scan: the images before it are judged, with
    ``min_length`` 0.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    images = [arc]
    try:
        for _ in range(n):
            images.append(arc_image(diffeo, images[-1]))
        min_length = min(a.length for a in images)
    except CollapsedArcError:
        min_length = 0.0
    first_clash = first_overlap(images, WANDERING_TOL)
    if first_clash is None:
        return WanderingVerdict("wandering-up-to-n", min_length=min_length)
    return WanderingVerdict("overlap-at", pair=first_clash, min_length=min_length)


def omega_gap_profile(diffeo: CircleDiffeo, x0: float, n: int) -> OrbitProfile:
    """Gap structure of the forward orbit of x0.

    Records the largest complementary gap at budgets n/4, n/2 and n, then
    judges the limit-set trichotomy: gaps shrinking below 8/n look dense,
    a gap stabilized far above 1/n looks like a Cantor complement, and an
    orbit with a period (``_orbit_and_period``) is periodic.  The gaps are
    read from the n-step orbit whatever its period: when x_w closes, the
    w-step orbit of the period test is extended to n.
    """
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    test = _orbit_and_period(diffeo, x0, n)
    return _gap_profile_of(diffeo, x0, n, test.period, test.pts)


def _gap_profile_of(diffeo: CircleDiffeo, x0: float, n: int,
                    period: int | None, pts: np.ndarray | None) -> OrbitProfile:
    """omega_gap_profile from the period test of x0's orbit: from its
    circle positions pts, or, when x_w closed (pts None), from the orbit
    extended to n through ``orbit_lift``'s slot."""
    if pts is None:
        pts = frac(orbit_lift(diffeo, x0, n))
    return _gap_profile(pts, period, n)


def _gap_profile(pts: np.ndarray, period: int | None, n: int) -> OrbitProfile:
    """omega_gap_profile read from the circle positions
    pts = frac(orbit[:n + 1]) of x0's orbit."""
    checkpoints = sorted({max(10, n // 4), max(10, n // 2), n})
    prefixes = [np.sort(pts[:k + 1]) for k in checkpoints]
    trend = tuple((k, float(max(np.max(np.diff(s)), 1.0 - s[-1] + s[0])))
                  for k, s in zip(checkpoints, prefixes))
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


def build_semiconjugacy(diffeo: CircleDiffeo, x0: float, n: int) -> SemiConjugacy:
    """Construct the n-point Poincare pairing of the orbit of x0 with the
    rigid orbit of the estimated rotation number.

    Orbit positions and targets are each sorted circularly and paired by
    rank, anchored so x0 pairs with 0; that makes the interpolant
    monotone by construction and the knot equivariance defect zero
    whenever the orbit is circularly order-isomorphic to the rigid one.
    An orbit with a period (``_orbit_and_period``: x_w closes, or two
    positions repeat exactly) raises PeriodicOrbitError; when x_w
    closes, that costs w = min(n, PERIOD_WINDOW) steps, not n.
    """
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    test = _orbit_and_period(diffeo, x0, n)
    if test.period is not None:
        raise PeriodicOrbitError(
            test.period, "rational case; monotone circle-map classification "
                         "applies, no semi-conjugacy built")
    return _semiconjugacy(test.orbit, test.pts, test.order, x0, n)


def _circular_runs(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal circular run of True in
    ``flat``, which must hold a False, in order of the first index.  When
    flat[0] and flat[-1] are both True, the last run to start wraps past
    index 0 and ends at the first end."""
    starts = np.flatnonzero(flat & ~np.roll(flat, 1))
    ends = np.flatnonzero(flat & ~np.roll(flat, -1))
    if flat[0] and flat[-1]:
        ends = np.roll(ends, -1)
    return starts, ends


def _run_sums(gaps: np.ndarray, starts: np.ndarray,
              ends: np.ndarray) -> np.ndarray:
    """The sum of the gaps over each circular run from ``starts[r]`` to
    ``ends[r]``: a one-gap run is that gap, a longer one np.sum over its
    members in circular order.  (np.add.reduceat adds in another order,
    which on random gaps rounds differently from about four members up.)"""
    n = gaps.size
    sums = gaps[starts]
    lengths = (ends - starts) % n + 1
    for r in np.flatnonzero(lengths > 1).tolist():
        sums[r] = np.sum(gaps[(starts[r] + np.arange(lengths[r])) % n])
    return sums


def _semiconjugacy(orbit: np.ndarray, pts: np.ndarray, order: np.ndarray,
                   x0: float, n: int) -> SemiConjugacy:
    """build_semiconjugacy read from the aperiodic _orbit_and_period of x0:
    its n-step orbit, its circle positions pts = frac(orbit[:n + 1]) and
    the stable argsort ``order`` of pts[:n].

    The stable sort pairs equal positions in orbit order; the default kind
    leaves the order of equal keys to a CPU-dependent kernel.  A plateau
    is a maximal circular run of flat knot gaps (``_circular_runs``), the
    run that wraps past index 0 included.  Its domain and target spans are
    each the gap itself for a one-gap run, else np.sum over the run's gaps
    in circular order (``_run_sums``).
    """
    domain = pts[order]
    dom_gaps = np.diff(np.concatenate([domain, [domain[0] + 1.0]]))
    alpha = birkhoff_from_orbit(orbit, n).value
    targets_sorted = np.sort(frac(np.arange(n) * alpha))

    r0 = int(np.flatnonzero(order == 0)[0])
    assigned = np.roll(targets_sorted, r0)

    # unwrap the cyclically increasing targets into a monotone array
    target_inc = assigned.copy()
    target_inc[:int(np.argmin(assigned))] -= 1.0

    knot_targets = np.empty(n)
    knot_targets[order] = assigned
    d = np.abs(knot_targets[1:] - frac(knot_targets[:-1] + alpha))
    defect = float(np.max(np.minimum(d, 1.0 - d)))
    h_last = float(_interp_lift(domain, target_inc, np.asarray(pts[n])))
    defect = max(defect, circle_dist(h_last, knot_targets[n - 1] + alpha))

    tgt_gaps = np.diff(np.concatenate([target_inc, [target_inc[0] + 1.0]]))
    flat = (tgt_gaps < PLATEAU_TARGET_FACTOR / n) & (
        dom_gaps > PLATEAU_DOMAIN_FACTOR / n)

    # flat gaps are wider than 10/n and the n gaps sum to 1: not all are flat
    starts, ends = _circular_runs(flat)
    flatness = _run_sums(tgt_gaps, starts, ends) / _run_sums(
        dom_gaps, starts, ends)
    lo, hi = domain[starts], domain[(ends + 1) % n]

    return SemiConjugacy(anchor=float(x0), alpha=float(alpha),
                         defect=float(defect), _domain=domain,
                         _target=target_inc, _points=pts[:n],
                         _knot_targets=knot_targets, _plateau_lo=lo,
                         _plateau_hi=hi, _flatness=flatness)


def conjugacy_verdict(target_map, budget: int,
                      x0: float | None = None) -> ConjugacyVerdict:
    """Classify a circle map as conjugate-evidence,
    wandering-interval-found, or rational-rotation.

    Accepts a plain diffeomorphism or a wandering-interval construction,
    whose base map is used; the period, semi-conjugacy and gap profile
    read one orbit, from ``_orbit_start(target_map, x0)``.  Plateaus are
    probed longest first, by the disjointness scan on the middle half;
    only probed ones become arcs.  Positive statements are scale-limited.

    A rational verdict's detail names the period test's witness.  When
    x_w closes, the verdict has iterated w = min(budget, PERIOD_WINDOW)
    steps; its gap profile, built on first read, extends the orbit to the
    budget.  Otherwise the verdict iterates the budget once and sorts it
    once.
    """
    if budget < 100:
        raise ValueError(f"budget must be >= 100, got {budget}")
    diffeo = getattr(target_map, "base", target_map)
    anchor = _orbit_start(target_map, x0)

    test = _orbit_and_period(diffeo, anchor, budget)
    profile = partial(_gap_profile_of, diffeo, anchor, budget, test.period,
                      test.pts)
    if test.period is not None:
        return ConjugacyVerdict("rational-rotation", period=test.period,
                                detail=test.witness, _profile=profile)
    semi = _semiconjugacy(test.orbit, test.pts, test.order, anchor, budget)

    lo, hi, flat = semi._plateau_lo, semi._plateau_hi, semi._flatness
    lengths = (hi - lo) % 1.0 % 1.0
    # stable: tied lengths keep the order of their runs' first gaps
    for i in np.argsort(-lengths, kind="stable").tolist():
        arc, flatness = Arc(lo[i], hi[i]), flat[i]
        quarter = 0.25 * arc.length
        middle = Arc(arc.start + quarter, arc.start + 3.0 * quarter)
        probe = wandering_verdict(diffeo, middle, n=PROBE_STEPS)
        if probe.kind == "wandering-up-to-n":
            return ConjugacyVerdict(
                "wandering-interval-found", arc=arc,
                detail=f"plateau flatness {flatness:.3e}; images disjoint "
                       f"for {PROBE_STEPS} steps", semi=semi,
                _profile=profile)
    detail = ("no plateau at this resolution"
              if not lo.size else "plateaus present but unconfirmed")
    return ConjugacyVerdict("conjugate-evidence",
                            detail=detail + "; scale-limited statement",
                            semi=semi, _profile=profile)

"""Circle diffeomorphisms represented by their lifts.

A lift is a strictly increasing F: R -> R with F(x + 1) = F(x) + 1; the
circle map it covers is x mod 1 -> F(x) mod 1.  Everything downstream
(rotation numbers, wandering intervals, semi-conjugacies) consumes this
representation, so the invariants here are checked on a grid by
``validate_lift`` rather than trusted.
"""
from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CollapsedArcError, FloatRangeError, RootFindError
from .util import _simpson_cell, solve_increasing

#: default grid size for lift validation
VALIDATE_GRID = 10_000
#: largest periodicity, monotonicity and increment defect a valid lift may show
VALIDATE_TOL = 1e-8
#: adaptive-Simpson target for the per-cell integrals of lift validation
VALIDATE_QUAD_TOL = 1e-12


@dataclass(frozen=True)
class Arc:
    """Closed circular arc from start to end, counter-clockwise.

    Positions live in [0, 1); ``length`` is the ccw extent and must stay
    in (0, 1) -- a full-circle or empty arc is rejected.
    Every reduction mod 1 is ``x % 1.0 % 1.0``, which is ``util.frac``'s
    float path without its ``np.float64`` wrapper (the second ``% 1.0``
    turns the 1.0 of a difference within 2^-54 below 0 into 0.0), and for
    any other numeric scalar gives the bits ``frac`` gives.
    """

    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "start", float(self.start % 1.0 % 1.0))
        object.__setattr__(self, "end", float(self.end % 1.0 % 1.0))
        if not 0.0 < self.length < 1.0:
            raise ValueError(
                f"arc length {self.length!r} outside (0, 1): start={self.start}, end={self.end}"
            )

    @property
    def length(self) -> float:
        return (self.end - self.start) % 1.0 % 1.0

    def contains(self, point: float, tol: float = 0.0) -> bool:
        """Closed-arc membership, with optional tolerance padding."""
        return bool((point - self.start) % 1.0 % 1.0 <= self.length + tol
                    or (self.start - point) % 1.0 % 1.0 <= tol)

    def intersects(self, other: "Arc", tol: float = 0.0) -> bool:
        """True when the closed arcs come within tol of each other."""
        return ((other.start - self.start) % 1.0 % 1.0 <= self.length + tol
                or (self.start - other.start) % 1.0 % 1.0 <= other.length + tol)

    def midpoint(self) -> float:
        return (self.start + 0.5 * self.length) % 1.0 % 1.0


def first_overlap(arcs, tol: float = 0.0) -> tuple[int, int] | None:
    """First pair (i, j), i < j in row order, of arcs within tol, or None.

    Two arcs meet when one start lies within the other arc's ccw extent
    padded by tol >= 0, and then so does the start that follows the
    other's in circular order (or, when the distance to a start just below
    rounds to 1.0 and so reads 0.0, the one that precedes it).  So the
    circularly adjacent pairs in start order are checked first, and when
    none of them meet, none of the pairs do.  Otherwise the pairs are
    scanned in row order.
    """
    order = sorted(range(len(arcs)), key=lambda i: arcs[i].start)
    if not any(arcs[i].intersects(arcs[j], tol=tol)
               for i, j in zip(order, order[1:] + order[:1])):
        return None
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if arcs[i].intersects(arcs[j], tol=tol):
                return i, j
    return None


@dataclass(frozen=True)
class CircleDiffeo:
    """Degree-one circle map given by its lift.

    Fields:
        lift_eval: the lift F, accepting floats or numpy arrays.  It must be
            pure: the same float always gives the same float, because
            ``orbit_lift`` hands out stored orbits of the same map object.
            It may carry ``orbit(buf)``, filling buf[1:] of a float64 array
            in place with F(buf[0]), F^2(buf[0]), ..., bit for bit the scalar
            path's floats and raising where it raises, for ``orbit_lift``;
            a wrapper or replacement of it drops ``orbit``.
        lift_derivative: F' when the map is C1, else None.
        label: human-readable tag used in reports.
        lift_inverse: a closed-form F^{-1} on floats, or None to let
            ``inverse_eval`` solve F(x) = y with ``util.solve_increasing``.
            It must invert ``lift_eval``: ``dataclasses.replace`` of
            ``lift_eval`` alone is valid only for a wrapper of the same
            function (one that counts or times calls, say); a new lift
            also needs a new ``lift_inverse`` or None.
    """

    lift_eval: Callable
    lift_derivative: Callable | None = None
    label: str = ""
    lift_inverse: Callable | None = None


def inverse_eval(diffeo: CircleDiffeo, y: float) -> float:
    """Solve F(x) = y for the lift F.

    Returns ``diffeo.lift_inverse(y)`` when the map carries a closed-form
    inverse.  Otherwise ``util.solve_increasing`` on [g - 1, g + 1] from
    the start guess g = 2y - F(y), with Newton steps when the map carries
    a derivative.  The root x has x - g = (F(y) - y) - (F(x) - x), and the
    displacement F - id of an increasing degree-one lift varies by less
    than 1, so the bracket holds the root however far the displacement is
    from 0.  RootFindError when it does not, that is, when F is not such a
    lift.
    """
    if diffeo.lift_inverse is not None:
        return diffeo.lift_inverse(y)
    lift = diffeo.lift_eval
    guess = 2.0 * y - float(lift(y))
    lo, hi = guess - 1.0, guess + 1.0
    if not float(lift(lo)) <= y <= float(lift(hi)):
        raise RootFindError(f"no bracket for F(x) = {y!r} within 1 of "
                            f"the guess {guess!r}")
    return solve_increasing(lift, diffeo.lift_derivative, y, lo, hi, guess)


#: the last orbit orbit_lift iterated: (weakref to the map, start, orbit)
_last_orbit = (None, 0.0, np.empty(0))


def orbit_lift(diffeo: CircleDiffeo, x0: float, n: int) -> np.ndarray:
    """Lift orbit [x0, F(x0), ..., F^n(x0)] as a read-only array.

    The last orbit iterated is kept in one slot, keyed on the map object
    (held by a weak reference, so a new map at a freed address never
    matches) and on the bits of ``float(x0)``: 0.0 and -0.0 are different
    starts, and a NaN start never matches.  A call on the same map and
    start reads its points from the slot and iterates only the steps past
    its end, then keeps the longer orbit.  The loop's only state is the
    last point, so the result is bit for bit the orbit a fresh loop gives.
    A longer orbit goes into a new buffer of n + 1 floats, the stored
    prefix copied in and the rest filled in place by ``lift_eval.orbit`` if
    set (rigid, Arnold), else by one lift call per step.  A stored buffer
    is never written again; a call returns a read-only view, which keeps
    all of it alive.  FloatRangeError if the orbit leaves the float range.
    The first read of a Denjoy map's ``cantor_anchor`` fills the slot with
    the orbit it screened for that anchor, so the next call on the map's
    ``base`` from ``cantor_anchor`` iterates only past ``anchor_budget`` +
    1 steps.
    """
    global _last_orbit
    if n < 0:
        raise ValueError(f"need n >= 0 steps, got {n}")
    start = float(x0)
    ref, last_start, orbit = _last_orbit
    if not (ref is not None and ref() is diffeo and last_start == start
            and math.copysign(1.0, last_start) == math.copysign(1.0, start)):
        orbit = np.array([start])
    if n >= orbit.size:
        orbit, prefix = np.empty(n + 1), orbit
        orbit[:prefix.size] = prefix
        lift = diffeo.lift_eval
        fill = getattr(lift, "orbit", None)
        try:
            if fill is not None:
                fill(orbit[prefix.size - 1:])
            else:
                view = memoryview(orbit)
                z = view[prefix.size - 1]
                for i in range(prefix.size, n + 1):
                    z = float(lift(z))
                    view[i] = z
        except OverflowError as err:
            raise FloatRangeError(f"the lift orbit of {start!r} leaves the "
                                  f"float range within {n} steps") from err
        _last_orbit = (weakref.ref(diffeo), start, orbit)
    orbit.flags.writeable = False
    return orbit[:n + 1]


def _store_orbit(diffeo: CircleDiffeo, orbit: list[float]) -> None:
    """Put a lift orbit [x0, F(x0), ...] of the map, iterated with the
    scalar arithmetic of its ``lift_eval``, in ``orbit_lift``'s slot,
    read-only, keyed on the map object and on x0 = orbit[0]."""
    global _last_orbit
    stored = np.array(orbit)
    stored.flags.writeable = False
    _last_orbit = (weakref.ref(diffeo), orbit[0], stored)


def arc_image(diffeo: CircleDiffeo, arc: Arc) -> Arc:
    """Image of a closed arc under the circle map.

    CollapsedArcError when the image's lift endpoints do not strictly
    increase: reduced mod 1 they would give an empty or a near-full arc.
    """
    lo = diffeo.lift_eval(arc.start)
    hi = diffeo.lift_eval(arc.start + arc.length)
    if hi <= lo:
        raise CollapsedArcError(
            f"image of {arc} collapsed: lift endpoints {lo!r}, {hi!r}")
    return Arc(lo, hi)


@dataclass(frozen=True)
class LiftValidationReport:
    """Grid-check summary for a claimed lift.

    Defects are worst-case absolute violations over the grid; ``passed``
    means every defect is within ``VALIDATE_TOL``.
    """

    grid_size: int
    periodicity_defect: float
    monotonicity_defect: float
    derivative_min: float | None
    increment_defect: float | None

    @property
    def passed(self) -> bool:
        ok = (self.periodicity_defect <= VALIDATE_TOL
              and self.monotonicity_defect <= VALIDATE_TOL)
        if self.derivative_min is not None:
            ok = ok and self.derivative_min > 0.0
        if self.increment_defect is not None:
            ok = ok and self.increment_defect <= VALIDATE_TOL
        return ok


def validate_lift(diffeo: CircleDiffeo,
                  grid_size: int = VALIDATE_GRID) -> LiftValidationReport:
    """Check periodicity, monotonicity and derivative consistency on a grid.

    The derivative/increment check integrates F' (called once per knot) over
    each cell with adaptive Simpson to ``VALIDATE_QUAD_TOL`` and compares with
    F(b) - F(a); it is skipped when the map carries no derivative.  A NaN
    integral on any cell makes the increment defect NaN, which fails.
    """
    if grid_size < 1:
        raise ValueError(f"grid_size must be >= 1, got {grid_size!r}")
    xs = np.linspace(0.0, 1.0, grid_size + 1)
    fx = np.asarray(diffeo.lift_eval(xs), dtype=float)
    fx1 = np.asarray(diffeo.lift_eval(xs + 1.0), dtype=float)
    periodicity = float(np.max(np.abs(fx1 - fx - 1.0)))
    increments = np.diff(fx)
    # not max(0.0, drop), which keeps 0.0 against NaN: a NaN drop must fail
    drop = -float(np.min(increments))
    monotonicity = 0.0 if drop <= 0.0 else drop

    derivative_min = None
    increment_defect = None
    if diffeo.lift_derivative is not None:
        dx = np.asarray(diffeo.lift_derivative(xs), dtype=float)
        derivative_min = float(np.min(dx))
        deriv = diffeo.lift_derivative
        knots = xs.tolist()
        ends = [deriv(t) for t in knots]
        if not isinstance(ends[0], float):
            # read a float32 or array F' through float(), or the sums keep its type
            raw = diffeo.lift_derivative
            deriv = lambda t: float(raw(t))
            ends = [float(v) for v in ends]
        defects = [abs(_simpson_cell(deriv, a, b, fa, fb, VALIDATE_QUAD_TOL) - df)
                   for a, b, fa, fb, df in zip(knots, knots[1:], ends, ends[1:],
                                               increments.tolist())]
        # np.max, not max(): a NaN defect must propagate and fail the check
        increment_defect = float(np.max(defects))

    return LiftValidationReport(
        grid_size=grid_size,
        periodicity_defect=periodicity,
        monotonicity_defect=monotonicity,
        derivative_min=derivative_min,
        increment_defect=increment_defect,
    )

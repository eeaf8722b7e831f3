"""Built-in maps and test functions with analytically known regularity data.

Three families live here:

* parametric circle maps (rigid rotations and their sine perturbations),
* a truncated wandering-interval construction assembled from closed-form
  pieces, carrying its wandering arc and insertion bookkeeping,
* three interval functions whose variation behaviour is known in closed
  form, used throughout the test suite as ground truth.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import NonMonotoneMapError
from .maps import Arc, CircleDiffeo, _store_orbit
from .util import continued_fraction, frac, solve_increasing

TWO_PI = 2.0 * math.pi

#: series depth used for the tent-sum function when none is requested
DEFAULT_TENT_DEPTH = 20
#: deepest tent sum: the scale 2.0 ** depth of its last layer overflows above it
MAX_TENT_DEPTH = 1023

#: argument types that the catalog lifts evaluate on plain floats
SCALAR_TYPES = (float, int, np.floating, np.integer)

#: smallest admissible derivative-profile ratio; below it the quadratic
#: derivative profile would dip to zero inside a piece
MIN_PIECE_RATIO = 0.35


@dataclass(frozen=True)
class OracleInfo:
    """Closed-form regularity data attached to a catalog function.

    Numeric fields describe the concrete (truncated) function instance;
    the boolean flags are family-level verdicts at matched estimator
    budgets, i.e. whether the estimates stay bounded when truncation
    depth and measurement resolution grow together.  ``None`` means no
    claim.
    """

    total_variation: float | None = None
    quadratic_variation: float | None = None
    zygmund_variation_bounded: bool | None = None
    zygmund_norm_bounded: bool | None = None


@dataclass(frozen=True)
class IntervalFunction:
    """A continuous real function on a closed interval.

    ``eval`` accepts floats or numpy arrays.  ``oracle`` holds whatever
    closed-form variation data is known.
    """

    domain: tuple[float, float]
    eval: Callable
    oracle: OracleInfo | None = None
    label: str = ""

    def __call__(self, x):
        return self.eval(x)


# ---------------------------------------------------------------------------
# parametric circle maps


def make_map(recipe: Mapping) -> CircleDiffeo:
    """Construct a rigid rotation or a sine-perturbed rotation from a
    description with keys ``kind``, ``alpha`` and optional ``amplitude``.

    kind 'arnold': lift x + alpha + (amplitude / 2 pi) sin(2 pi x), with
    derivative 1 + amplitude cos(2 pi x); amplitude must stay in [0, 1)
    for the lift to remain a diffeomorphism.
    kind 'rigid': lift x + alpha, the amplitude-0 member whatever
    ``amplitude`` says; its sine term adds a signed zero.
    The sine reads x - floor(x) as it rounds (1.0 just below 0, where
    ``frac`` gives 0.0), so F(x + 1) = F(x) + 1 exactly.  A scalar takes
    ``math`` on a plain float, repeating the array arithmetic bit for bit;
    a NaN or infinite one raises from ``math.floor``; an array gives NaN.
    ``lift.orbit(buf)`` fills buf[1:] from buf[0] in place by that float
    path, for ``maps.orbit_lift``; at amplitude 0, by one ordered accumulate.
    """
    kind = recipe["kind"]
    alpha = float(recipe["alpha"])
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if kind == "rigid":
        amplitude = 0.0
        label = f"rigid({alpha:.10g})"
    elif kind == "arnold":
        amplitude = float(recipe.get("amplitude", 0.0))
        if not amplitude >= 0.0:
            raise ValueError(f"amplitude must be non-negative, got {amplitude}")
        if amplitude >= 1.0:
            raise NonMonotoneMapError(
                f"amplitude {amplitude} >= 1: lift derivative reaches zero, "
                "not a diffeomorphism")
        label = f"arnold({alpha:.10g}, {amplitude:.10g})"
    else:
        raise ValueError(f"unknown map kind {kind!r}; expected 'rigid' or 'arnold'")
    scale = amplitude / TWO_PI

    def lift(x):
        if type(x) is not float:
            if not isinstance(x, SCALAR_TYPES):
                return x + (alpha + scale * np.sin(TWO_PI * (x - np.floor(x))))
            x = float(x)
        return x + (alpha + scale * math.sin(TWO_PI * (x - math.floor(x))))

    def orbit(buf):
        """Fill buf[1:] with F(z), F^2(z), ... for z = buf[0], by the float
        path above, in place.  At scale 0 the sine term adds a signed zero,
        so each step is z + alpha: one ordered accumulate gives the loop's
        bits, and the orbit is monotone, so flooring its first and its
        last start raises where the loop's floors would."""
        a, s, floor, n = alpha, scale, math.floor, buf.size - 1
        if s == 0.0 and n:
            floor(buf[0])
            buf[1:] = a
            with np.errstate(over="ignore"):
                np.add.accumulate(buf, out=buf)
            floor(buf[n - 1])
            return
        view, z, sin, two_pi = memoryview(buf), float(buf[0]), math.sin, TWO_PI
        for i in range(1, n + 1):
            z = z + (a + s * sin(two_pi * (z - floor(z))))
            view[i] = z

    lift.orbit = orbit

    def lift_derivative(x):
        if type(x) is not float:
            if not isinstance(x, SCALAR_TYPES):
                return 1.0 + amplitude * np.cos(TWO_PI * (x - np.floor(x)))
            x = float(x)
        return 1.0 + amplitude * math.cos(TWO_PI * (x - math.floor(x)))

    return CircleDiffeo(lift_eval=lift, lift_derivative=lift_derivative, label=label)


# ---------------------------------------------------------------------------
# truncated wandering-interval construction


@dataclass(frozen=True)
class DenjoyMap:
    """A truncated Denjoy construction: a C1 circle diffeomorphism built
    by blowing up 2N + 1 points of an orbit of the rotation by ``alpha``.

    It is not the counterexample it truncates.  Its log Df has bounded
    variation, so by Denjoy's theorem it has no wandering interval when
    its own rotation number rho(N), which differs from ``alpha``, is
    irrational.  ``wandering_arc`` stays disjoint from its images only up
    to a horizon that grows with N: at alpha = sqrt(2) - 1 and mass 0.5
    it first meets itself at step 408, 985 and 8 935 for N = 30, 50, 100.

    ``inserted_lengths``, ``insertion_starts`` and ``insertion_arcs`` are
    ordered by the signed orbit index n = -truncation .. truncation; index
    n labels the interval sitting at circle angle frac(n * alpha) of the
    reference rotation.  ``insertion_arcs`` is built from the starts and
    lengths on its first read.
    ``cantor_anchor`` is a point of the complementary (dust) set whose
    forward orbit was checked to stay clear of every insertion for at
    least ``anchor_budget`` iterates.  The build does not screen for it:
    the first read of ``cantor_anchor`` runs ``_find_dust_anchor`` and
    leaves the screened orbit, ``anchor_budget`` + 1 steps, in
    ``maps.orbit_lift``'s slot under ``base`` and the anchor, so the next
    ``orbit_lift`` of ``base`` from ``cantor_anchor`` reads it and
    iterates only the steps past its end.  A map whose screen finds no
    anchor (the golden mean at N <= 50) builds, but that first read raises
    ``RuntimeError``.  ``_screen(budget)`` runs the screen on the build's
    own piece table; it is an init field, so a ``dataclasses.replace`` copy
    screens again on its first read and stores the orbit under its own
    ``base``.
    """

    base: CircleDiffeo
    wandering_arc: Arc
    alpha: float
    inserted_lengths: tuple[float, ...]
    truncation: int
    insertion_starts: tuple[float, ...]
    anchor_budget: int
    _screen: Callable[[int], list[float]] = field(compare=False, repr=False)

    @cached_property
    def insertion_arcs(self) -> tuple[Arc, ...]:
        return tuple(Arc(start, start + length) for start, length in
                     zip(self.insertion_starts, self.inserted_lengths))

    @cached_property
    def cantor_anchor(self) -> float:
        orbit = self._screen(self.anchor_budget)
        _store_orbit(self.base, orbit)
        return orbit[0]

    def insertion_length(self, n: int) -> float:
        return self.inserted_lengths[n + self.truncation]

    def insertion_arc(self, n: int) -> Arc:
        return self.insertion_arcs[n + self.truncation]


def _profile_ratio_guard(ratios: np.ndarray) -> None:
    worst = float(ratios.min())
    # not worst <= ...: a NaN ratio must fail
    if not worst > MIN_PIECE_RATIO:
        raise ValueError(
            f"piece length ratio {worst:.4g} too small for a positive "
            "quadratic derivative profile; loosen the parameters")


def _assert_irrational(alpha: float, N: int) -> None:
    """Reject alpha whose denominators resolve rationally below ~20 N."""
    window = max(1000, 20 * N)
    quotients = continued_fraction(alpha, max_terms=40)
    q_prev, q_cur = 0, 1
    for a in quotients[1:]:
        if a >= 10 ** 6:
            raise ValueError(
                f"alpha {alpha!r} is rationally resolvable at working "
                f"precision (partial quotient {a})")
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > window:
            return
    # expansion exhausted before the window: alpha behaved rationally
    raise ValueError(
        f"alpha {alpha!r} resolves to a rational with denominator <= {window}")


def make_denjoy(alpha: float, N: int, mass: float) -> DenjoyMap:
    """Build a truncated Denjoy construction, whose arc wanders only up
    to a horizon that grows with N (see ``DenjoyMap``).

    At each angle frac(n alpha), n in [-N, N], an interval of length
    mass * c0 / (|n| + 2)^2 is inserted (c0 normalizes the total inserted
    length to ``mass``).  Inserted interval n maps onto inserted interval
    n + 1 through the unique increasing map whose derivative is the
    quadratic polynomial equal to 1 at both endpoints with the correct
    integral, so the glued map is C1 with derivative exactly 1 at every
    insertion endpoint.  The surviving dust maps by the conjugated
    rotation; the index-N interval is sent to a slot carved around the
    angle (N+1) alpha, and the dust stretch upstream of index -N spreads
    to cover that interval, which is where the truncation approximates
    the infinite construction.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    alpha = float(frac(alpha))
    if not 0.0 < mass < 1.0:
        raise ValueError(f"mass must lie in (0, 1), got {mass}")
    if N < 10:
        raise ValueError(f"truncation N must be at least 10, got {N}")
    _assert_irrational(alpha, N)

    idx = np.arange(-N, N + 1)
    theta = frac(alpha * idx)
    c0 = 1.0 / float(np.sum(1.0 / (np.abs(idx) + 2.0) ** 2))
    lengths = mass * c0 / (np.abs(idx) + 2.0) ** 2

    theta_extra = float(frac((N + 1) * alpha))
    gaps_all = np.sort(np.concatenate([theta, [theta_extra]]))
    min_gap = float(np.min(np.diff(np.concatenate([gaps_all, [gaps_all[0] + 1.0]]))))
    if min_gap < 1e-9:
        raise ValueError(
            f"alpha {alpha!r} packs rotation angles within {min_gap:.3g}; "
            "rationally resolvable at working precision")

    order = np.argsort(theta)          # position rank -> signed-index slot
    theta_sorted = theta[order]
    len_sorted = lengths[order]
    cum_len = np.concatenate([[0.0], np.cumsum(len_sorted)])
    start_sorted = (1.0 - mass) * theta_sorted + cum_len[:-1]

    theta_list = theta_sorted.tolist()
    cum_list = cum_len.tolist()

    def dust_position(t: float) -> float:
        """Circle position of angle t under the insertion-marking correspondence."""
        return (1.0 - mass) * t + cum_list[bisect_left(theta_list, t)]

    start_by_index = np.empty(2 * N + 1)
    start_by_index[order] = start_sorted

    # insertion n maps onto insertion n + 1, and insertion N onto a slot
    # of length ell' centred on the dust position of angle (N + 1) alpha;
    # both arrays in position order, like start_sorted
    ell_prime = mass * c0 / (N + 3.0) ** 2
    p_star = dust_position(theta_extra)
    img_start = np.append(start_by_index[1:], p_star - 0.5 * ell_prime)[order]
    img_len = np.append(lengths[1:], ell_prime)[order]

    # piece table around the circle, cut at the first insertion start:
    # insertion, dust, insertion, dust, ... (2N+1 of each); a dust piece
    # maps onto the gap up to the next insertion's image
    src_knots = np.append(
        np.column_stack([start_sorted, start_sorted + len_sorted]).ravel(),
        start_sorted[0] + 1.0)
    img_gap = frac(np.roll(img_start, -1) - frac(img_start + img_len))
    img_lens = np.column_stack([img_len, img_gap]).ravel()

    img_lens[-1] += 1.0 - float(np.sum(img_lens))        # close the circle exactly
    # after closing, so that an overlapping tiling (sum above 1) shows here
    if float(img_lens.min()) <= 0.0:
        raise ValueError("image tiling degenerate; parameters too extreme")

    src_lens = np.diff(src_knots)
    # a mass near 0 rounds insertions to length 0, which the ratios divide by
    if not float(src_lens.min()) > 0.0:
        raise ValueError(f"a source piece rounds to length 0 at mass "
                         f"{mass!r}; parameters too extreme")
    ratios = img_lens / src_lens
    _profile_ratio_guard(ratios)
    img_knots = float(img_start[0]) + np.concatenate([[0.0], np.cumsum(img_lens)])

    cut = float(src_knots[0])
    # a search over the inner knots gives the piece index, already clamped:
    # a u below the first knot or at or past the last one, which only
    # rounding produces, falls in the end piece; likewise for the images
    inner = src_knots[1:-1]
    ratios_m1 = ratios - 1.0
    # plain-float copies for the scalar paths, which repeat the array
    # arithmetic below operation for operation and so agree bit for bit
    knots, inner_list, lens, rats_m1, imgs = (a.tolist() for a in (
        src_knots, inner, src_lens, ratios_m1, img_knots))
    img_inner = imgs[1:-1]

    def step(x: float) -> tuple[float, int]:
        """F(x) for a float x, and the index of the piece that holds x."""
        k = math.floor(x - cut)
        u = x - k
        j = bisect_right(inner_list, u)
        ln = lens[j]
        s = (u - knots[j]) / ln
        return imgs[j] + ln * (s + rats_m1[j] * (3.0 - 2.0 * s) * s * s) + k, j

    def lift(x):
        if type(x) is not float:
            if not isinstance(x, SCALAR_TYPES):
                arr = np.asarray(x, dtype=float)
                k = np.floor(arr - cut)
                u = arr - k
                j = np.searchsorted(inner, u, side="right")
                ln = src_lens[j]
                s = (u - src_knots[j]) / ln
                out = img_knots[j] + ln * (s + ratios_m1[j] * (3.0 - 2.0 * s) * s * s) + k
                return float(out) if arr.ndim == 0 else out
            x = float(x)
        return step(x)[0]

    def lift_derivative(x):
        if type(x) is not float:
            if not isinstance(x, SCALAR_TYPES):
                arr = np.asarray(x, dtype=float)
                u = arr - np.floor(arr - cut)
                j = np.searchsorted(inner, u, side="right")
                s = (u - src_knots[j]) / src_lens[j]
                out = 1.0 + 6.0 * ratios_m1[j] * s * (1.0 - s)
                return float(out) if arr.ndim == 0 else out
            x = float(x)
        u = x - math.floor(x - cut)
        j = bisect_right(inner_list, u)
        s = (u - knots[j]) / lens[j]
        return 1.0 + 6.0 * rats_m1[j] * s * (1.0 - s)

    img0 = imgs[0]

    def lift_inverse(y: float) -> float:
        """The x with lift(x) = y: locate the piece through the image
        knots, then solve that piece's monotone cubic for s in [0, 1]."""
        y = float(y)
        k = math.floor(y - img0)
        v = y - k
        j = bisect_right(img_inner, v)
        r1 = rats_m1[j]
        ln = lens[j]
        t = (v - imgs[j]) / ln

        def g(s):
            return s + r1 * (3.0 - 2.0 * s) * s * s

        def dg(s):
            # positive, since the piece ratio r1 + 1 exceeds MIN_PIECE_RATIO
            return 1.0 + 6.0 * r1 * s * (1.0 - s)

        # a t outside [0, r1 + 1], which only rounding produces, yields
        # the nearer end of [0, 1]
        s = solve_increasing(g, dg, t, 0.0, 1.0, min(max(t / (r1 + 1.0), 0.0), 1.0))
        return knots[j] + ln * s + k

    base = CircleDiffeo(lift_eval=lift, lift_derivative=lift_derivative,
                        lift_inverse=lift_inverse,
                        label=f"denjoy({alpha:.6g}, N={N}, mass={mass:g})")

    def screen(budget: int) -> list[float]:
        return _find_dust_anchor(step, dust_position, budget)

    return DenjoyMap(
        base=base,
        wandering_arc=Arc(float(start_by_index[N]), float(start_by_index[N] + lengths[N])),
        alpha=alpha,
        inserted_lengths=tuple(lengths.tolist()),
        truncation=N,
        insertion_starts=tuple(start_by_index.tolist()),
        anchor_budget=1100,
        _screen=screen,
    )


def _find_dust_anchor(step: Callable[[float], tuple[float, int]],
                      dust_position: Callable[[float], float],
                      budget: int) -> list[float]:
    """The lift orbit z_0 .. z_{budget+1} of a dust point z_0 whose orbit
    avoids every insertion for ``budget`` steps.

    The truncation makes one dust stretch spill into the lowest-index
    insertion, so a random dust point can be swallowed by the insertion
    chain; candidates are therefore screened by direct simulation, each
    dropped at its first step into an insertion.  ``step(z)`` gives F(z)
    and the index of the piece holding z, so each step looks up its piece
    once: the pieces alternate insertion, dust, ..., and z_0 .. z_budget
    must all lie on odd (dust) pieces.
    """
    seed = 0.5 * (math.sqrt(5.0) - 1.0)
    for i in range(40):
        z = dust_position(float(frac(0.1234567 + seed * i)))
        orbit = [z]
        for _ in range(budget + 1):
            z, piece = step(z)
            if not piece & 1:
                break
            orbit.append(z)
        else:
            return orbit
    raise RuntimeError(f"no dust anchor found clear of insertions for {budget} steps")


# ---------------------------------------------------------------------------
# interval functions with known variation behaviour


def takagi_total_variation(depth: int) -> float:
    """Exact total variation of the tent-sum function truncated at ``depth``.

    The truncated sum is piecewise linear with slope 2 * (#up - #down)
    over the level-(depth+1) dyadic cells, one cell per sign pattern, so
    the variation is a central-binomial expression in m = depth + 1.
    ValueError above ``MAX_TENT_DEPTH``.
    """
    if depth > MAX_TENT_DEPTH:
        raise ValueError(f"tent depth must be <= {MAX_TENT_DEPTH}, got {depth}")
    m = depth + 1
    return m * 2.0 ** (2 - m) * math.comb(m - 1, (m - 1) // 2)


def _ex1() -> IntervalFunction:
    def f(x):
        arr = np.asarray(x, dtype=float)
        out = np.where(arr > 0.0, np.sqrt(np.clip(arr, 0.0, None)), arr)
        return float(out) if np.ndim(x) == 0 else out

    oracle = OracleInfo(total_variation=2.0, quadratic_variation=4.0,
                        zygmund_variation_bounded=True,
                        zygmund_norm_bounded=False)
    return IntervalFunction(domain=(-1.0, 1.0), eval=f, oracle=oracle,
                            label="ex1 (identity left of 0, square root right)")


def _ex2(depth: int) -> IntervalFunction:
    def f(x):
        arr = np.asarray(x, dtype=float)
        total = np.zeros_like(arr)
        for n in range(depth + 1):
            u = frac(arr * 2.0 ** n)
            total += (1.0 - np.abs(2.0 * u - 1.0)) / 2.0 ** n
        return float(total) if np.ndim(x) == 0 else total

    oracle = OracleInfo(total_variation=takagi_total_variation(depth),
                        zygmund_variation_bounded=True,
                        zygmund_norm_bounded=False)
    return IntervalFunction(domain=(0.0, 1.0), eval=f, oracle=oracle,
                            label=f"ex2 (tent sum, depth {depth})")


def _ex3(depth: int) -> IntervalFunction:
    def f(x):
        arr = np.asarray(x, dtype=float)
        out = np.zeros_like(arr)
        inside = (arr > 2.0 ** (-(depth + 1))) & (arr < 0.5)
        if np.any(inside):
            v = arr[inside]
            n = np.floor(-np.log2(v)).astype(int)
            n = np.clip(n, 1, depth)
            lo = 2.0 ** (-(n + 1.0))
            s = (v - lo) / 2.0 ** (-(n + 2.0))
            out[inside] = np.clip(1.0 - np.abs(s - 1.0), 0.0, None) / n
        return float(out) if np.ndim(x) == 0 else out

    harmonic = float(np.sum(1.0 / np.arange(1, depth + 1)))
    qv = float(np.sum(2.0 / np.arange(1, depth + 1) ** 2.0))
    oracle = OracleInfo(total_variation=2.0 * harmonic,
                        quadratic_variation=qv,
                        zygmund_variation_bounded=False,
                        zygmund_norm_bounded=False)
    return IntervalFunction(domain=(0.0, 1.0), eval=f, oracle=oracle,
                            label=f"ex3 (dyadic-block tents, depth {depth})")


def example_function(name: str, depth: int = DEFAULT_TENT_DEPTH) -> IntervalFunction:
    """One of the three reference interval functions.

    ex1: x for x <= 0, sqrt(x) for x > 0 on [-1, 1].  Monotone with total
         variation exactly 2; the scaled second difference at 0 is
         unbounded.  ``depth`` is ignored.
    ex2: the tent-series partial sum of ``depth`` + 1 layers on [0, 1];
         total variation is ``takagi_total_variation(depth)``, unbounded
         but growing like sqrt(depth).  Not in the Zygmund class: the
         scaled second difference at 1/2 and step 2^-k is 4 (k - 2) for
         k <= depth + 1, so its bound grows by 4 per layer.  ``depth``
         is at most ``MAX_TENT_DEPTH``, else ValueError.
    ex3: on each dyadic block [2^-(n+1), 2^-n] a tent of height 1/n,
         n = 1..depth.  Quadratic variation is exactly sum of 2/n^2;
         the midpoint second differences diverge harmonically.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if name == "ex1":
        return _ex1()
    if name == "ex2":
        return _ex2(depth)
    if name == "ex3":
        return _ex3(depth)
    raise ValueError(f"unknown example {name!r}; expected ex1, ex2 or ex3")


CATALOG_ENTRIES: tuple[tuple[str, str], ...] = (
    ("rigid", "rigid rotation x + alpha (make_map)"),
    ("arnold", "sine-perturbed rotation with amplitude < 1 (make_map)"),
    ("denjoy", "truncated wandering-interval diffeomorphism (make_denjoy)"),
    ("ex1", "bounded variation, unbounded scaled second difference"),
    ("ex2", "unbounded variation, scaled second difference growing with depth"),
    ("ex3", "bounded quadratic variation, divergent midpoint sums"),
)

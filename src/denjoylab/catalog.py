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
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import NonMonotoneMapError
from .maps import Arc, CircleDiffeo, _store_orbit
from .util import continued_fraction, frac, solve_increasing

TWO_PI = 2.0 * math.pi

#: series depth used for the tent-sum function when none is requested
DEFAULT_TENT_DEPTH = 20

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

    ``eval`` accepts floats or numpy arrays.  ``derivative`` is present
    only where the function is C1 on the whole domain.  ``oracle`` holds
    whatever closed-form variation data is known.
    """

    domain: tuple[float, float]
    eval: Callable
    derivative: Callable | None = None
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
        if isinstance(x, SCALAR_TYPES):
            x = float(x)
            return x + (alpha + scale * math.sin(TWO_PI * (x - math.floor(x))))
        return x + (alpha + scale * np.sin(TWO_PI * (x - np.floor(x))))

    def lift_derivative(x):
        if isinstance(x, SCALAR_TYPES):
            x = float(x)
            return 1.0 + amplitude * math.cos(TWO_PI * (x - math.floor(x)))
        return 1.0 + amplitude * np.cos(TWO_PI * (x - np.floor(x)))

    return CircleDiffeo(lift_eval=lift, lift_derivative=lift_derivative, label=label)


# ---------------------------------------------------------------------------
# truncated wandering-interval construction


@dataclass(frozen=True)
class DenjoyMap:
    """A C1 circle diffeomorphism carrying an explicit wandering arc.

    ``inserted_lengths`` and ``insertion_arcs`` are ordered by the signed
    orbit index n = -truncation .. truncation; index n labels the interval
    sitting at circle angle frac(n * alpha) of the reference rotation.
    ``cantor_anchor`` is a point of the complementary (dust) set whose
    forward orbit was checked to stay clear of every insertion for at
    least ``anchor_budget`` iterates.  ``make_denjoy`` leaves that orbit,
    ``anchor_budget`` + 1 steps, in ``maps.orbit_lift``'s slot under
    ``base`` and the anchor, so the first ``orbit_lift`` of ``base`` from
    ``cantor_anchor`` reads it and iterates only the steps past its end.
    """

    base: CircleDiffeo
    wandering_arc: Arc
    alpha: float
    inserted_lengths: tuple[float, ...]
    truncation: int
    insertion_arcs: tuple[Arc, ...]
    cantor_anchor: float
    anchor_budget: int

    def insertion_length(self, n: int) -> float:
        return self.inserted_lengths[n + self.truncation]

    def insertion_arc(self, n: int) -> Arc:
        return self.insertion_arcs[n + self.truncation]


def _profile_ratio_guard(ratios: np.ndarray) -> None:
    worst = float(ratios.min())
    if worst <= MIN_PIECE_RATIO:
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
    """Build a truncated wandering-interval diffeomorphism.

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
    ratios = img_lens / src_lens
    _profile_ratio_guard(ratios)
    img_knots = float(img_start[0]) + np.concatenate([[0.0], np.cumsum(img_lens)])

    cut = float(src_knots[0])
    last = img_lens.size - 1
    # plain-float copies for the scalar paths, which repeat the array
    # arithmetic below operation for operation and so agree bit for bit
    knots, lens, rats, imgs = (a.tolist() for a in
                               (src_knots, src_lens, ratios, img_knots))

    def step(x: float) -> tuple[float, int]:
        """F(x) for a float x, and the index of the piece that holds x."""
        k = math.floor(x - cut)
        u = x - k
        j = min(max(bisect_right(knots, u) - 1, 0), last)
        s = (u - knots[j]) / lens[j]
        g = s + (rats[j] - 1.0) * (3.0 - 2.0 * s) * s * s
        return imgs[j] + lens[j] * g + k, j

    def lift(x):
        if isinstance(x, SCALAR_TYPES):
            return step(float(x))[0]
        arr = np.asarray(x, dtype=float)
        k = np.floor(arr - cut)
        u = arr - k
        j = np.clip(np.searchsorted(src_knots, u, side="right") - 1, 0, last)
        s = (u - src_knots[j]) / src_lens[j]
        g = s + (ratios[j] - 1.0) * (3.0 - 2.0 * s) * s * s
        out = img_knots[j] + src_lens[j] * g + k
        return float(out) if np.ndim(x) == 0 else out

    def lift_derivative(x):
        if isinstance(x, SCALAR_TYPES):
            x = float(x)
            u = x - math.floor(x - cut)
            j = min(max(bisect_right(knots, u) - 1, 0), last)
            s = (u - knots[j]) / lens[j]
            return 1.0 + 6.0 * (rats[j] - 1.0) * s * (1.0 - s)
        arr = np.asarray(x, dtype=float)
        u = arr - np.floor(arr - cut)
        j = np.clip(np.searchsorted(src_knots, u, side="right") - 1, 0, last)
        s = (u - src_knots[j]) / src_lens[j]
        out = 1.0 + 6.0 * (ratios[j] - 1.0) * s * (1.0 - s)
        return float(out) if np.ndim(x) == 0 else out

    img0 = imgs[0]

    def lift_inverse(y: float) -> float:
        """The x with lift(x) = y: locate the piece through the image
        knots, then solve that piece's monotone cubic for s in [0, 1]."""
        y = float(y)
        k = math.floor(y - img0)
        v = y - k
        j = min(max(bisect_right(imgs, v) - 1, 0), last)
        r1 = rats[j] - 1.0
        t = (v - imgs[j]) / lens[j]

        def g(s):
            return s + r1 * (3.0 - 2.0 * s) * s * s

        def dg(s):
            # positive, since the piece ratio r1 + 1 exceeds MIN_PIECE_RATIO
            return 1.0 + 6.0 * r1 * s * (1.0 - s)

        # a t outside [0, r1 + 1], which only rounding produces, yields
        # the nearer end of [0, 1]
        s = solve_increasing(g, dg, t, 0.0, 1.0, min(max(t / (r1 + 1.0), 0.0), 1.0))
        return knots[j] + lens[j] * s + k

    base = CircleDiffeo(lift_eval=lift, lift_derivative=lift_derivative,
                        lift_inverse=lift_inverse,
                        label=f"denjoy({alpha:.6g}, N={N}, mass={mass:g})")

    insertion_arcs = tuple(Arc(start, end) for start, end in zip(
        start_by_index.tolist(), (start_by_index + lengths).tolist()))
    anchor_budget = 1100
    orbit = _find_dust_anchor(step, dust_position, anchor_budget)
    _store_orbit(base, orbit)
    anchor = orbit[0]

    return DenjoyMap(
        base=base,
        wandering_arc=insertion_arcs[N],
        alpha=alpha,
        inserted_lengths=tuple(float(v) for v in lengths),
        truncation=N,
        insertion_arcs=insertion_arcs,
        cantor_anchor=anchor,
        anchor_budget=anchor_budget,
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
    """
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
                        zygmund_norm_bounded=True)
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
         but growing like sqrt(depth), while the scaled second
         differences stay uniformly bounded.
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
    ("ex2", "unbounded variation, bounded scaled second difference"),
    ("ex3", "bounded quadratic variation, divergent midpoint sums"),
)

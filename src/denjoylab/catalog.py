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

from .errors import NonMonotoneMapError, RootFindError
from .maps import SCALAR_TYPES, Arc, CircleDiffeo, periodic_lift
from .util import continued_fraction, frac

TWO_PI = 2.0 * math.pi

#: series depth used for the tent-sum function when none is requested
DEFAULT_TENT_DEPTH = 20

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

    kind 'rigid':  lift x + alpha.
    kind 'arnold': lift x + alpha + (amplitude / 2 pi) sin(2 pi x), with
    derivative 1 + amplitude cos(2 pi x); amplitude must stay in [0, 1)
    for the lift to remain a diffeomorphism.
    """
    kind = recipe["kind"]
    alpha = float(recipe["alpha"])
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    amplitude = recipe.get("amplitude", 0.0)
    if kind == "rigid":
        return periodic_lift(lambda u: alpha + 0.0 * u,
                             lambda u: 0.0 * u,
                             label=f"rigid({alpha:.10g})")
    if kind == "arnold":
        amplitude = float(amplitude)
        if not amplitude >= 0.0:
            raise ValueError(f"amplitude must be non-negative, got {amplitude}")
        if amplitude >= 1.0:
            raise NonMonotoneMapError(
                f"amplitude {amplitude} >= 1: lift derivative reaches zero, "
                "not a diffeomorphism")
        scale = amplitude / TWO_PI

        # periodic_lift hands a scalar argument over as a plain float
        def displacement(u):
            if isinstance(u, float):
                return alpha + scale * math.sin(TWO_PI * u)
            return alpha + scale * np.sin(TWO_PI * u)

        def displacement_derivative(u):
            if isinstance(u, float):
                return amplitude * math.cos(TWO_PI * u)
            return amplitude * np.cos(TWO_PI * u)

        return periodic_lift(displacement, displacement_derivative,
                             label=f"arnold({alpha:.10g}, {amplitude:.10g})")
    raise ValueError(f"unknown map kind {kind!r}; expected 'rigid' or 'arnold'")


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
    least ``anchor_budget`` iterates.
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


def _solve_piece(r1: float, t: float) -> float:
    """The s in [0, 1] with s + r1 (3 - 2 s) s^2 = t.

    Newton's method kept inside a shrinking bracket, falling back to
    bisection when a step leaves it.  The derivative
    1 + 6 r1 s (1 - s) stays positive because the piece ratio r1 + 1
    exceeds ``MIN_PIECE_RATIO``.  A target outside [0, r1 + 1], which
    only rounding produces, yields the nearer end of [0, 1].
    """
    lo, hi = 0.0, 1.0
    s = min(max(t / (r1 + 1.0), 0.0), 1.0)
    for _ in range(100):
        f = s + r1 * (3.0 - 2.0 * s) * s * s - t
        if f == 0.0:
            return s
        if f > 0.0:
            hi = s
        else:
            lo = s
        nxt = s - f / (1.0 + 6.0 * r1 * s * (1.0 - s))
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - s) <= 2.0 ** -53:
            return nxt
        s = nxt
    raise RootFindError(f"piece inverse did not converge for r - 1 = {r1!r}, t = {t!r}")


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

    # start position / length per signed index
    start_by_index = np.empty(2 * N + 1)
    start_by_index[order] = start_sorted
    length_by_index = lengths

    ell_prime = mass * c0 / (N + 3.0) ** 2
    p_star = dust_position(theta_extra)

    def image_start(n: int) -> float:
        if n < N:
            return start_by_index[n + 1 + N]
        return p_star - 0.5 * ell_prime

    def image_length(n: int) -> float:
        if n < N:
            return length_by_index[n + 1 + N]
        return ell_prime

    # piece list around the circle, cut at the first insertion start:
    # insertion, dust, insertion, dust, ... (2N+1 of each)
    m_pieces = 2 * (2 * N + 1)
    src_knots = np.empty(m_pieces + 1)
    img_lens = np.empty(m_pieces)
    signed_sorted = idx[order]
    for r in range(2 * N + 1):
        n_here = int(signed_sorted[r])
        n_next = int(signed_sorted[(r + 1) % (2 * N + 1)])
        src_knots[2 * r] = start_sorted[r]
        src_knots[2 * r + 1] = start_sorted[r] + len_sorted[r]
        img_lens[2 * r] = image_length(n_here)
        end_here = frac(image_start(n_here) + image_length(n_here))
        img_lens[2 * r + 1] = float(frac(image_start(n_next) - end_here))
    src_knots[m_pieces] = start_sorted[0] + 1.0

    img_lens[-1] += 1.0 - float(np.sum(img_lens))        # close the circle exactly
    # after closing, so that an overlapping tiling (sum above 1) shows here
    if float(img_lens.min()) <= 0.0:
        raise ValueError("image tiling degenerate; parameters too extreme")

    src_lens = np.diff(src_knots)
    ratios = img_lens / src_lens
    _profile_ratio_guard(ratios)
    img_knots = float(image_start(int(signed_sorted[0]))) + np.concatenate(
        [[0.0], np.cumsum(img_lens)])

    cut = float(src_knots[0])
    last = m_pieces - 1
    # plain-float copies for the scalar paths, which repeat the array
    # arithmetic below operation for operation and so agree bit for bit
    knots, lens, rats, imgs = (a.tolist() for a in
                               (src_knots, src_lens, ratios, img_knots))

    def lift(x):
        if isinstance(x, SCALAR_TYPES):
            x = float(x)
            k = math.floor(x - cut)
            u = x - k
            j = min(max(bisect_right(knots, u) - 1, 0), last)
            s = (u - knots[j]) / lens[j]
            g = s + (rats[j] - 1.0) * (3.0 - 2.0 * s) * s * s
            return imgs[j] + lens[j] * g + k
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
        return knots[j] + lens[j] * _solve_piece(rats[j] - 1.0,
                                                 (v - imgs[j]) / lens[j]) + k

    base = CircleDiffeo(lift_eval=lift, lift_derivative=lift_derivative,
                        lift_inverse=lift_inverse,
                        label=f"denjoy({alpha:.6g}, N={N}, mass={mass:g})")

    insertion_arcs = tuple(
        Arc(float(start_by_index[n + N]),
            float(start_by_index[n + N] + length_by_index[n + N]))
        for n in range(-N, N + 1))
    anchor_budget = 1100
    anchor = _find_dust_anchor(base, insertion_arcs, dust_position, anchor_budget)

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


def _find_dust_anchor(base: CircleDiffeo, insertion_arcs: tuple[Arc, ...],
                      dust_position: Callable[[float], float],
                      budget: int) -> float:
    """A dust point whose orbit avoids every insertion for ``budget`` steps.

    The truncation makes one dust stretch spill into the lowest-index
    insertion, so a random dust point can be swallowed by the insertion
    chain; candidates are therefore screened by direct simulation.
    """
    ordered = sorted(insertion_arcs, key=lambda a: a.start)
    starts = [a.start for a in ordered]
    spans = [a.length for a in ordered]

    def in_insertion(pos: float) -> bool:
        k = bisect_right(starts, pos) - 1
        return k >= 0 and pos <= starts[k] + spans[k]

    seed = 0.5 * (math.sqrt(5.0) - 1.0)
    for j in range(40):
        t = float(frac(0.1234567 + seed * j))
        x = dust_position(t)
        if in_insertion(x):
            continue
        z, ok = x, True
        for _ in range(budget):
            z = base.lift_eval(z)
            if in_insertion(float(frac(z))):
                ok = False
                break
        if ok:
            return x
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

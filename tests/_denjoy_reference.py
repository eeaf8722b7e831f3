"""The Denjoy map's former piece tiling, piece solver, anchor screen and
piece kernels.

``make_denjoy`` once assembled its piece table one position at a time
through two per-index helpers, solved each piece's cubic with its own
bracketed Newton loop, and screened anchor candidates against sorted
copies of the insertion arcs.  Later its step, lift, derivative and
inverse clamped each piece index with ``min(max(...))`` or ``np.clip``,
subtracted 1 from the piece ratio on every call and read each gathered
column twice (``former_kernels``).  The code is kept here, as it was, for
the tests that require the current version to give the same floats.
Parameters are assumed accepted by ``make_denjoy``.
"""
import math
from bisect import bisect_left, bisect_right
from types import SimpleNamespace

import numpy as np

from denjoylab.catalog import SCALAR_TYPES
from denjoylab.errors import RootFindError
from denjoylab.maps import Arc
from denjoylab.util import frac, solve_increasing


def solve_piece(r1, t):
    """The s in [0, 1] with s + r1 (3 - 2 s) s^2 = t."""
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


def piece_table(alpha, N, mass):
    """Source and image knots, the insertion arcs by signed index, the
    dust correspondence and the closed-form inverse."""
    alpha = float(frac(alpha))
    idx = np.arange(-N, N + 1)
    theta = frac(alpha * idx)
    c0 = 1.0 / float(np.sum(1.0 / (np.abs(idx) + 2.0) ** 2))
    lengths = mass * c0 / (np.abs(idx) + 2.0) ** 2
    theta_extra = float(frac((N + 1) * alpha))

    order = np.argsort(theta)
    theta_sorted = theta[order]
    len_sorted = lengths[order]
    cum_len = np.concatenate([[0.0], np.cumsum(len_sorted)])
    start_sorted = (1.0 - mass) * theta_sorted + cum_len[:-1]
    theta_list = theta_sorted.tolist()
    cum_list = cum_len.tolist()

    def dust_position(t):
        return (1.0 - mass) * t + cum_list[bisect_left(theta_list, t)]

    start_by_index = np.empty(2 * N + 1)
    start_by_index[order] = start_sorted
    length_by_index = lengths
    ell_prime = mass * c0 / (N + 3.0) ** 2
    p_star = dust_position(theta_extra)

    def image_start(n):
        if n < N:
            return start_by_index[n + 1 + N]
        return p_star - 0.5 * ell_prime

    def image_length(n):
        if n < N:
            return length_by_index[n + 1 + N]
        return ell_prime

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
    img_lens[-1] += 1.0 - float(np.sum(img_lens))
    src_lens = np.diff(src_knots)
    ratios = img_lens / src_lens
    img_knots = float(image_start(int(signed_sorted[0]))) + np.concatenate(
        [[0.0], np.cumsum(img_lens)])

    last = m_pieces - 1
    knots, lens, rats, imgs = (a.tolist() for a in
                               (src_knots, src_lens, ratios, img_knots))

    def lift_inverse(y):
        y = float(y)
        k = math.floor(y - imgs[0])
        v = y - k
        j = min(max(bisect_right(imgs, v) - 1, 0), last)
        return knots[j] + lens[j] * solve_piece(rats[j] - 1.0,
                                                (v - imgs[j]) / lens[j]) + k

    insertion_arcs = tuple(
        Arc(float(start_by_index[n + N]),
            float(start_by_index[n + N] + length_by_index[n + N]))
        for n in range(-N, N + 1))
    return SimpleNamespace(src_knots=src_knots, src_lens=src_lens,
                           ratios=ratios, img_knots=img_knots,
                           insertion_arcs=insertion_arcs,
                           dust_position=dust_position,
                           lift_inverse=lift_inverse)


def former_kernels(alpha, N, mass):
    """The step, lift, derivative and inverse closures ``make_denjoy``
    built on the piece table of ``piece_table(alpha, N, mass)``."""
    table = piece_table(alpha, N, mass)
    src_knots, src_lens, ratios, img_knots = (
        table.src_knots, table.src_lens, table.ratios, table.img_knots)
    cut = float(src_knots[0])
    last = src_lens.size - 1
    knots, lens, rats, imgs = (a.tolist() for a in
                               (src_knots, src_lens, ratios, img_knots))

    def step(x):
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

    def lift_inverse(y):
        y = float(y)
        k = math.floor(y - img0)
        v = y - k
        j = min(max(bisect_right(imgs, v) - 1, 0), last)
        r1 = rats[j] - 1.0
        t = (v - imgs[j]) / lens[j]

        def g(s):
            return s + r1 * (3.0 - 2.0 * s) * s * s

        def dg(s):
            return 1.0 + 6.0 * r1 * s * (1.0 - s)

        s = solve_increasing(g, dg, t, 0.0, 1.0, min(max(t / (r1 + 1.0), 0.0), 1.0))
        return knots[j] + lens[j] * s + k

    return SimpleNamespace(table=table, step=step, lift=lift,
                           lift_derivative=lift_derivative, lift_inverse=lift_inverse)


def find_dust_anchor(lift, insertion_arcs, dust_position, budget):
    """The first screened candidate whose orbit under ``lift`` stays off
    the closed insertion arcs for ``budget`` steps."""
    ordered = sorted(insertion_arcs, key=lambda a: a.start)
    starts = [a.start for a in ordered]
    spans = [a.length for a in ordered]

    def in_insertion(pos):
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
            z = lift(z)
            if in_insertion(float(frac(z))):
                ok = False
                break
        if ok:
            return x
    raise RuntimeError(f"no dust anchor found clear of insertions for {budget} steps")

"""The pairwise scan ``maps.first_overlap`` ran before it checked the
circularly adjacent pairs first.

It compared every pair in row order, m (m - 1) / 2 ``Arc.intersects``
calls for a disjoint family of m arcs.  The code is kept here, as it was,
as the oracle for the tests that require the same first pair, or None.
"""


def first_overlap_pairwise(arcs, tol=0.0):
    """First pair (i, j), i < j in row order, of arcs within tol, or None."""
    for i in range(len(arcs)):
        for j in range(i + 1, len(arcs)):
            if arcs[i].intersects(arcs[j], tol=tol):
                return i, j
    return None

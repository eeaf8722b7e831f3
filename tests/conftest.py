"""Shared fixtures: one truncated wandering-interval map and one rigid rotation;
``counting_lift`` and ``count_lift_in_place``, which count a map's lift
evaluations; and the Hypothesis strategies ``accepted_denjoy``,
``anchored_denjoy`` and ``smooth_map``.

Hypothesis draws fresh examples on every local run.  With
``HYPOTHESIS_PROFILE=ci`` (set by the CI workflow) it derandomizes, so a
red CI run can be reproduced with the same variable.
"""
import dataclasses
import math
import os

import pytest
from hypothesis import assume, settings, strategies as st

from denjoylab import make_denjoy, make_map

SQRT2_M1 = math.sqrt(2.0) - 1.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def denjoy50():
    """Truncated insertion map at alpha = sqrt(2) - 1, N = 50, mass 1/2."""
    return make_denjoy(SQRT2_M1, N=50, mass=0.5)


@pytest.fixture(scope="session")
def golden_rotation():
    return make_map({"kind": "rigid", "alpha": GOLDEN})


def counting_lift(diffeo):
    """A copy of the map whose lift records each argument it is called with,
    and the list it records them in: one entry per lift evaluation, scalar
    or array."""
    calls = []

    def lift(x):
        calls.append(x)
        return diffeo.lift_eval(x)

    return dataclasses.replace(diffeo, lift_eval=lift), calls


def count_lift_in_place(diffeo):
    """Make the map itself record each argument its lift is called with,
    and return the list it records them in.  Unlike ``counting_lift`` it
    keeps the map object, so an orbit stored under that object still
    matches."""
    calls = []
    lift = diffeo.lift_eval

    def counted(x):
        calls.append(x)
        return lift(x)

    object.__setattr__(diffeo, "lift_eval", counted)
    return calls


@st.composite
def accepted_denjoy_parameters(draw):
    """Random (alpha, N, mass) that make_denjoy accepts, with its map."""
    alpha = draw(st.floats(0.02, 0.98))
    n = draw(st.integers(10, 120))
    mass = draw(st.floats(0.02, 0.95))
    try:
        return alpha, n, mass, make_denjoy(alpha, N=n, mass=mass)
    except ValueError:
        assume(False)


def accepted_denjoy():
    """A make_denjoy map over random (alpha, N, mass) that it accepts."""
    return accepted_denjoy_parameters().map(lambda drawn: drawn[3])


def _finds_anchor(drawn):
    try:
        drawn[3].cantor_anchor
    except RuntimeError:
        return False
    return True


def anchored_denjoy_parameters():
    """``accepted_denjoy_parameters`` whose map's screen finds a dust
    anchor.  The draw reads ``cantor_anchor``, so the screened orbit sits
    in ``orbit_lift``'s slot when the test starts."""
    return accepted_denjoy_parameters().filter(_finds_anchor)


def anchored_denjoy():
    """An ``accepted_denjoy`` map whose anchor has been read."""
    return anchored_denjoy_parameters().map(lambda drawn: drawn[3])


@st.composite
def smooth_map(draw):
    """A rigid or Arnold make_map over random alpha and amplitude in [0, 1)."""
    return make_map({"kind": draw(st.sampled_from(("rigid", "arnold"))),
                     "alpha": draw(st.floats(0.0, 1.0, exclude_max=True)),
                     "amplitude": draw(st.floats(0.0, 1.0, exclude_max=True))})

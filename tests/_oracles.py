"""Reference helpers that no pipeline runs, kept for the tests.

``compose`` builds the lift composition of two circle maps,
``log_cr_first_quadrature`` integrates the first cross ratio's log as a
cross-check of its closed form, and ``delta_and_bound`` pairs the
remainder factor of log(1 + eps) with its bound over a floor.  No
pipeline runs them, so they moved here, unchanged, from
``denjoylab.maps`` and ``denjoylab.crossratio`` for the tests that call
them.
"""
from denjoylab.crossratio import QUAD_TOL, FourTuple, _delta
from denjoylab.maps import CircleDiffeo
from denjoylab.util import adaptive_simpson


def compose(outer: CircleDiffeo, inner: CircleDiffeo) -> CircleDiffeo:
    """Lift composition outer o inner."""
    def lift(x):
        return outer.lift_eval(inner.lift_eval(x))

    deriv = None
    if outer.lift_derivative is not None and inner.lift_derivative is not None:
        def deriv(x):  # noqa: F811
            y = inner.lift_eval(x)
            return outer.lift_derivative(y) * inner.lift_derivative(x)

    return CircleDiffeo(lift_eval=lift, lift_derivative=deriv,
                        label=f"({outer.label} o {inner.label})")


def log_cr_first_quadrature(t: FourTuple) -> float:
    """log of the first cross ratio as the double integral of (x-y)^-2
    over [a,b] x [c,d]; a slow cross-check for the closed form.

    The inner integral over y in [c, d] is 1/(c-x) - 1/(d-x) in closed
    form; the outer one over x in [a, b] is adaptive Simpson."""
    a, b, c, d = t._floats()
    return adaptive_simpson(lambda x: 1.0 / (c - x) - 1.0 / (d - x), a, b,
                            tol=QUAD_TOL)


def delta_and_bound(eps: float, delta_floor: float) -> tuple[float, float]:
    """Remainder factor of log(1+eps) at eps, and its bound over
    [delta_floor, inf).

    The factor is positive and strictly decreasing, so the bound is just
    the factor evaluated at the floor; delta_val <= bound whenever the
    floor precondition delta_floor <= eps holds.
    """
    if not -1.0 < delta_floor <= eps:
        raise ValueError(
            f"delta_floor must lie in (-1, eps], got {delta_floor} with eps {eps}")
    return _delta(eps), _delta(delta_floor)

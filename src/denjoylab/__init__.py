"""Tools for probing when a circle diffeomorphism is conjugate to a rotation.

The package splits into layers.  ``maps`` holds the lift-based circle
diffeomorphism type and arc arithmetic, ``rotation`` the Birkhoff rotation
number estimate, and ``catalog`` a set of ready-made maps and interval
functions.  On top of those, ``variation`` measures total, quadratic and
second-difference variation, ``crossratio`` tracks cross-ratio distortion
and its Koebe-style bounds, ``dynamics`` builds semi-conjugacies and
detects wandering intervals, and ``combinatorics`` works out the
predecessor and successor structure of disjoint arc orbits.  ``cli``
wires the pieces into the ``denjoy-lab`` command.
"""
from .catalog import (CATALOG_ENTRIES, DenjoyMap, IntervalFunction,
                      example_function, make_denjoy, make_map,
                      takagi_total_variation)
from .combinatorics import (KoebeConstants, OrbitCombinatorics,
                            PULLBACK_MULTIPLICITY_BOUND, eps_scale,
                            intersection_multiplicity, macroscopic_delta,
                            natural_neighborhood,
                            predecessor_successor_table, pullback_arcs)
from .crossratio import (DistortionBreakdown, FourTuple,
                         crd_variation_estimate, cross_ratios,
                         decompose_ab, delta_and_bound,
                         iterate_distortion_bound, koebe_log_ratio,
                         log_cr_first_quadrature, term_b_constant)
from .dynamics import (ConjugacyVerdict, OrbitProfile, SemiConjugacy,
                       WanderingVerdict, build_semiconjugacy,
                       conjugacy_verdict, interval_orbit, omega_gap_profile,
                       wandering_verdict)
from .errors import (CollapsedArcError, DegenerateTupleError, DenjoyLabError,
                     NonMonotoneMapError, NotDifferentiableError,
                     PeriodicOrbitError, RootFindError,
                     UnresolvedExtremaError)
from .maps import (Arc, CircleDiffeo, LiftValidationReport, arc_image,
                   compose, inverse_eval, orbit_lift, validate_lift)
from .rotation import RotationEstimate, birkhoff_estimate
from .variation import (VariationReport, classify_regularity, holder_bound,
                        log_derivative_function, quadratic_variation,
                        total_variation_estimate, zygmund_norm_estimate,
                        zygmund_norm_profile, zygmund_variation_estimate)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "CATALOG_ENTRIES",
    "CircleDiffeo",
    "CollapsedArcError",
    "ConjugacyVerdict",
    "DegenerateTupleError",
    "DenjoyLabError",
    "DenjoyMap",
    "DistortionBreakdown",
    "FourTuple",
    "IntervalFunction",
    "KoebeConstants",
    "LiftValidationReport",
    "NonMonotoneMapError",
    "NotDifferentiableError",
    "OrbitCombinatorics",
    "OrbitProfile",
    "PULLBACK_MULTIPLICITY_BOUND",
    "PeriodicOrbitError",
    "RootFindError",
    "RotationEstimate",
    "SemiConjugacy",
    "UnresolvedExtremaError",
    "VariationReport",
    "WanderingVerdict",
    "arc_image",
    "birkhoff_estimate",
    "build_semiconjugacy",
    "classify_regularity",
    "compose",
    "conjugacy_verdict",
    "crd_variation_estimate",
    "cross_ratios",
    "decompose_ab",
    "delta_and_bound",
    "eps_scale",
    "example_function",
    "holder_bound",
    "intersection_multiplicity",
    "interval_orbit",
    "inverse_eval",
    "iterate_distortion_bound",
    "koebe_log_ratio",
    "log_cr_first_quadrature",
    "log_derivative_function",
    "macroscopic_delta",
    "make_denjoy",
    "make_map",
    "natural_neighborhood",
    "omega_gap_profile",
    "orbit_lift",
    "predecessor_successor_table",
    "pullback_arcs",
    "quadratic_variation",
    "takagi_total_variation",
    "term_b_constant",
    "total_variation_estimate",
    "validate_lift",
    "wandering_verdict",
    "zygmund_norm_estimate",
    "zygmund_norm_profile",
    "zygmund_variation_estimate",
]

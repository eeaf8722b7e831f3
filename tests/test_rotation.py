"""The Birkhoff rotation-number estimate and its 2/n error bound."""
import math

import pytest

from denjoylab import birkhoff_estimate, make_map, orbit_lift

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def test_rigid_rotation_recovers_alpha(golden_rotation):
    est = birkhoff_estimate(golden_rotation, 0.2, 1000)
    assert est.iterates_used == 1000
    assert est.error_bound == pytest.approx(2.0 / 1000)
    assert abs(est.value - GOLDEN) < 1e-9


def test_estimate_matches_definition():
    f = make_map({"kind": "arnold", "alpha": 0.37, "amplitude": 0.4})
    n, x0 = 800, 0.05
    est = birkhoff_estimate(f, x0, n)
    lift = orbit_lift(f, x0, n)
    expected = (lift[n] - lift[0]) / n
    assert est.value == pytest.approx(expected % 1.0, abs=1e-12)


def test_error_bound_contains_long_run_reference():
    f = make_map({"kind": "arnold", "alpha": 0.52, "amplitude": 0.6})
    reference = birkhoff_estimate(f, 0.31, 60_000).value
    for n in (100, 400, 1600):
        est = birkhoff_estimate(f, 0.31, n)
        gap = abs(est.value - reference)
        gap = min(gap, 1.0 - gap)
        assert gap <= est.error_bound


def test_invalid_budget_rejected(golden_rotation):
    with pytest.raises(ValueError):
        birkhoff_estimate(golden_rotation, 0.0, 0)

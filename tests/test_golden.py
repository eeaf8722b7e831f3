"""Every stripped report of the golden matrix matches its stored file.

A change that moves a number reruns ``tests/regen_golden.py``, which
lists the moved fields, and explains the move.
"""
import json

import pytest

from regen_golden import (GOLDEN_DIR, MAPS, PIPELINES, config_text,
                          moved_fields, run_config)


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("map_name", list(MAPS))
def test_report_matches_golden(map_name, pipeline):
    stored = json.loads((GOLDEN_DIR / f"{map_name}.json").read_text())
    assert moved_fields(stored[pipeline], run_config(config_text(map_name, pipeline))) == []


def test_moved_fields_tolerance():
    assert moved_fields({"v": 0.1}, {"v": 0.1}) == []
    assert moved_fields({"v": 0.1}, {"v": 0.1 + 1e-14}) == []
    assert moved_fields({"v": [1.0]}, {"v": [1.0 + 1e-11]}) != []
    assert moved_fields({"v": "x=1.5e-3"}, {"v": "x=1.5e-03"}) == []
    assert moved_fields({"v": "x=1.5e-3"}, {"v": "y=1.5e-3"}) != []
    assert moved_fields({"v": 1}, {"v": 1.0}) != []

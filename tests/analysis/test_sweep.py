"""Tests for the parameter-range helpers."""

import pytest

from repro.analysis.sweep import geometric_range, linear_range


def test_linear_range_endpoints():
    values = linear_range(0.0, 10.0, 5)
    assert values[0] == 0.0
    assert values[-1] == 10.0
    assert len(values) == 5
    assert values == sorted(values)


def test_linear_range_validation():
    with pytest.raises(ValueError):
        linear_range(0.0, 1.0, 1)


def test_geometric_range_endpoints():
    values = geometric_range(1.0, 1000.0, 4)
    assert values[0] == pytest.approx(1.0)
    assert values[-1] == pytest.approx(1000.0)
    assert values[1] == pytest.approx(10.0)


def test_geometric_range_validation():
    with pytest.raises(ValueError):
        geometric_range(0.0, 10.0, 3)
    with pytest.raises(ValueError):
        geometric_range(1.0, 10.0, 1)

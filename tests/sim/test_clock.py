"""Tests for drifting clocks, including property-based conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import (
    ClockConfig,
    DriftingClock,
    ppm_to_rate,
    relative_rate_difference,
)


def test_ppm_to_rate_nominal():
    assert ppm_to_rate(0.0) == 1.0


def test_ppm_to_rate_fast_and_slow():
    assert ppm_to_rate(100.0) == pytest.approx(1.0001)
    assert ppm_to_rate(-100.0) == pytest.approx(0.9999)


def test_relative_rate_difference_matches_paper_eq5_shape():
    # Worst case two commodity crystals: one +100 ppm, one -100 ppm.
    delta = relative_rate_difference([ppm_to_rate(100), ppm_to_rate(-100)])
    assert delta == pytest.approx(2e-4, rel=1e-3)


def test_relative_rate_difference_single_clock_is_zero():
    assert relative_rate_difference([1.0]) == 0.0
    assert relative_rate_difference([]) == 0.0


def test_relative_rate_difference_identical_rates():
    assert relative_rate_difference([1.0, 1.0, 1.0]) == 0.0


def test_relative_rate_difference_rejects_nonpositive():
    with pytest.raises(ValueError):
        relative_rate_difference([-1.0, -2.0])


def test_clock_config_derived_values():
    config = ClockConfig(ppm=100.0, nominal_hz=1e6)
    assert config.rate == pytest.approx(1.0001)
    assert config.actual_hz == pytest.approx(1.0001e6)
    assert config.bit_time == pytest.approx(1.0 / 1.0001e6)


def test_nominal_clock_tracks_reference_time():
    clock = DriftingClock(ClockConfig(ppm=0.0))
    assert clock.local_time(10.0) == pytest.approx(10.0)
    assert clock.ref_time(10.0) == pytest.approx(10.0)


def test_fast_clock_runs_ahead():
    clock = DriftingClock(ClockConfig(ppm=100.0))
    assert clock.local_time(10000.0) == pytest.approx(10001.0)


def test_slow_clock_lags():
    clock = DriftingClock(ClockConfig(ppm=-100.0))
    assert clock.local_time(10000.0) == pytest.approx(9999.0)


def test_epoch_offsets_anchor():
    clock = DriftingClock(ClockConfig(ppm=0.0), epoch=5.0)
    assert clock.local_time(5.0) == 0.0
    assert clock.local_time(15.0) == pytest.approx(10.0)


def test_bits_elapsed_and_duration_are_inverse():
    clock = DriftingClock(ClockConfig(ppm=50.0, nominal_hz=1e6))
    duration = clock.duration_of_bits(2076)
    assert clock.bits_elapsed(duration) == pytest.approx(2076)


@given(st.floats(min_value=-500, max_value=500),
       st.floats(min_value=0.0, max_value=1e6))
def test_roundtrip_ref_local_conversion(ppm, ref_time):
    clock = DriftingClock(ClockConfig(ppm=ppm))
    local = clock.local_time(ref_time)
    assert clock.ref_time(local) == pytest.approx(ref_time, abs=1e-6)


@given(st.lists(st.floats(min_value=0.5, max_value=2.0), min_size=2, max_size=8))
def test_relative_rate_difference_bounds(rates):
    delta = relative_rate_difference(rates)
    assert 0.0 <= delta < 1.0


@given(st.floats(min_value=-200, max_value=200),
       st.floats(min_value=-200, max_value=200))
def test_relative_rate_difference_symmetric(ppm_a, ppm_b):
    forward = relative_rate_difference([ppm_to_rate(ppm_a), ppm_to_rate(ppm_b)])
    backward = relative_rate_difference([ppm_to_rate(ppm_b), ppm_to_rate(ppm_a)])
    assert forward == pytest.approx(backward)

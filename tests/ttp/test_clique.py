"""Tests for the clique-avoidance test (paper Section 4.3.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.ttp.clique import CliqueCounters, CliqueVerdict, clique_avoidance_test
from repro.ttp.membership import MembershipView


def counters(agreed, failed, cap=15):
    return CliqueCounters(agreed=agreed, failed=failed, cap=cap)


def view_counting(agreed, failed):
    """A membership view whose round counters read ``(agreed, failed)``,
    reached the way a controller gets there: own sends and failed
    judgments."""
    view = MembershipView(own_slot=1)
    for _ in range(agreed):
        view.record_own_send()
    for _ in range(failed):
        view.apply_judgment(2, False, False)
    assert view.counters == counters(agreed, failed)
    return view


# -- counter mechanics ---------------------------------------------------------------


def test_counters_start_at_zero():
    fresh = CliqueCounters()
    assert fresh.agreed == 0 and fresh.failed == 0


def test_record_agreed_and_failed():
    # The controller records judgments through its membership view.
    view = MembershipView(own_slot=1)
    view.apply_judgment(2, True, False)
    view.apply_judgment(3, False, False)
    view.apply_judgment(4, True, False)
    updated = view.counters
    assert updated.agreed == 2
    assert updated.failed == 1
    assert updated.total == 3


def test_record_null_changes_nothing():
    view = view_counting(2, 1)
    view.apply_judgment(3, False, True)
    assert view.counters == counters(2, 1)


def test_counters_saturate_at_cap():
    # The controller counts through its membership view, which holds the
    # saturation: judgments past the cap leave both counters at the cap.
    view = view_counting(15, 15)
    view.apply_judgment(2, True, False)
    view.apply_judgment(3, False, False)
    view.record_own_send()
    assert view.counters == counters(15, 15)


def test_reset_preserves_cap():
    reset = counters(3, 4, cap=7).reset()
    assert reset.agreed == 0 and reset.failed == 0 and reset.cap == 7


def test_negative_counters_rejected():
    with pytest.raises(ValueError):
        counters(-1, 0)


def test_counters_are_immutable_value_objects():
    view = view_counting(1, 1)
    base = view.counters
    view.apply_judgment(2, True, False)
    assert base.agreed == 1
    assert view.counters.agreed == 2


# -- the cold-start variant (paper Section 4.3.4) -----------------------------------------


def test_cold_start_resend_when_only_own_frame():
    """agreed <= 1 and failed == 0: nothing heard but our own cold start."""
    assert clique_avoidance_test(counters(1, 0), integrated=False) \
        is CliqueVerdict.RESEND_COLD_START
    assert clique_avoidance_test(counters(0, 0), integrated=False) \
        is CliqueVerdict.RESEND_COLD_START


def test_cold_start_majority_enters_active():
    assert clique_avoidance_test(counters(3, 1), integrated=False) \
        is CliqueVerdict.MAJORITY


def test_cold_start_minority_returns_to_listen():
    assert clique_avoidance_test(counters(1, 2), integrated=False) \
        is CliqueVerdict.MINORITY_TO_LISTEN


def test_cold_start_single_failure_blocks_resend_branch():
    """agreed=1 failed=1 is not the resend case; the majority test applies."""
    assert clique_avoidance_test(counters(1, 1), integrated=False) \
        is CliqueVerdict.MINORITY_TO_LISTEN


def test_cold_start_two_agreed_no_failed_is_majority():
    assert clique_avoidance_test(counters(2, 0), integrated=False) \
        is CliqueVerdict.MAJORITY


# -- the integrated variant -----------------------------------------------------------------


def test_integrated_majority_survives():
    assert clique_avoidance_test(counters(3, 2), integrated=True) \
        is CliqueVerdict.MAJORITY


def test_integrated_minority_freezes():
    """The protocol-forced freeze the paper's property is about."""
    assert clique_avoidance_test(counters(1, 2), integrated=True) \
        is CliqueVerdict.MINORITY_FREEZE


def test_integrated_tie_freezes():
    assert clique_avoidance_test(counters(2, 2), integrated=True) \
        is CliqueVerdict.MINORITY_FREEZE


def test_integrated_never_resends():
    verdicts = {clique_avoidance_test(counters(a, f), integrated=True)
                for a in range(3) for f in range(3)}
    assert CliqueVerdict.RESEND_COLD_START not in verdicts
    assert CliqueVerdict.MINORITY_TO_LISTEN not in verdicts


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_majority_iff_agreed_strictly_exceeds_failed(agreed, failed):
    verdict = clique_avoidance_test(counters(agreed, failed), integrated=True)
    if agreed > failed:
        assert verdict is CliqueVerdict.MAJORITY
    else:
        assert verdict is CliqueVerdict.MINORITY_FREEZE


@given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
def test_cold_start_verdict_partition(agreed, failed):
    """Every counter combination maps to exactly one of the three paper
    outcomes for a cold-starting node."""
    verdict = clique_avoidance_test(counters(agreed, failed), integrated=False)
    if agreed <= 1 and failed == 0:
        assert verdict is CliqueVerdict.RESEND_COLD_START
    elif agreed > failed:
        assert verdict is CliqueVerdict.MAJORITY
    else:
        assert verdict is CliqueVerdict.MINORITY_TO_LISTEN

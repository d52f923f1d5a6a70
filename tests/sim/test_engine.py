"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_priority_then_insertion():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("second"), priority=1)
    sim.schedule(1.0, lambda: order.append("first"), priority=0)
    sim.schedule(1.0, lambda: order.append("third"), priority=1)
    sim.run()
    assert order == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()
    assert event.cancelled and not event.fired


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(1))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run(until=15.0)
    assert fired == [1]


def test_run_pause_gc_restores_collector():
    import gc

    sim = Simulator()
    observed = []
    sim.schedule(1.0, lambda: observed.append(gc.isenabled()))
    assert gc.isenabled()
    sim.run(pause_gc=True)
    assert observed == [False]
    assert gc.isenabled()


def test_run_pause_gc_restores_collector_after_callback_error():
    import gc

    def boom():
        raise RuntimeError("callback failure")

    sim = Simulator()
    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run(pause_gc=True)
    assert gc.isenabled()


def test_run_pause_gc_leaves_disabled_collector_disabled():
    import gc

    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    gc.disable()
    try:
        sim.run(pause_gc=True)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_zero_delay_event_runs_after_current():
    sim = Simulator()
    order = []

    def outer():
        sim.schedule(0.0, lambda: order.append("soon"))
        order.append("outer")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "soon"]


def test_until_past_queue_still_fast_forwards():
    # Events past `until` stay queued; the clock still advances all the way.
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.schedule(30.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_leaves_later_events_for_the_next_run():
    sim = Simulator()
    fired = []
    for time in (8.0, 1.0, 6.0, 4.0):
        sim.schedule(time, lambda: fired.append(sim.now))
    assert sim.run(until=5.0) == 5.0
    assert fired == [1.0, 4.0]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1.0, 4.0, 6.0, 8.0]
    assert sim.now == 8.0


def test_reentrant_run_rejected():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as error:
            errors.append(error)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


# -- cancelled-event compaction ----------------------------------------------


def test_churned_schedule_compacts_dead_events():
    """A churned schedule (mass cancellation) must not accumulate dead
    entries: once more than half the queue is cancelled the queue compacts
    and the survivors still fire in exact order."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(float(i), (lambda i=i: fired.append(i)))
              for i in range(400)]
    # Cancel three quarters -- far past the compaction threshold (>64 dead
    # and dead > live).
    cancelled = [event for i, event in enumerate(events) if i % 4]
    for event in cancelled:
        event.cancel()
    # The backing queue dropped the dead entries eagerly rather than
    # waiting for pops to stumble over them.
    assert len(sim._queue) < len(events)
    sim.run()
    assert fired == [i for i in range(400) if i % 4 == 0]


def test_compaction_keeps_survivors_in_order():
    """Compaction rebuilds the whole heap without reordering survivors."""
    sim = Simulator()
    fired = []
    events = [sim.schedule(float(i * 7), (lambda i=i: fired.append(i)))
              for i in range(300)]
    # Two thirds cancelled: past the threshold, so the heap is rebuilt.
    for i, event in enumerate(events):
        if i % 3:
            event.cancel()
    assert len(sim._queue) < len(events)
    sim.run()
    assert fired == [i for i in range(300) if i % 3 == 0]
    assert sim.now == (300 - 3) * 7.0


def test_explicit_compact_resets_dead_counter():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append("keep"))
    for _ in range(10):
        sim.schedule(3.0, lambda: fired.append("dropped")).cancel()
    assert sim._queue._dead == 10
    sim._queue.compact()
    assert sim._queue._dead == 0
    assert len(sim._queue) == 1
    sim.run()
    assert fired == ["keep"]

"""Property test: the event queue fires in exact (time, priority, seq) order.

Hypothesis drives the simulator through random interleavings of
schedule / post / cancel / re-arm operations -- including same-time
same-priority ties, zero delays, far-future delays, and operations
injected from inside a running callback -- and the fire log must equal an
oracle: the plain sorted list of the scripted ``(time, priority, seq)``
entries minus the cancelled ones, where a re-arm is one more entry with
the re-armed event's label and priority.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

#: One scripted operation: (kind, delay, priority).  ``kind`` is
#: "schedule" (cancellable handle), "post" (no handle), "cancel" (cancel
#: the oldest still-pending handle, if any), or "rearm" (re-arm the oldest
#: fired, not yet re-armed handle ``delay`` from now, if any; its own
#: priority is kept).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["schedule", "schedule", "post", "cancel", "rearm"]),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=50.0),
            st.floats(min_value=0.0, max_value=50_000.0),
        ),
        st.integers(min_value=-2, max_value=2),
    ),
    min_size=1, max_size=60)

#: The second half of a script is injected by a callback posted at this
#: (delay, priority), so pushes interleave with pops.
INJECT_AT = (1.0, -3)


def replay(script) -> list:
    """Run one scripted interleaving; return the (label, time) fire log."""
    sim = Simulator()
    log = []
    handles = []
    armable = []
    counter = [0]

    def apply_ops(ops):
        for kind, delay, priority in ops:
            if kind == "cancel":
                while handles:
                    handle = handles.pop(0)
                    if not handle.cancelled and not handle.fired:
                        handle.cancel()
                        break
            elif kind == "rearm":
                for handle in armable:
                    if handle.fired:
                        armable.remove(handle)
                        sim.rearm(handle, sim.now + delay)
                        break
            else:
                label = counter[0]
                counter[0] += 1
                callback = (lambda label=label: log.append((label, sim.now)))
                if kind == "post":
                    sim.post(delay, callback, priority)
                else:
                    handle = sim.schedule(delay, callback, priority)
                    handles.append(handle)
                    armable.append(handle)

    half = len(script) // 2
    apply_ops(script[:half])
    if script[half:]:
        delay, priority = INJECT_AT
        sim.post(delay, lambda: apply_ops(script[half:]), priority=priority)
    sim.run()
    return log


def oracle(script) -> list:
    """The (label, time) fire log ``replay`` must produce, computed without
    a queue: sort the scripted entries and drop the cancelled ones."""
    entries = []  # [time, priority, seq, label, cancelled]
    handles = []  # [entry]: a handle names its latest entry
    armable = []
    seq = itertools.count()
    labels = itertools.count()

    def apply_ops(ops, now, fired):
        for kind, delay, priority in ops:
            if kind == "cancel":
                while handles:
                    entry = handles.pop(0)[0]
                    if not fired(entry):
                        entry[4] = True
                        break
            elif kind == "rearm":
                for handle in armable:
                    entry = handle[0]
                    if not entry[4] and fired(entry):
                        armable.remove(handle)
                        handle[0] = [now + delay, entry[1], next(seq),
                                     entry[3], False]
                        entries.append(handle[0])
                        break
            else:
                entry = [now + delay, priority, next(seq), next(labels),
                         False]
                entries.append(entry)
                if kind == "schedule":
                    handle = [entry]
                    handles.append(handle)
                    armable.append(handle)

    half = len(script) // 2
    apply_ops(script[:half], 0.0, lambda entry: False)
    if script[half:]:
        delay, priority = INJECT_AT
        injection = (delay, priority, next(seq))
        # Entries ordered before the injecting callback have already fired.
        apply_ops(script[half:], delay,
                  lambda entry: tuple(entry[:3]) < injection)
    return [(label, time) for time, _, _, label, cancelled in sorted(entries)
            if not cancelled]


@settings(max_examples=200, deadline=None)
@given(script=OPS)
def test_heap_matches_oracle(script):
    assert replay(script) == oracle(script)


@settings(max_examples=50, deadline=None)
@given(ties=st.lists(st.integers(min_value=0, max_value=3),
                     min_size=2, max_size=40))
def test_same_time_same_priority_ties_fire_in_schedule_order(ties):
    """Entries tied on (time, priority) fire in scheduling order (the seq
    tiebreak)."""
    script = [("schedule", 10.0, 0) for _ in ties]
    fired = replay(script)
    assert fired == oracle(script)
    assert [label for label, _ in fired] == sorted(
        label for label, _ in fired)

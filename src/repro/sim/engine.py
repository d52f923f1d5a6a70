"""Event queue and simulation clock.

The engine is a binary-heap discrete-event simulator: callbacks are
scheduled at absolute simulated times and executed in time order.  Ties
are broken first by an integer priority (lower runs first) and then by
insertion order, which makes every run fully deterministic.

The queue (:class:`HeapQueue`) stores plain ``(time, priority, seq,
event)`` tuples so every comparison happens at C level, and
:meth:`Simulator.run` pops it directly.  A time-triggered TDMA cluster
keeps only O(N) events live (a benign 64-node startup peaks at 128
queued entries), so the heap's O(log n) push and pop stay cheap; EXP-P7
and EXP-P8 record the measured rates.  The queue compacts itself when
more than half of its entries are cancelled (long cancel-heavy runs stop
growing memory).

A periodic callback need not allocate an event per period:
:meth:`Simulator.rearm` pushes an event that has fired back onto the
queue, so a TTP/C controller's slot tick reuses one event instead of
creating one per node-slot.

Scheduled callbacks are the only way simulated time passes: TTP/C is
time-triggered, so every controller, coupler and guardian action is a
callback at a time the MEDL fixes, and there are no cooperative threads.

Time is a ``float`` in arbitrary units; the TTP/C layer uses microseconds.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

#: The queue only compacts when it holds more dead entries than this, so
#: small queues never pay the rebuild.
COMPACT_MIN_DEAD = 64


class SimulationError(Exception):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` and can be
    cancelled until they have fired.  A cancelled event stays in the queue
    but is skipped when popped (the queue compacts itself when cancelled
    entries pile up).  An event that has fired can be queued again with
    :meth:`Simulator.rearm`, which makes it pending again under a fresh
    ``seq``.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "fired",
                 "_queue")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        #: Owning queue while enqueued (dead-entry accounting for
        #: compaction); cleared when the event fires, set again by a
        #: re-arm.
        self._queue = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None and not self.fired:
                queue.note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event(t={self.time!r}, prio={self.priority}, {state})"


#: Queue entry: comparisons stop at ``seq`` (unique), so the event object
#: itself is never compared.
Entry = Tuple[float, int, int, Event]


class HeapQueue:
    """Binary-heap event queue ordered by ``(time, priority, seq)``."""

    __slots__ = ("_heap", "_dead")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._dead = 0

    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    def note_cancel(self) -> None:
        self._dead += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._dead = 0

    def __len__(self) -> int:
        return len(self._heap)


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("hello at t=5"))
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        #: Current simulated time (read-only by convention).
        self.now = 0.0
        self._seq = itertools.count()
        self._queue = HeapQueue()
        self._running = False
        #: Total events fired over the simulator's lifetime.
        self.fired_count = 0

    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns the :class:`Event`, which may be cancelled before it fires.
        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current instant with equal
        priority.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} time units in the past")
        return self.schedule_at(self.now + delay, callback, priority)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, which is before now={self.now!r}")
        event = Event(time, priority, next(self._seq), callback)
        event._queue = self._queue
        self._queue.push((time, priority, event.seq, event))
        return event

    def post(self, delay: float, callback: Callable[[], None],
             priority: int = 0) -> None:
        """:meth:`schedule` for callbacks that are never cancelled.

        Returns no handle; anything that may need :meth:`Event.cancel`
        must use :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} time units in the past")
        time = self.now + delay
        seq = next(self._seq)
        self._queue.push((time, priority, seq, Event(time, priority, seq, callback)))

    def rearm(self, event: Event, time: float) -> Event:
        """Queue ``event``, which has fired, again at absolute time ``time``.

        The event keeps its callback and priority and takes a fresh
        ``seq`` drawn exactly where :meth:`schedule_at` would draw one, so
        ties order as if a new event had been scheduled here.  It is
        pending again: not fired, not cancelled.  Returns ``event``.
        """
        if not event.fired:
            raise SimulationError(f"cannot re-arm {event!r}: it has not fired")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, which is before now={self.now!r}")
        queue = self._queue
        seq = next(self._seq)
        event.time = time
        event.seq = seq
        event.fired = False
        event.cancelled = False
        event._queue = queue
        queue.push((time, event.priority, seq, event))
        return event

    def run(self, until: Optional[float] = None,
            pause_gc: bool = False) -> float:
        """Run events in time order until the queue drains or the next
        event lies past ``until``.

        When ``until`` is given, every event due at or before it has
        fired when the loop exits, and the clock is advanced to exactly
        ``until`` even if the last event fired earlier; later events stay
        queued for the next :meth:`run`.  Returns the final time.

        ``pause_gc`` disables the cyclic garbage collector for the
        duration of the loop (restored on exit).  The hot path allocates
        almost exclusively acyclic objects -- events, frames, typed
        records -- which reference counting reclaims immediately, so the
        collector's generation sweeps are pure overhead (~20% of a
        benign-startup run).  Off by default: callers embedding the
        simulator in a larger program keep normal GC behaviour.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        self._running = True
        queue = self._queue
        resume_gc = False
        if pause_gc:
            import gc

            resume_gc = gc.isenabled()
            if resume_gc:
                gc.disable()
        try:
            while True:
                # Re-read every time round: a callback's cancel may have
                # compacted the queue, which rebinds its heap.
                heap = queue._heap
                if not heap:
                    break
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    queue._dead -= 1
                    continue
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                self.now = entry[0]
                event.fired = True
                event._queue = None
                self.fired_count += 1
                event.callback()
        finally:
            self._running = False
            if resume_gc:
                import gc

                gc.enable()
        if until is not None and self.now < until:
            self.now = until
        return self.now

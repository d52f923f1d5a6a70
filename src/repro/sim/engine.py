"""Event queue and simulation clock.

The engine is a binary-heap discrete-event simulator: callbacks are
scheduled at absolute simulated times and executed in time order.  Ties
are broken first by an integer priority (lower runs first) and then by
insertion order, which makes every run fully deterministic.

The queue (:class:`HeapQueue`) stores plain ``(time, priority, seq,
event)`` tuples so every comparison happens at C level.  A time-triggered
TDMA cluster keeps only O(N) events live (a benign 64-node startup peaks
at 127 queued entries), so the heap's O(log n) push and pop stay cheap;
EXP-P7 and EXP-P8 record the measured rates.  The queue compacts itself
when more than half of its entries are cancelled (long cancel-heavy runs
stop growing memory).  :meth:`Simulator.post` is a fast scheduling path
for callbacks that are never cancelled: it returns no handle, which lets
the engine recycle the backing event objects through a free list.

Time is a ``float`` in arbitrary units; the TTP/C layer uses microseconds.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

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
    entries pile up).
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "fired",
                 "_queue", "_pooled")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None]) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False
        #: Owning queue while enqueued (dead-entry accounting for
        #: compaction); cleared when the event fires.
        self._queue = None
        #: Whether the event came from the :meth:`Simulator.post` free
        #: list (no external handle exists, so it may be recycled).
        self._pooled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None and not self.fired:
                queue.note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (other.time, other.priority, other.seq)

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

    def peek(self) -> Optional[Entry]:
        """Next pending entry (discarding cancelled heads), or ``None``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[3].cancelled:
                return entry
            heappop(heap)
            self._dead -= 1
        return None

    def pop(self) -> Optional[Entry]:
        """Remove and return the next pending entry, or ``None``."""
        entry = self.peek()
        if entry is not None:
            heappop(self._heap)
        return entry

    def pop_next(self, until: Optional[float] = None) -> Optional[Entry]:
        """Fused peek-check-consume for the run loop.

        Removes and returns the next pending entry, or ``None`` when the
        queue is drained or the next entry lies past ``until`` (which is
        then left in place).
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            return entry
        return None

    def note_cancel(self) -> None:
        self._dead += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop cancelled entries and re-heapify."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self._dead = 0

    def pending_count(self) -> int:
        return len(self._heap) - self._dead

    def __len__(self) -> int:
        return len(self._heap)


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(5.0, lambda: print("hello at t=5"))
        sim.run(until=10.0)

    Generator-based processes (see :mod:`repro.sim.process`) are layered
    on top of this primitive scheduling interface.
    """

    def __init__(self) -> None:
        #: Current simulated time (read-only by convention).
        self.now = 0.0
        self._seq = itertools.count()
        self._queue = HeapQueue()
        self._pool: List[Event] = []
        self._running = False
        self._stopped = False
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
        """Fast path of :meth:`schedule` for never-cancelled callbacks.

        Returns no handle, so the backing event object can come from (and
        return to) a free list instead of being allocated per call.  Use
        it for fire-and-forget work (process wakeups, completions that are
        never rescheduled); anything that may need :meth:`Event.cancel`
        must use :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay!r} time units in the past")
        time = self.now + delay
        seq = next(self._seq)
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event.fired = False
        else:
            event = Event(time, priority, seq, callback)
            event._pooled = True
        self._queue.push((time, priority, seq, event))

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        entry = self._queue.peek()
        return None if entry is None else entry[0]

    def _fire(self, entry: Entry) -> None:
        event = entry[3]
        self.now = entry[0]
        event.fired = True
        event._queue = None
        callback = event.callback
        if event._pooled:
            # No handle escaped: recycle the object through the free list.
            event.callback = None
            self._pool.append(event)
        self.fired_count += 1
        callback()

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``False`` when the queue is empty (nothing was executed).
        """
        entry = self._queue.pop()
        if entry is None:
            return False
        self._fire(entry)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None,
            pause_gc: bool = False) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` events have fired.

        When ``until`` is given and the run consumed every event due at or
        before it, the clock is advanced to exactly ``until`` even if the
        last event fires earlier.  When the loop exits early -- via
        ``max_events`` or :meth:`stop` -- with such events still queued,
        the clock stays at the last fired event so that a subsequent
        :meth:`step`/:meth:`run` resumes with monotonic time instead of
        jumping past pending work and then moving backwards.  Returns the
        final time.

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
        self._stopped = False
        queue = self._queue
        pop_next = queue.pop_next
        pool = self._pool
        fired = 0
        resume_gc = False
        if pause_gc:
            import gc

            resume_gc = gc.isenabled()
            if resume_gc:
                gc.disable()
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                entry = pop_next(until)
                if entry is None:
                    break
                # Inlined _fire: this loop IS the hot path.
                event = entry[3]
                self.now = entry[0]
                event.fired = True
                event._queue = None
                callback = event.callback
                if event._pooled:
                    event.callback = None
                    pool.append(event)
                self.fired_count += 1
                callback()
                fired += 1
        finally:
            self._running = False
            if resume_gc:
                import gc

                gc.enable()
        if until is not None and self.now < until and not self._stopped:
            next_time = self.peek()
            if next_time is None or next_time > until:
                self.now = until
        return self.now

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return self._queue.pending_count()

    def call_soon(self, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at the current instant (after running events)."""
        return self.schedule(0.0, callback, priority)

    def process(self, generator: Any, name: str = "") -> "Any":
        """Convenience wrapper: start a :class:`repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

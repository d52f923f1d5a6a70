"""The event bus: typed event collection, dispatch, and queries.

Components emit :class:`repro.obs.events.Event` instances (time, source,
kind, typed details) on a shared :class:`TraceMonitor`.  The bus

* stores the stream (unbounded by default, or in a bounded ring buffer for
  multi-thousand-round campaigns via ``capacity``),
* dispatches every event to subscribed listeners, isolating listener
  exceptions so a raising subscriber can never abort a simulation step,
* keeps per-kind counters that survive ring-buffer eviction, and
* exports/imports the stream as JSONL for artifacts and offline analysis.

Fault-injection campaigns, online monitors (:mod:`repro.obs.monitors`),
and the model conformance subsystem (:mod:`repro.conformance`) all consume
this one spine.  :meth:`TraceMonitor.emit` is the only way onto the bus,
and the JSONL import accepts only the kinds and details that
:mod:`repro.obs.events` declares.
"""

from __future__ import annotations

import io
import json
from collections import Counter, deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Union)

from repro.obs.events import Event, event_from_dict

Listener = Callable[[Event], None]

#: Listener errors kept for inspection (older ones are discarded).
MAX_LISTENER_ERRORS = 100


@dataclass(frozen=True)
class ListenerError:
    """One exception a subscribed listener raised (and the bus swallowed)."""

    listener: Listener
    event: Event
    error: Exception


class TraceMonitor:
    """Collects the event stream and answers queries over it."""

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._records: Union[List[Event], Deque[Event]] = (
            [] if capacity is None else deque(maxlen=capacity))
        self._listeners: List[Listener] = []
        self._kind_counts: Counter = Counter()
        #: Events evicted by the ring buffer (bounded mode only).
        self.dropped_count = 0
        #: Errors raised by listeners, isolated and kept for inspection.
        self.listener_errors: List[ListenerError] = []

    # -- emission --------------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Append a typed event and dispatch it to listeners (no-op when
        disabled).  A raising listener is isolated: the error is recorded
        in :attr:`listener_errors` and every other listener still runs."""
        if not self.enabled:
            return
        if self.capacity is not None and len(self._records) == self.capacity:
            self.dropped_count += 1
        self._records.append(event)
        self._kind_counts[event.kind] += 1
        if self._listeners:
            for listener in list(self._listeners):
                try:
                    listener(event)
                except Exception as error:  # noqa: BLE001 - isolation is the point
                    if len(self.listener_errors) >= MAX_LISTENER_ERRORS:
                        del self.listener_errors[0]
                    self.listener_errors.append(
                        ListenerError(listener=listener, event=event, error=error))

    # -- subscriptions ---------------------------------------------------------

    def subscribe(self, listener: Listener) -> Listener:
        """Invoke ``listener`` on every future event; returns the listener
        so call sites can hold on to it for :meth:`unsubscribe`."""
        self._listeners.append(listener)
        return listener

    def unsubscribe(self, listener: Listener) -> None:
        """Stop invoking ``listener``.  Unknown listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    @property
    def listener_count(self) -> int:
        return len(self._listeners)

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._records)

    @property
    def records(self) -> List[Event]:
        """All retained events, in time order (copy)."""
        return list(self._records)

    def select(self, source: Optional[str] = None, kind: Optional[str] = None,
               after: Optional[float] = None,
               before: Optional[float] = None) -> List[Event]:
        """Retained events matching all the given filters."""
        matched = []
        for entry in self._records:
            if source is not None and entry.source != source:
                continue
            if kind is not None and entry.kind != kind:
                continue
            if after is not None and entry.time < after:
                continue
            if before is not None and entry.time > before:
                continue
            matched.append(entry)
        return matched

    def first(self, kind: str, source: Optional[str] = None) -> Optional[Event]:
        """Earliest retained event of the given kind, or ``None``."""
        matches = self.select(source=source, kind=kind)
        return matches[0] if matches else None

    def count(self, kind: str, source: Optional[str] = None) -> int:
        """Number of retained events of the given kind."""
        return len(self.select(source=source, kind=kind))

    def kind_count(self, kind: str) -> int:
        """Events of ``kind`` ever emitted (ring-buffer eviction included)."""
        return self._kind_counts[kind]

    @property
    def kind_counts(self) -> Dict[str, int]:
        """Per-kind emission counters (copy), eviction-proof."""
        return dict(self._kind_counts)

    def sources(self) -> List[str]:
        """Distinct sources seen, in first-appearance order."""
        seen: List[str] = []
        for entry in self._records:
            if entry.source not in seen:
                seen.append(entry.source)
        return seen

    def clear(self) -> None:
        """Drop all events and counters (listeners stay subscribed)."""
        self._records.clear()
        self._kind_counts.clear()
        self.dropped_count = 0

    def format(self, limit: Optional[int] = None) -> str:
        """Multi-line rendering of (up to ``limit``) events."""
        entries = self.records if limit is None else self.records[:limit]
        lines = [entry.describe() for entry in entries]
        if limit is not None and len(self._records) > limit:
            lines.append(f"... ({len(self._records) - limit} more)")
        return "\n".join(lines)

    # -- JSONL export / import -------------------------------------------------

    def export_jsonl(self, target: Union[str, io.TextIOBase]) -> int:
        """Write the retained stream as JSON Lines; returns the line count.

        ``target`` is a path or an open text stream.
        """
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                return self.export_jsonl(handle)
        written = 0
        for entry in self._records:
            target.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
            written += 1
        return written

    @staticmethod
    def read_jsonl(source: Union[str, io.TextIOBase,
                                 Iterable[str]]) -> List[Event]:
        """Parse a JSONL stream back into typed events.

        A line that is not JSON, or not an event record (see
        :func:`~repro.obs.events.event_from_dict`), raises
        :class:`ValueError` naming the source and its 1-based line number
        (blank lines count).  So does a kind the taxonomy does not
        declare, or a detail its kind does not declare.
        """
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as handle:
                return TraceMonitor.read_jsonl(handle)
        events = []
        for number, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            name = getattr(source, "name", "<stream>")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{name}:{number}: malformed JSONL record: "
                                 f"{error}") from error
            try:
                events.append(event_from_dict(record))
            except ValueError as error:
                raise ValueError(f"{name}:{number}: {error}") from error
        return events

    @classmethod
    def from_jsonl(cls, source: Union[str, io.TextIOBase, Iterable[str]],
                   capacity: Optional[int] = None) -> "TraceMonitor":
        """A monitor pre-loaded with an imported stream (for offline
        queries with the same ``select``/``count`` API)."""
        monitor = cls(capacity=capacity)
        for event in cls.read_jsonl(source):
            monitor.emit(event)
        return monitor

"""Seeded EVT001 violations (parsed by the linter tests, never run).

Expected findings: EVT001 x4.
"""

from repro.obs.events import StateChange


class Telemetry:
    def __init__(self, monitor):
        self.monitor = monitor

    def _emit(self, event_cls, **details):
        self.monitor.emit(event_cls(time=0.0, source="fixture", **details))

    def open_vocabulary(self, extra):
        self._emit(ModeRequest)  # EVT001: not a declared event class
        self._emit(Telemetry)  # EVT001: not an event class
        self._emit(StateChange, wrong_field="x")  # EVT001: undeclared field
        self._emit(StateChange, **extra)  # EVT001: ** defeats the check
        self._emit(StateChange, state="active")  # clean: declared field

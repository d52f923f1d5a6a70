"""Firing fixture for the ORD pack: unreported mutation, orphan kind."""

from ord_events import Orphan, StateChange


class Controller:
    def __init__(self):
        self.state = "init"
        self.bus = []

    def advance(self, ready):
        # ORD001: the early return below leaves the mutation unreported.
        self.state = "active"
        if not ready:
            return
        self._emit(StateChange(time=0.0, source="ctl", state=self.state))

    def _emit(self, event):
        self.bus.append(event)


def make_orphan():
    # ORD002: nothing ever reads kind 'orphan'.
    return Orphan(time=0.0, source="ctl")

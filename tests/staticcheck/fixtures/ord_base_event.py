"""Firing fixture for ORD002: constructs the taxonomy ``Event`` itself."""

from ord_events import Event


def make_event():
    # ORD002: no monitor ever consumes kind 'event'.
    return Event(time=0.0, source="ctl")

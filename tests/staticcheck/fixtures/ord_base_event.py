"""Firing fixture for ORD002: constructs the taxonomy ``Event`` itself."""

from ord_events import Event


def base_event():
    # ORD002: nothing ever reads kind 'event'.
    return Event(time=0.0, source="ctl")

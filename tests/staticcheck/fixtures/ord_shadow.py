"""Clean fixture for ORD002: a module-local ``Event`` shadows the taxonomy
class of the same name, so constructing it is not event traffic."""


class Event:
    """A scheduler entry, not a typed trace event."""

    def __init__(self, time, callback):
        self.time = time
        self.callback = callback


def schedule(time, callback):
    return Event(time, callback)

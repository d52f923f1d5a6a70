"""Fixture event taxonomy for the ORD pack (kind per class attribute)."""


class StateChange:
    kind = "state"

    def __init__(self, time, source, state):
        self.time = time
        self.source = source
        self.state = state


class Freeze:
    kind = "freeze"

    def __init__(self, time, source):
        self.time = time
        self.source = source


class Orphan:
    kind = "orphan"

    def __init__(self, time, source):
        self.time = time
        self.source = source


class Event:
    kind = "event"

    def __init__(self, time, source):
        self.time = time
        self.source = source

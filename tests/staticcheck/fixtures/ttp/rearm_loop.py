"""Fixture: a protocol module that re-arms events in a loop (SIM003 bait).

Expected findings: SIM003 x1 (the single re-arm outside a loop is clean).
"""


class SlotDriver:
    def __init__(self, sim, slots):
        self.sim = sim
        self.slots = slots
        self.tick = None

    def next_tick(self, period):
        # clean: one event re-armed once per firing.
        self.tick = self.sim.rearm(self.tick, self.sim.now + period)

    def rearm_round(self, events):
        # SIM003: per-slot rescheduling loop through re-arm.
        for event, slot in zip(events, self.slots):
            self.sim.rearm(event, slot.start)

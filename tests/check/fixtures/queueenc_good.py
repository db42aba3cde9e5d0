"""Fixture: event-heap access through the public surface simlint must accept."""


def schedule_and_inspect(sim):
    ev = sim.timeout(5e-9, name="probe")
    handle = sim.call_after(1e-9, print, "tick")
    handle.cancel()
    return (ev, sim.queued_events, sim.dead_events, sim.heap_size,
            sim.skipped, sim.compactions, sim.dispatched)


class OwnBooks:
    """A class's own same-named fields are not the simulator's."""

    def __init__(self):
        self._heap = []
        self._dead = 0
        self._seq = 0

    def push(self, item):
        self._seq += 1
        self._heap.append((self._seq, item))

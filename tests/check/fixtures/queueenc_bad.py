"""Fixture: every event-heap touch simlint must flag."""
import heapq
from heapq import heappush


def sneak_past_the_simulator(sim):
    # Scheduling around the Simulator: pokes at its heap and books.
    heappush(sim._heap, (0.0, 0, None))
    heapq.heappop(sim._heap)
    sim._push((0.0, next(sim._seq), None))
    return sim._dead


class Probe:
    def __init__(self, sim):
        self.sim = sim

    def dead(self):
        return self.sim._dead

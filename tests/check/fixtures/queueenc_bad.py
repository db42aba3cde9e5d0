"""Fixture: every queue-internal touch simlint must flag."""
import heapq
from heapq import heappush


def sneak_past_the_interface(sim):
    # Scheduling around the EventQueue API: heap-era attribute pokes.
    heappush(sim._heap, (0.0, 0, None))
    heapq.heappop(sim._heap)
    sim._push((0.0, next(sim._seq), None))
    return sim.queue._dead


def poke_bucket_state(queue):
    queue._buckets.clear()
    queue._cur = 0
    width = queue._inv_width
    queue._grow_at = 1 << 30
    return width

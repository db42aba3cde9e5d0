"""Fixture: queue access through the public surface simlint must accept."""


def schedule_and_inspect(sim):
    ev = sim.timeout(5e-9, name="probe")
    handle = sim.call_after(1e-9, print, "tick")
    handle.cancel()
    stats = sim.queue.stats()
    return ev, stats, sim.queued_events, sim.dead_events, sim.heap_size


def drain(queue):
    batch = queue.pop_batch()
    queue.push((0.0, 0, batch))
    return queue.live, queue.dead, queue.size, queue.skipped

"""Trigger fixture: deadline-expiry timer callbacks that block.

The deadline-expiry path registers its callbacks through
``sim.call_after``; they fire in the engine's dispatch loop, the same
no-blocking context as completion continuations.
"""


def expire_and_reap(th, rec):
    # Blocking cancellation inside a timer callback: the callback is
    # not a sim process, the wait's event can never be yielded.
    th.waitall([r for _s, r in rec.attempts])


def install(sim, th, rec, delay):
    sim.call_after(250e-6, expire_and_reap, th, rec)
    rec.timer = sim.call_after(delay, expire_and_reap, th, rec)
    rec.timer = sim.call_after(delay, lambda: rec.lock.acquire())

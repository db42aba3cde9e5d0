"""Fixture: legal yields simlint must accept."""


def good_process(sim, lock, ctx):
    yield sim.timeout(1e-6)
    yield 1e-6  # a float delay is a sleep
    yield 2.0 * 1e-9
    yield from lock.acquire(ctx)
    lock.release(ctx)
    yield sim.event()


def generator_marker():
    # The bare-yield-after-return idiom that marks a function as a
    # generator (NullLock.acquire) is legal.
    return
    yield

"""Fixture: balanced lock usage simlint must accept."""


def straight_line(lock, ctx):
    yield from lock.acquire(ctx)
    lock.release(ctx)
    return 1


def branch_entry(lock, ctx, fast):
    if fast:
        yield from lock.acquire(ctx)
    else:
        yield from lock.acquire(ctx, priority=1)
    lock.release(ctx)


def finally_guarded(lock, ctx, cond):
    yield from lock.acquire(ctx)
    try:
        if cond:
            return 1
        return 2
    finally:
        lock.release(ctx)


def loop_balanced(lock, ctx, n):
    for _ in range(n):
        yield from lock.acquire(ctx)
        lock.release(ctx)


def gap_wrapper(lock, ctx):
    # Release-first wrappers (a re-acquire gap, as across the CS_YIELD
    # in MpiRuntime._wait_poll) deliberately end one acquire up.
    lock.release(ctx)
    yield copy_done()
    yield from lock.acquire(ctx)

"""The uncontended LOW round each lock kind states for parked progress.

``k`` real LOW acquire/release rounds must leave a lock exactly as
``k - 1`` bulk rounds (jitter draws plus ``add_low_rounds``) followed by
one real round do, attribute by attribute, with the same end time and
the same next jitter draw.
"""

import pytest

from repro.locks import LOCK_CLASSES, Priority, SimLock, make_lock
from repro.machine import CostModel, Proximity, ThreadCtx, nehalem_node
from repro.sim import Simulator


def real_round(lock, ctx, t):
    for delay in lock.acquire(ctx, Priority.LOW):
        t = t + delay
    assert lock.release(ctx) == 0.0
    return t


def snapshot(lock):
    """Every attribute of the lock and its sub-locks, minus identities."""
    out = []
    for lk in (lock, *lock.sub_locks()):
        out.append({
            k: v for k, v in vars(lk).items()
            if k not in ("sim", "costs", "lock_id", "_jitter")
            and not isinstance(v, SimLock)
        })
    return out


def make(kind):
    sim = Simulator(seed=7)
    costs = CostModel()
    return make_lock(kind, sim, costs, name=f"{kind}@rank3"), costs


@pytest.fixture
def ctx():
    return ThreadCtx(0, nehalem_node().cores[2], name="r3async", rank=3)


@pytest.mark.parametrize("k", [1, 2, 9])
@pytest.mark.parametrize("kind", sorted(LOCK_CLASSES))
def test_bulk_rounds_equal_real_rounds(kind, k, ctx):
    real, costs = make(kind)
    bulk, _ = make(kind)
    t_real = 0.0
    for _ in range(k):
        t_real = real_round(real, ctx, t_real)

    base = costs.atomic_s[Proximity.SAME_CORE]
    t = 0.0
    for _ in range(k - 1):
        for lk in bulk.low_round_locks():
            t = t + (base + lk._jitter())
    bulk.add_low_rounds(k - 1)
    t = real_round(bulk, ctx, t)

    assert t == t_real
    assert snapshot(bulk) == snapshot(real)
    assert ctx.held == set()
    for a, b in zip((bulk, *bulk.sub_locks()), (real, *real.sub_locks())):
        assert a._jitter() == b._jitter()


def test_unread_draws_come_back_in_order():
    lock, _ = make("mutex")
    twin, _ = make("mutex")
    x, y = lock._jitter(), lock._jitter()
    lock._jitter.unread(y)
    lock._jitter.unread(x)
    assert [lock._jitter() for _ in range(300)] == [
        twin._jitter() for _ in range(300)
    ]


@pytest.mark.parametrize("kind", sorted(LOCK_CLASSES))
def test_parkable_only_when_the_round_is_fixed(kind, ctx):
    lock, _ = make(kind)
    real_round(lock, ctx, 0.0)
    assert lock.parkable_on(ctx.core)
    other = nehalem_node().cores[5]
    # An atomic from another core would not cost SAME_CORE.
    assert lock.parkable_on(other) == (kind == "null")
    gen = lock.acquire(ctx, Priority.LOW)
    next(gen, None)  # entered: a contender (or, for null, the owner)
    assert not lock.parkable_on(ctx.core)
    for _ in gen:
        pass
    lock.release(ctx)
    assert lock.parkable_on(ctx.core)


def test_no_jitter_no_park(ctx):
    lock = make_lock("ticket", Simulator(seed=1), CostModel(jitter_ns=0.0))
    assert not lock.parkable_on(ctx.core)

"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import LOCK_CLASSES, make_lock
from repro.machine import NS, CostModel, ThreadCtx, nehalem_node
from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope, ReqKind, Request, matches
from repro.mpi.queues import PostedQueue, UnexpectedMsg, UnexpectedQueue
from repro.sim import Simulator

# ----------------------------------------------------------------------
# Envelope matching
# ----------------------------------------------------------------------
concrete_env = st.builds(
    Envelope,
    source=st.integers(0, 7),
    tag=st.integers(0, 15),
    comm=st.integers(0, 2),
)
pattern_env = st.builds(
    Envelope,
    source=st.integers(0, 7) | st.just(ANY_SOURCE),
    tag=st.integers(0, 15) | st.just(ANY_TAG),
    comm=st.integers(0, 2),
)


@given(env=concrete_env)
def test_concrete_envelope_matches_itself(env):
    assert matches(env, env)


@given(env=concrete_env)
def test_full_wildcard_matches_same_comm_only(env):
    assert matches(Envelope(ANY_SOURCE, ANY_TAG, env.comm), env)
    assert not matches(Envelope(ANY_SOURCE, ANY_TAG, env.comm + 1), env)


@given(pattern=pattern_env, env=concrete_env)
def test_match_implies_fieldwise_compatibility(pattern, env):
    if matches(pattern, env):
        assert pattern.comm == env.comm
        assert pattern.source in (ANY_SOURCE, env.source)
        assert pattern.tag in (ANY_TAG, env.tag)


# ----------------------------------------------------------------------
# Queue matching: FIFO-first-match semantics
# ----------------------------------------------------------------------
@given(
    patterns=st.lists(pattern_env, min_size=1, max_size=20),
    env=concrete_env,
)
def test_posted_queue_returns_first_match(patterns, env):
    q = PostedQueue()
    reqs = []
    for i, p in enumerate(patterns):
        r = Request(i, ReqKind.RECV, 0, 0, p, 8, 0.0)
        q.post(r)
        reqs.append(r)
    got, scanned = q.match(env)
    matching = [r for r in reqs if matches(r.envelope, env)]
    if matching:
        assert got is matching[0]
        assert scanned == reqs.index(matching[0]) + 1
        assert len(q) == len(reqs) - 1
    else:
        assert got is None
        assert len(q) == len(reqs)


@given(
    envs=st.lists(concrete_env, min_size=1, max_size=20),
    pattern=pattern_env,
)
def test_unexpected_queue_returns_first_match(envs, pattern):
    q = UnexpectedQueue()
    msgs = [UnexpectedMsg(e, 8, e.source) for e in envs]
    for m in msgs:
        q.add(m)
    got, _ = q.match(pattern)
    matching = [m for m in msgs if matches(pattern, m.envelope)]
    if matching:
        assert got is matching[0]
    else:
        assert got is None


# ----------------------------------------------------------------------
# Simulator: clock monotonicity under arbitrary workloads
# ----------------------------------------------------------------------
@given(delays=st.lists(st.floats(0.0, 1e-3), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_clock_monotone_under_random_timeouts(delays):
    sim = Simulator(seed=0)
    stamps = []

    def proc(ds):
        for d in ds:
            yield sim.timeout(d)
            stamps.append(sim.now)

    half = len(delays) // 2
    sim.process(proc(delays[:half] or [0.0]))
    sim.process(proc(delays[half:] or [0.0]))
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == max(stamps)


# ----------------------------------------------------------------------
# Locks: mutual exclusion and completeness under random schedules
# ----------------------------------------------------------------------
@given(
    kind=st.sampled_from(sorted(k for k in LOCK_CLASSES if k != "null")),
    holds=st.lists(st.integers(10, 500), min_size=2, max_size=6),
    gaps=st.lists(st.integers(1, 500), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_lock_exclusion_random_schedules(kind, holds, gaps, seed):
    sim = Simulator(seed=seed)
    machine = nehalem_node()
    lock = make_lock(kind, sim, CostModel())
    n = min(len(holds), len(gaps))
    inside = [0]
    acquired = [0]

    def worker(i):
        ctx = ThreadCtx(i, machine.core(i % machine.n_cores), name=f"w{i}")
        for _ in range(3):
            yield from lock.acquire(ctx)
            inside[0] += 1
            assert inside[0] == 1, "mutual exclusion violated"
            acquired[0] += 1
            yield sim.timeout(holds[i % len(holds)] * NS)
            inside[0] -= 1
            extra = lock.release(ctx)
            yield sim.timeout(gaps[i % len(gaps)] * NS + extra)

    for i in range(n):
        sim.process(worker(i))
    sim.run()
    assert acquired[0] == 3 * n  # nobody starved forever
    assert lock.owner is None


# ----------------------------------------------------------------------
# Request lifecycle: legal sequences never corrupt the dangling metric
# ----------------------------------------------------------------------
@given(unexpected_hit=st.booleans(), posted_first=st.booleans())
def test_request_dangling_flag_consistency(unexpected_hit, posted_first):
    r = Request(0, ReqKind.RECV, 0, 0, Envelope(0, 0, 0), 8, 0.0)
    if posted_first and not unexpected_hit:
        r.mark_posted()
    r.mark_complete(1.0)
    assert r.dangling
    r.mark_freed(2.0)
    assert not r.dangling
    assert r.freed

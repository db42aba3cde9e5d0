"""Tests for the multithreaded throughput benchmark."""

import pytest

from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster


def run(lock="ticket", threads=2, size=64, windows=2, **kw):
    cl = throughput_cluster(lock=lock, threads_per_rank=threads, seed=3, **kw)
    return cl, run_throughput(cl, ThroughputConfig(msg_size=size, n_windows=windows))


def test_message_accounting():
    cl, res = run(threads=2, windows=3)
    assert res.total_messages == 2 * 64 * 3
    assert res.receiver_stats["recvs_issued"] == res.total_messages
    assert res.sender_stats["sends_issued"] == res.total_messages
    assert res.msg_rate_k == pytest.approx(
        res.total_messages / res.elapsed_s / 1e3
    )


def test_all_requests_freed_at_end():
    cl, res = run(threads=4)
    for rt in cl.runtimes:
        assert rt.dangling_count == 0
        assert rt.stats.completed == rt.stats.freed


def test_dangling_profiler_sampled():
    cl, res = run(threads=4)
    assert res.dangling.n_samples > 0
    assert res.dangling.maximum >= res.dangling.mean


def test_rate_decreases_with_message_size():
    _, small = run(size=64)
    _, big = run(size=65536)
    assert small.msg_rate_k > big.msg_rate_k


def test_deterministic_given_seed():
    _, a = run(threads=4)
    _, b = run(threads=4)
    assert a.elapsed_s == b.elapsed_s
    assert a.msg_rate_k == b.msg_rate_k


def test_different_seeds_differ():
    cl1 = throughput_cluster(lock="mutex", threads_per_rank=4, seed=1)
    cl2 = throughput_cluster(lock="mutex", threads_per_rank=4, seed=2)
    r1 = run_throughput(cl1, ThroughputConfig(msg_size=64, n_windows=2))
    r2 = run_throughput(cl2, ThroughputConfig(msg_size=64, n_windows=2))
    assert r1.elapsed_s != r2.elapsed_s


def test_mutex_degrades_with_threads():
    """The paper's headline: multithreaded throughput collapses under
    the mutex (Fig. 2a)."""
    _, one = run(lock="mutex", threads=1, size=8, windows=4)
    _, eight = run(lock="mutex", threads=8, size=8, windows=4)
    assert eight.msg_rate_k < 0.5 * one.msg_rate_k


def test_ticket_beats_mutex_small_messages():
    _, m = run(lock="mutex", threads=4, size=8, windows=4)
    _, t = run(lock="ticket", threads=4, size=8, windows=4)
    assert t.msg_rate_k > 1.2 * m.msg_rate_k


def test_ticket_dangling_below_mutex():
    _, m = run(lock="mutex", threads=8, size=8, windows=4)
    _, t = run(lock="ticket", threads=8, size=8, windows=4)
    assert t.dangling.mean < m.dangling.mean


#: DanglingStats of the fig3c / fig5a quick cells at seed 1 (8 threads,
#: 4 windows): (repr(mean), maximum, n_samples).  Captured while the
#: samples were still taken by a per-lock grant callback; the runtime's
#: grant counters must reproduce them exactly.
DANGLING_PINS = {
    ("mutex", 1): ("80.89442929489677", 304, 2567),
    ("mutex", 16): ("69.56130790190736", 264, 2569),
    ("mutex", 256): ("128.7846273897776", 404, 2563),
    ("mutex", 4096): ("79.20296643247462", 296, 2562),
    ("ticket", 1): ("53.020092735703244", 508, 2588),
    ("ticket", 16): ("53.020092735703244", 508, 2588),
    ("ticket", 256): ("53.020092735703244", 508, 2588),
    ("ticket", 4096): ("53.020092735703244", 508, 2588),
}


@pytest.mark.parametrize("lock,size", sorted(DANGLING_PINS))
def test_dangling_stats_pinned(lock, size):
    cl = throughput_cluster(lock=lock, threads_per_rank=8, seed=1)
    d = run_throughput(cl, ThroughputConfig(msg_size=size, n_windows=4)).dangling
    assert (repr(d.mean), d.maximum, d.n_samples) == DANGLING_PINS[(lock, size)]

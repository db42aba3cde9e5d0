"""Tests for the N2N all-to-all streaming benchmark."""

import pytest

from repro.mpi import Cluster, ClusterConfig
from repro.workloads import N2NConfig, run_n2n


def run(lock="ticket", ranks=3, threads=2, style="windowed", **kw):
    cl = Cluster(ClusterConfig(
        n_nodes=ranks, threads_per_rank=threads, lock=lock, seed=3))
    cfg = N2NConfig(msg_size=kw.pop("size", 256), window=kw.pop("window", 4),
                    n_windows=kw.pop("n_windows", 2), style=style)
    return cl, run_n2n(cl, cfg)


def test_message_accounting():
    ranks, threads, window, n_windows = 3, 2, 4, 2
    cl, res = run(ranks=ranks, threads=threads, window=window, n_windows=n_windows)
    expected = ranks * threads * (ranks - 1) * window * n_windows
    assert res.total_messages == expected
    sends = sum(rt.stats.sends_issued for rt in cl.runtimes)
    assert sends == expected


def test_rounds_style_equivalent_totals():
    _, a = run(style="windowed")
    _, b = run(style="rounds")
    assert a.total_messages == b.total_messages


def test_unknown_style_rejected():
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1, lock="ticket", seed=0))
    with pytest.raises(ValueError, match="style"):
        run_n2n(cl, N2NConfig(style="bogus"))


def test_single_rank_rejected():
    cl = Cluster(ClusterConfig(n_nodes=1, threads_per_rank=2, lock="ticket", seed=0))
    with pytest.raises(ValueError, match="2 ranks"):
        run_n2n(cl, N2NConfig())


def test_all_requests_drain():
    cl, res = run(ranks=4, threads=2)
    for rt in cl.runtimes:
        assert rt.dangling_count == 0
        assert len(rt.domains[0].posted_q) == 0
        assert len(rt.domains[0].unexp_q) == 0


def test_mutex_slower_than_ticket():
    _, m = run(lock="mutex", ranks=4, threads=4, style="rounds", size=1024)
    _, t = run(lock="ticket", ranks=4, threads=4, style="rounds", size=1024)
    assert t.msg_rate_k > m.msg_rate_k


def test_unexpected_fraction_in_range():
    _, res = run(ranks=4, threads=4, style="rounds")
    assert 0.0 <= res.unexpected_fraction <= 1.0

"""The progress watchdog: hangs become diagnosable aborts, and healthy
(or merely degraded) runs are left alone."""

import pytest

from repro.faults import FaultPlan, ProgressStallError, ProgressWatchdog
from repro.mpi import Cluster, ClusterConfig
from repro.obs import Instrument
from repro.workloads.n2n import N2NConfig, run_n2n



def _lossy_cluster(bus=None):
    """1 thread/rank over a total-loss fabric, reliability OFF: the
    receiver's message is gone and nothing will ever retransmit it."""
    return Cluster(ClusterConfig(
        n_nodes=2, ranks_per_node=1, threads_per_rank=1, lock="mutex",
        seed=9, obs=bus,
        faults=FaultPlan(drop=1.0, watchdog_interval_ns=20_000.0,
                         watchdog_grace=3),
    ))


def _lost_message_workload(cl):
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        yield from t0.send(1, 256, tag=0, data="lost")

    def receiver():
        yield from t1.recv(source=0, tag=0)  # pragma: no cover - hangs

    return [sender(), receiver()]


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        ProgressWatchdog(None, interval=0.0)


def test_stall_error_diagnostics_default_empty():
    assert ProgressStallError("boom").diagnostics == {}


def test_lossy_run_without_reliability_aborts_with_dump():
    bus = Instrument()
    events = []
    bus.subscribe(events.append, categories=("fault",))
    cl = _lossy_cluster(bus)
    with pytest.raises(ProgressStallError) as exc_info:
        cl.run_workload(_lost_message_workload(cl))
    diag = exc_info.value.diagnostics
    assert len(diag["ranks"]) == 2
    for rank_dump in diag["ranks"]:
        assert "domains" in rank_dump
        for d in rank_dump["domains"]:
            assert {"recv_q", "posted_q", "unexp_q",
                    "lock_holder", "dangling"} <= set(d)
        assert sum(d["dangling"] for d in rank_dump["domains"]) == \
            rank_dump["dangling"]
    assert cl.watchdog.stalled
    assert any(ev.name == "watchdog.stall" for ev in events)
    assert any(ev.name == "watchdog.dump" for ev in events)


def test_dump_splits_dangling_by_domain():
    # Sampled through a sharded run: each rank's per-domain dangling
    # counts add up to its total, including non-zero totals.
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=4,
                               cs="per-vci:4", seed=2))
    wd = ProgressWatchdog(cl, interval=1e-6)
    totals = []

    def sample():
        for rank_dump in wd._dump()["ranks"]:
            assert sum(d["dangling"] for d in rank_dump["domains"]) == \
                rank_dump["dangling"]
            totals.append(rank_dump["dangling"])
        if not cl._shutdown:
            cl.sim.call_after(1e-6, sample)

    cl.sim.call_after(1e-6, sample)
    run_n2n(cl, N2NConfig(msg_size=2048, window=2, n_windows=2,
                          style="rounds"))
    assert max(totals) > 0


def test_harmless_plan_does_not_trip_the_watchdog():
    # Reordering delays packets but loses nothing: the run completes
    # normally under an installed watchdog.
    cl = Cluster(ClusterConfig(
        n_nodes=2, ranks_per_node=1, threads_per_rank=1, lock="ticket",
        seed=4, faults=FaultPlan(reorder=1.0),
    ))
    t0, t1 = cl.thread(0), cl.thread(1)
    got = []

    def sender():
        for i in range(8):
            yield from t0.send(1, 256, tag=i, data=i)

    def receiver():
        for i in range(8):
            got.append((yield from t1.recv(source=0, tag=i)))

    cl.run_workload([sender(), receiver()])
    assert got == list(range(8))
    assert cl.watchdog is not None and not cl.watchdog.stalled


def test_watchdog_can_be_disabled_by_plan():
    cl = Cluster(ClusterConfig(
        n_nodes=2, threads_per_rank=1, lock="ticket", seed=4,
        faults=FaultPlan(reorder=1.0, watchdog_interval_ns=0.0),
    ))
    assert cl.watchdog is None


def test_run_with_only_cancelled_timers_pending_is_idle():
    """Regression: the idle check must read the *live* event count.

    A heap holding nothing but cancelled timers is a finished run; the
    old raw ``queued_events`` (which counted dead entries) kept the
    watchdog sampling a frozen metric until it aborted a run that was
    actually over."""
    from repro.sim import Simulator

    class _StubCluster:
        def __init__(self, sim):
            self.sim = sim
            self.runtimes = []
            self._shutdown = False

    sim = Simulator(seed=0)
    wd = ProgressWatchdog(_StubCluster(sim), interval=10e-6, grace=2).install()
    # Dead timers pending far beyond the grace window.
    timers = [sim.call_after(1.0, lambda: None) for _ in range(5)]
    for t in timers:
        assert t.cancel()
    sim.run()  # must terminate cleanly, not raise ProgressStallError
    assert not wd.stalled
    assert sim.now < 1.0  # the dead timers were never dispatched


def test_stop_cancels_pending_sample_so_drain_is_not_padded():
    """Shutdown cancels the watchdog's next tick: the drain ends at the
    last real event instead of the next sampling interval."""
    cl = Cluster(ClusterConfig(
        n_nodes=2, ranks_per_node=1, threads_per_rank=1, lock="ticket",
        seed=4,
        faults=FaultPlan(reorder=1.0, watchdog_interval_ns=1e9),  # 1 s ticks
    ))
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        yield from t0.send(1, 256, tag=0, data="hi")

    def receiver():
        yield from t1.recv(source=0, tag=0)

    cl.run_workload([sender(), receiver()])
    assert cl.watchdog is not None and not cl.watchdog.stalled
    # A microsecond-scale workload must not drain through a 1 s tick.
    assert cl.sim.now < 0.5
    assert cl.sim.queued_events == 0


def test_backoff_quiet_period_is_not_a_stall(monkeypatch):
    # Reliability on, heavy loss, tight watchdog budget: retransmit
    # activity counts as progress, so recovery is never misdiagnosed.
    # The backoff ceiling must stay below the grace window (the
    # RTO_MAX_NS invariant), so cap it explicitly here.
    from repro.faults import reliability

    monkeypatch.setattr(reliability, "RTO_NS", 5_000.0)
    monkeypatch.setattr(reliability, "RTO_MAX_NS", 40_000.0)
    cl = Cluster(ClusterConfig(
        n_nodes=2, threads_per_rank=1, lock="ticket", seed=8,
        faults=FaultPlan(drop=0.3, watchdog_interval_ns=20_000.0,
                         watchdog_grace=3),
        reliability=True,
    ))
    t0, t1 = cl.thread(0), cl.thread(1)
    got = []

    def sender():
        for i in range(16):
            yield from t0.send(1, 256, tag=i, data=i)

    def receiver():
        for i in range(16):
            got.append((yield from t1.recv(source=0, tag=i)))

    cl.run_workload([sender(), receiver()])
    assert got == list(range(16))
    assert not cl.watchdog.stalled


def test_parked_waiters_under_total_loss_are_a_stall_not_idle():
    """Regression: event-driven waiters park on a bare activity Signal
    and hold no event in the queue.  Under total loss the queue runs
    dry while every thread is parked on a packet that will never come;
    the watchdog's idle check must see the parked waiters and keep
    sampling until it aborts, instead of mistaking the dry queue for a
    finished run and letting the hang surface as a generic
    out-of-events crash (or a silent success)."""
    cl = Cluster(ClusterConfig(
        n_nodes=2, ranks_per_node=1, threads_per_rank=1, lock="mutex",
        seed=9, completion="event",
        faults=FaultPlan(drop=1.0, watchdog_interval_ns=20_000.0,
                         watchdog_grace=3),
    ))
    with pytest.raises(ProgressStallError):
        cl.run_workload(_lost_message_workload(cl))
    assert cl.watchdog.stalled
    assert cl.watchdog.diagnostics is not None


def test_on_warning_fires_before_the_abort():
    """The early-warning hook (half the grace period) runs exactly once
    per stall episode, before the ProgressStallError -- the deadlock
    detector's trigger."""
    cl = _lossy_cluster()
    warned = []
    cl.watchdog.on_warning.append(warned.append)
    with pytest.raises(ProgressStallError):
        cl.run_workload(_lost_message_workload(cl))
    assert warned == [max(1, cl.watchdog.grace // 2)]


def test_on_warning_not_fired_on_healthy_runs():
    cl = Cluster(ClusterConfig(
        n_nodes=2, ranks_per_node=1, threads_per_rank=1, lock="ticket",
        seed=4, faults=FaultPlan(reorder=1.0),
    ))
    warned = []
    cl.watchdog.on_warning.append(warned.append)
    t0, t1 = cl.thread(0), cl.thread(1)

    def sender():
        yield from t0.send(1, 256, tag=0, data="hi")

    def receiver():
        yield from t1.recv(source=0, tag=0)

    cl.run_workload([sender(), receiver()])
    assert warned == []

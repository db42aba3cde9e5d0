"""Unit tests for the Instrument bus and the EventLog recorder."""

import pytest

from repro.obs import (
    CATEGORIES,
    EventKind,
    EventLog,
    Instrument,
    ObsEvent,
    Recording,
)


def test_disabled_bus_emits_nothing():
    bus = Instrument()
    assert not bus.enabled
    assert not bus.wants("lock")
    bus.span_begin("lock", "x")  # no subscriber: must be a no-op
    assert bus.stats()["total"] == 0


def test_category_filtering():
    seen = []
    bus = Instrument()
    bus.subscribe(seen.append, categories=("lock",))
    assert bus.wants("lock") and not bus.wants("net")
    bus.instant("lock", "grant")
    bus.instant("net", "ignored")
    assert [e.name for e in seen] == ["grant"]


def test_unsubscribe_disables():
    seen = []
    bus = Instrument()
    bus.subscribe(seen.append)
    bus.instant("sim", "a")
    bus.unsubscribe(seen.append)
    bus.instant("sim", "b")
    assert [e.name for e in seen] == ["a"]
    assert not bus.enabled


def test_span_nesting_lifo_per_lane():
    """Nested spans on one lane pair LIFO; lanes don't interfere."""
    log = EventLog()
    bus = Instrument()
    bus.subscribe(log.append)
    bus.span_begin("lock", "hold", rank=0, tid=1)
    bus.span_begin("mpi", "cs.main", rank=0, tid=1)
    bus.span_begin("lock", "wait", rank=0, tid=2)  # other lane
    bus.span_end("mpi", "cs.main", rank=0, tid=1)
    bus.span_end("lock", "hold", rank=0, tid=1)
    bus.span_end("lock", "wait", rank=0, tid=2)
    spans = log.spans(strict=True)
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"hold", "cs.main", "wait"}
    inner, outer = by_name["cs.main"], by_name["hold"]
    assert outer.t0 <= inner.t0 and inner.t1 <= outer.t1


def test_unbalanced_span_strict_raises():
    log = EventLog()
    bus = Instrument()
    bus.subscribe(log.append)
    bus.span_begin("lock", "hold", rank=0, tid=1)
    with pytest.raises(ValueError):
        log.spans(strict=True)
    assert log.spans(strict=False) == []


def test_event_log_max_events_counts_drops():
    log = EventLog(max_events=2)
    for i in range(5):
        log.append(ObsEvent(kind=EventKind.INSTANT, category="sim",
                            name=f"e{i}", ts=float(i)))
    assert len(log) == 2
    assert log.dropped == 3


def test_bus_clock_follows_bound_sim():
    from repro.sim import Simulator

    sim = Simulator()
    bus = Instrument()
    bus.bind_sim(sim)
    assert sim.obs is bus
    seen = []
    bus.subscribe(seen.append)
    sim.call_after(2.5, lambda: bus.instant("meta", "tick"))
    sim.run()
    assert seen[-1].ts == 2.5


def test_clusters_on_one_bus_share_an_id_space():
    """A sweep through one bus numbers each cluster's threads on from the
    last, so their trace lanes stay apart; without a bus every cluster
    numbers from 0."""
    from repro.mpi import Cluster, ClusterConfig

    def tids(obs=None):
        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=2, obs=obs))
        return [th.ctx.tid for ths in cl.threads for th in ths]

    bus = Instrument()
    assert tids(bus) + tids(bus) == list(range(8))
    assert tids() == tids() == [0, 1, 2, 3]
    assert len(bus.thread_names) == 8


def test_counter_monotonicity_packets_handled():
    """mpi/packets_handled is a cumulative counter: never decreases."""
    from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster

    rec = Recording(categories=("mpi",))
    cl = throughput_cluster(lock="ticket", threads_per_rank=2, seed=3,
                            obs=rec.bus)
    run_throughput(cl, ThroughputConfig(msg_size=8, n_windows=2))
    series = rec.log.counters()
    key = next(k for k in series if k[1] == "packets_handled")
    values = [v for _ts, v in series[key]]
    assert values, "no packets_handled samples recorded"
    assert all(b >= a for a, b in zip(values, values[1:]))
    ts = [t for t, _v in series[key]]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_emitted_stats_by_category():
    rec = Recording()
    from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster

    cl = throughput_cluster(lock="mutex", threads_per_rank=2, seed=3,
                            obs=rec.bus)
    run_throughput(cl, ThroughputConfig(msg_size=8, n_windows=2))
    stats = rec.bus.stats()
    assert stats["total"] > 0
    for cat in ("lock", "mpi", "net"):
        assert stats["events_emitted"].get(cat, 0) > 0, cat
        assert cat in CATEGORIES

"""Tests for the lock-usage analysis and the packet tracer."""

import pytest

from repro.analysis import (
    analyze_lock_usage,
    transition_histogram,
    wasted_acquisition_fraction,
)
from repro.locks import LockTrace
from repro.mpi import Cluster, ClusterConfig
from repro.network import PacketKind, PacketTracer
from repro.obs import Instrument
from repro.workloads import ThroughputConfig, run_throughput


def synthetic_trace(tids, sockets, times, holds):
    tr = LockTrace()
    tr.tids = list(tids)
    tr.sockets = list(sockets)
    tr.times = list(times)
    tr.hold_times = list(holds)
    tr.n_contenders = [1] * len(tids)
    tr.n_contenders_prev_socket = [0] * len(tids)
    return tr


class TestLockUsage:
    def test_transition_histogram(self):
        # t0(s0), t0(s0), t1(s0), t2(s1): same-thread, same-socket, cross.
        tr = synthetic_trace([0, 0, 1, 2], [0, 0, 0, 1],
                             [0, 1, 2, 3], [0.5] * 4)
        h = transition_histogram(tr)
        assert h == {"same-thread": 1, "same-socket": 1, "cross-socket": 1}

    def test_transition_histogram_short(self):
        tr = synthetic_trace([0], [0], [0.0], [0.1])
        assert sum(transition_histogram(tr).values()) == 0

    def test_utilization_full(self):
        # Back-to-back holds: utilization ~ 1.
        tr = synthetic_trace([0, 1], [0, 0], [0.0, 1.0], [1.0, 1.0])
        usage = analyze_lock_usage(tr)
        assert usage.utilization == pytest.approx(1.0)
        assert usage.mean_gap_s == pytest.approx(0.0)
        assert usage.mean_hold_s == pytest.approx(1.0)

    def test_utilization_half(self):
        tr = synthetic_trace([0, 1], [0, 0], [0.0, 2.0], [1.0, 1.0])
        usage = analyze_lock_usage(tr)
        assert usage.utilization == pytest.approx(2.0 / 3.0)
        assert usage.mean_gap_s == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            analyze_lock_usage(LockTrace())

    def test_on_real_run(self):
        bus = Instrument()
        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=4,
                                   lock="mutex", seed=3, obs=bus))
        trace = LockTrace.from_bus(bus, lock_name="mutex@rank1")
        run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=2))
        usage = analyze_lock_usage(trace)
        assert 0.0 < usage.utilization <= 1.0
        assert usage.n_acquisitions > 100
        assert sum(usage.transitions.values()) == usage.n_acquisitions - 1


class TestWastedAcquisitions:
    def test_zero_when_no_entries(self):
        from repro.mpi.runtime import RuntimeStats

        assert wasted_acquisition_fraction(RuntimeStats()) == 0.0

    def test_fraction_from_counters(self):
        from repro.mpi.runtime import RuntimeStats

        s = RuntimeStats()
        s.cs_entries_main = 6
        s.cs_entries_progress = 4
        s.empty_polls = 5
        assert wasted_acquisition_fraction(s) == pytest.approx(0.5)


class TestPacketTracer:
    def run_traced(self, msg_size):
        bus = Instrument()
        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1,
                                   lock="ticket", seed=3, obs=bus))
        tracer = PacketTracer.from_bus(bus)
        run_throughput(cl, ThroughputConfig(msg_size=msg_size, n_windows=1))
        return tracer

    def test_counts_eager_traffic(self):
        tracer = self.run_traced(64)
        s = tracer.summary()
        assert s.n_packets == 64
        assert s.by_kind == {"eager": 64}
        assert s.by_pair == {(0, 1): 64}
        assert s.packet_rate > 0

    def test_rendezvous_traffic_has_control_packets(self):
        tracer = self.run_traced(1 << 17)
        s = tracer.summary()
        assert s.by_kind["rts"] == 64
        assert s.by_kind["cts"] == 64
        assert s.by_kind["rndv_data"] == 64
        # Control packets carry no payload bytes.
        assert s.bytes_by_kind["rts"] == 0
        assert s.bytes_by_kind["rndv_data"] == 64 * (1 << 17)

    def test_times_filter(self):
        tracer = self.run_traced(1 << 17)
        all_times = tracer.times()
        cts_times = tracer.times(PacketKind.CTS)
        assert len(cts_times) == 64
        assert len(all_times) == len(tracer)

    def test_detach(self):
        bus = Instrument()
        cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1,
                                   lock="ticket", seed=3, obs=bus))
        tracer = PacketTracer.from_bus(bus)
        tracer.detach()
        run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=1))
        assert len(tracer) == 0
        assert tracer.summary().n_packets == 0

"""Fabric-level fault injection: drops, duplicates, reorder, outages,
stalls and crashes, each against the raw fabric (no MPI layer)."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    InjectStall,
    LinkOutage,
    RankCrash,
)
from repro.network import Fabric, NetworkConfig, Packet, PacketKind, PacketTracer
from repro.obs import Instrument
from repro.sim import Simulator



def make_fabric(plan=None, n_ranks=2, ranks_per_node=1, seed=7):
    sim = Simulator(seed=seed)
    fab = Fabric(sim, NetworkConfig())
    for r in range(n_ranks):
        fab.register_rank(r, node=r // ranks_per_node)
    if plan is not None:
        fab.faults = FaultInjector(sim, plan)
    return sim, fab


def test_certain_drop_loses_delivery_but_completes_locally():
    sim, fab = make_fabric(FaultPlan(drop=1.0))
    local = []
    fab.send(Packet(PacketKind.EAGER, 0, 1, 1000),
             lambda: local.append(sim.now))
    sim.run()
    assert local, "local completion must fire even for a dropped packet"
    assert len(fab.nic(1).recv_q) == 0
    assert fab.faults.stats.drops == 1


def test_certain_duplicate_delivers_two_copies():
    plan = FaultPlan(duplicate=1.0, duplicate_gap_ns=1000.0)
    sim, fab = make_fabric(plan)
    recs = PacketTracer.from_bus(Instrument().bind_sim(sim)).records
    fab.send(Packet(PacketKind.EAGER, 0, 1, 1000))
    sim.run()
    arrivals = [r.time for r in recs]
    assert len(fab.nic(1).recv_q) == 2
    assert fab.faults.stats.duplicates == 1
    t1, t2 = sorted(arrivals)
    assert t2 - t1 == pytest.approx(plan.duplicate_gap_ns * 1e-9)


def test_reorder_adds_bounded_delay():
    sim0, fab0 = make_fabric()
    fab0.send(Packet(PacketKind.EAGER, 0, 1, 1000))
    sim0.run()
    t_base = sim0.now

    plan = FaultPlan(reorder=1.0, reorder_delay_ns=5000.0)
    sim, fab = make_fabric(plan)
    fab.send(Packet(PacketKind.EAGER, 0, 1, 1000))
    sim.run()
    assert fab.faults.stats.reorders == 1
    assert t_base < sim.now <= t_base + plan.reorder_delay_ns * 1e-9


def test_outage_window_drops_only_inside():
    outage = LinkOutage(node=0, start_s=0.0, end_s=1.0)  # blackout from t=0
    sim, fab = make_fabric(FaultPlan(outages=(outage,)))
    fab.send(Packet(PacketKind.EAGER, 0, 1, 100))
    sim.run()
    assert len(fab.nic(1).recv_q) == 0
    assert fab.faults.stats.outage_drops == 1

    later = LinkOutage(node=0, start_s=1.0, end_s=2.0)  # window in the future
    sim2, fab2 = make_fabric(FaultPlan(outages=(later,)))
    fab2.send(Packet(PacketKind.EAGER, 0, 1, 100))
    sim2.run()
    assert len(fab2.nic(1).recv_q) == 1
    assert fab2.faults.stats.outage_drops == 0


def test_inject_stall_delays_delivery():
    sim0, fab0 = make_fabric()
    fab0.send(Packet(PacketKind.EAGER, 0, 1, 1000))
    sim0.run()
    t_base = sim0.now

    stall = InjectStall(rank=0, start_s=0.0, end_s=1.0, extra_ns=10_000.0)
    sim, fab = make_fabric(FaultPlan(stalls=(stall,)))
    fab.send(Packet(PacketKind.EAGER, 0, 1, 1000))
    sim.run()
    assert fab.faults.stats.stalled_sends == 1
    assert sim.now == pytest.approx(t_base + stall.extra_ns * 1e-9)


def test_crashed_sender_blocks_and_never_completes():
    sim, fab = make_fabric(FaultPlan(crashes=(RankCrash(rank=0, at_s=0.0),)))
    finished = []
    fab.send(Packet(PacketKind.EAGER, 0, 1, 100),
             lambda: finished.append(True))  # pragma: no cover - must not run
    sim.run()
    assert not finished, "a crashed rank's send must never complete"
    assert len(fab.nic(1).recv_q) == 0
    assert fab.faults.stats.blocked_sends == 1


def test_crashed_receiver_drops_inbound():
    sim, fab = make_fabric(FaultPlan(crashes=(RankCrash(rank=1, at_s=0.0),)))
    local = []
    fab.send(Packet(PacketKind.EAGER, 0, 1, 100), lambda: local.append(True))
    sim.run()
    assert local, "the sender still completes locally"
    assert len(fab.nic(1).recv_q) == 0
    assert fab.faults.stats.crash_drops == 1


def test_random_faults_spare_the_shm_path():
    sim, fab = make_fabric(FaultPlan(drop=1.0), n_ranks=2, ranks_per_node=2)
    fab.send(Packet(PacketKind.EAGER, 0, 1, 100))  # same node
    sim.run()
    assert len(fab.nic(1).recv_q) == 1
    assert fab.faults.stats.drops == 0


def test_fault_events_on_obs_bus():
    from repro.obs import Instrument

    sim, fab = make_fabric(FaultPlan(drop=1.0))
    events = []
    bus = Instrument()
    bus.subscribe(events.append, categories=("fault",))
    sim.obs = bus
    fab.send(Packet(PacketKind.EAGER, 0, 1, 100))
    sim.run()
    assert any(ev.name == "drop" for ev in events)

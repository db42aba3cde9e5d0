"""Fabric-level fault injection: drops, duplicates and reorder, each
against the raw fabric (no MPI layer)."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.faults.inject import DUPLICATE_GAP_NS
from repro.network import Fabric, NetworkConfig, Packet, PacketKind
from repro.obs import EventKind, Recording
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
    assert len(fab.nic(1).recv_qs[0]) == 0
    assert fab.faults.stats.drops == 1


def test_certain_duplicate_delivers_two_copies():
    sim, fab = make_fabric(FaultPlan(duplicate=1.0))
    rec = Recording(categories=("net",))
    rec.bus.bind_sim(sim)
    fab.send(Packet(PacketKind.EAGER, 0, 1, 1000))
    sim.run()
    arrivals = [ev.ts for ev in rec.events if ev.kind is EventKind.ASYNC_END]
    assert len(fab.nic(1).recv_qs[0]) == 2
    assert fab.faults.stats.duplicates == 1
    t1, t2 = sorted(arrivals)
    assert t2 - t1 == pytest.approx(DUPLICATE_GAP_NS * 1e-9)


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


def test_random_faults_spare_the_shm_path():
    sim, fab = make_fabric(FaultPlan(drop=1.0), n_ranks=2, ranks_per_node=2)
    fab.send(Packet(PacketKind.EAGER, 0, 1, 100))  # same node
    sim.run()
    assert len(fab.nic(1).recv_qs[0]) == 1
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

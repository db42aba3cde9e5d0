"""Tests for the fabric model."""

from dataclasses import replace

import pytest

from repro.network import Fabric, NetworkConfig, Packet, PacketKind
from repro.obs import EventKind, Recording
from repro.sim import Simulator


def make_fabric(n_ranks=2, ranks_per_node=1, **overrides):
    sim = Simulator(seed=0)
    cfg = replace(NetworkConfig(), **overrides)
    fab = Fabric(sim, cfg)
    for r in range(n_ranks):
        fab.register_rank(r, node=r // ranks_per_node)
    return sim, fab


def recording(sim):
    """A recording of ``sim``'s ``net`` bus events."""
    rec = Recording(categories=("net",))
    rec.bus.bind_sim(sim)
    return rec


def delivered(rec):
    """The packets delivered so far: the ``net`` async-span ends."""
    return [ev for ev in rec.events if ev.kind is EventKind.ASYNC_END]


def test_register_duplicate_rank_rejected():
    sim, fab = make_fabric()
    with pytest.raises(ValueError):
        fab.register_rank(0, node=0)


def test_unknown_destination_rejected():
    sim, fab = make_fabric()
    with pytest.raises(ValueError, match="unknown destination rank 99"):
        fab.send(Packet(0, PacketKind.EAGER, 0, 99, 10))


def test_unknown_source_rejected():
    sim, fab = make_fabric()
    with pytest.raises(ValueError, match="unknown source rank 99"):
        fab.send(Packet(0, PacketKind.EAGER, 99, 1, 10))


def test_out_of_range_vci_falls_back_loudly():
    from repro.obs import Instrument

    sim, fab = make_fabric()  # single-VCI NICs
    events = []
    bus = Instrument()
    bus.subscribe(events.append, categories=("fault",))
    sim.obs = bus
    fab.send(Packet(0, PacketKind.EAGER, 0, 1, 100, vci=7))
    sim.run()
    nic = fab.nic(1)
    # Delivered (into VCI 0), but counted and warned about -- never silent.
    assert len(nic.recv_qs[0]) == 1
    assert nic.vci_fallbacks == 1
    fallback = [ev for ev in events if ev.name == "vci.fallback"]
    assert fallback and fallback[0].args["vci"] == 7


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(0, PacketKind.EAGER, 0, 1, -1)


def test_internode_delivery_time():
    sim, fab = make_fabric()
    cfg = fab.config
    pkt = Packet(0, PacketKind.EAGER, 0, 1, 1000)
    fab.send(pkt)
    sim.run()
    expected = (
        cfg.inject_ns * 1e-9
        + (1000 + cfg.header_bytes) / (cfg.bandwidth_gbps * 1e9)
        + cfg.latency_ns * 1e-9
    )
    assert sim.now == pytest.approx(expected, rel=1e-9)
    assert list(fab.nic(1).recv_qs[0]) == [pkt]


def test_intranode_uses_shm_path_and_is_faster():
    sim, fab = make_fabric(n_ranks=4, ranks_per_node=2)
    fab.send(Packet(0, PacketKind.EAGER, 0, 1, 4096))  # same node
    sim.run()
    t_shm = sim.now
    sim2, fab2 = make_fabric(n_ranks=4, ranks_per_node=2)
    fab2.send(Packet(0, PacketKind.EAGER, 0, 2, 4096))  # cross node
    sim2.run()
    assert t_shm < sim2.now


def test_local_completion_before_delivery():
    sim, fab = make_fabric()
    times = {}
    rec = recording(sim)
    fab.send(Packet(0, PacketKind.EAGER, 0, 1, 10_000),
             lambda: times.setdefault("local", sim.now))
    sim.run()
    times["deliver"] = delivered(rec)[0].ts
    assert times["local"] < times["deliver"]
    # They differ by exactly the propagation latency.
    assert times["deliver"] - times["local"] == pytest.approx(
        fab.config.latency_ns * 1e-9
    )


def test_send_without_done_queues_only_the_delivery():
    sim, fab = make_fabric()
    fab.send(Packet(0, PacketKind.EAGER, 0, 1, 10_000))
    assert sim.queued_events == 1
    fab.send(Packet(1, PacketKind.EAGER, 0, 1, 10_000), lambda: None)
    assert sim.queued_events == 3


def test_uplink_serializes_concurrent_messages():
    """Two big messages from one node pipeline: second arrives one
    transfer-time later, not concurrently."""
    sim, fab = make_fabric(n_ranks=3, ranks_per_node=1)
    # Rank 0 sends to ranks 1 and 2 at the same instant.
    rec = recording(sim)
    nbytes = 1_000_000
    fab.send(Packet(0, PacketKind.EAGER, 0, 1, nbytes))
    fab.send(Packet(1, PacketKind.EAGER, 0, 2, nbytes))
    sim.run()
    arrivals = [(ev.args["dst"], ev.ts) for ev in delivered(rec)]
    (d1, t1), (d2, t2) = sorted(arrivals, key=lambda x: x[1])
    xfer = (nbytes + fab.config.header_bytes) / (fab.config.bandwidth_gbps * 1e9)
    assert t2 - t1 == pytest.approx(xfer, rel=1e-6)


def test_sends_from_different_nodes_do_not_serialize():
    sim, fab = make_fabric(n_ranks=3, ranks_per_node=1)
    rec = recording(sim)
    nbytes = 1_000_000
    fab.send(Packet(0, PacketKind.EAGER, 0, 2, nbytes))
    fab.send(Packet(1, PacketKind.EAGER, 1, 2, nbytes))
    sim.run()
    arrivals = [ev.ts for ev in delivered(rec)]
    assert arrivals[0] == pytest.approx(arrivals[1])


def test_fifo_ordering_per_pair():
    """Messages between a rank pair arrive in send order (MPI
    non-overtaking requirement)."""
    sim, fab = make_fabric()
    sizes = [100, 5000, 1, 20_000, 64]
    for i, s in enumerate(sizes):
        fab.send(Packet(i, PacketKind.EAGER, 0, 1, s, payload=i))
    sim.run()
    got = [pkt.payload for pkt in fab.nic(1).recv_qs[0]]
    assert got == list(range(len(sizes)))


def test_control_packets_flagged():
    assert Packet(0, PacketKind.RTS, 0, 1, 0).is_control
    assert not Packet(1, PacketKind.EAGER, 0, 1, 10).is_control


def test_counters_update():
    sim, fab = make_fabric()
    fab.send(Packet(0, PacketKind.EAGER, 0, 1, 500))
    sim.run()
    assert fab.nic(0).sent_packets == 1
    assert fab.nic(0).sent_bytes == 500 + fab.config.header_bytes
    assert fab.nic(1).recv_packets == 1


def test_bandwidth_scaling_with_size():
    def arrival(nbytes):
        sim, fab = make_fabric()
        fab.send(Packet(0, PacketKind.EAGER, 0, 1, nbytes))
        sim.run()
        return sim.now

    t_small, t_big = arrival(1000), arrival(1_001_000)
    assert t_big - t_small == pytest.approx(
        1_000_000 / (NetworkConfig().bandwidth_gbps * 1e9), rel=1e-6
    )

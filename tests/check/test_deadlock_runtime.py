"""deadcheck's runtime half: the waits-for graph finds real ABBA
deadlocks through both failure paths (idle-with-live-threads and the
watchdog early warning), the order witness records grant-time edges,
and the observed edges on a registered experiment match the static
order graph exactly."""

import pytest

from repro.check.deadcheck import classify_witness, run_deadcheck
from repro.check.sanitize import (
    DeadlockDetector,
    OrderWitness,
    WaitsForGraph,
    run_order_witness,
)
from repro.faults import FaultPlan, ProgressStallError
from repro.locks import TicketLock
from repro.machine import CostModel
from repro.mpi import Cluster, ClusterConfig
from repro.obs import Instrument
from repro.sim.engine import SimulationError
from repro.sim.sync import Signal

from ..conftest import make_threads


def _abba(sim, lock_a, lock_b, ctx1, ctx2, hold=1e-6):
    """Two processes taking the same lock pair in opposite orders."""

    def one(ctx):  # simcheck: disable=lock-pairing  # deadlocks by design
        yield from lock_a.acquire(ctx)
        yield sim.timeout(hold)
        yield from lock_b.acquire(ctx)  # pragma: no cover - deadlocks

    def two(ctx):  # simcheck: disable=lock-pairing  # deadlocks by design
        yield from lock_b.acquire(ctx)
        yield sim.timeout(hold)
        yield from lock_a.acquire(ctx)  # pragma: no cover - deadlocks

    return [one(ctx1), two(ctx2)]


# ----------------------------------------------------------------------
# WaitsForGraph
# ----------------------------------------------------------------------
def test_waits_for_graph_reports_abba_cycle(sim, machine, costs):
    lock_a = TicketLock(sim, costs, name="A")
    lock_b = TicketLock(sim, costs, name="B")
    t1, t2 = make_threads(machine, 2)
    procs = [
        sim.process(g, name=f"w{i}")
        for i, g in enumerate(_abba(sim, lock_a, lock_b, t1, t2))
    ]
    sim.run()  # heap runs dry with both processes still live
    assert all(p.is_alive for p in procs)

    g = WaitsForGraph()
    g.add_lock(lock_a)
    g.add_lock(lock_b)
    cycles = g.cycles()
    assert len(cycles) == 1
    desc = g.describe(cycles[0])
    # The walk visits every member and closes: 2 locks + 2 threads.
    assert desc.count("->") == 4
    for label in ("A", "B", "t0", "t1"):
        assert label in desc


def test_waits_for_graph_no_cycle_without_hold_and_wait(sim, machine, costs):
    lock_a = TicketLock(sim, costs, name="A")
    t1, t2 = make_threads(machine, 2)

    def worker(ctx):
        yield from lock_a.acquire(ctx)
        yield sim.timeout(1e-6)
        lock_a.release(ctx)

    sim.process(worker(t1))
    sim.process(worker(t2))
    sim.run(until=5e-7)  # mid-flight: one owner, one waiter
    g = WaitsForGraph()
    g.add_lock(lock_a)
    assert g.cycles() == []


def test_condition_waiters_show_in_graph(sim, machine):
    activity = Signal(sim, name="activity@rank0")
    (ctx,) = make_threads(machine, 1)

    def parked():
        yield activity.wait(ctx)  # pragma: no cover - never fires

    sim.process(parked())
    sim.run()
    assert activity.waiters == (ctx,)
    g = WaitsForGraph()
    g.add_condition(activity)
    # A parked thread appears (for stall dumps) but conditions have no
    # outgoing edges, so they never fabricate a cycle.
    assert g.cycles() == []
    assert any(kind == "cond" for kind, _ in g._adj)


# ----------------------------------------------------------------------
# DeadlockDetector through the cluster failure paths
# ----------------------------------------------------------------------
def _abba_cluster(**cfg):
    bus = Instrument()
    events = []
    bus.subscribe(events.append, categories=("check",))
    cl = Cluster(ClusterConfig(
        n_nodes=1, threads_per_rank=2, lock="ticket", seed=5, obs=bus,
        **cfg,
    ))
    det = DeadlockDetector(cl).attach()
    costs = CostModel()
    lock_a = TicketLock(cl.sim, costs, name="A")
    lock_b = TicketLock(cl.sim, costs, name="B")
    work = _abba(
        cl.sim, lock_a, lock_b, cl.thread(0, 0).ctx, cl.thread(0, 1).ctx,
    )
    return cl, det, work, events


def test_idle_stall_path_detects_abba_cycle():
    cl, det, work, events = _abba_cluster()
    assert cl.watchdog is None  # this cluster fails via the idle path
    with pytest.raises(SimulationError):
        cl.run_workload(work)
    assert det.checks == 1
    assert len(det.cycles) == 1
    assert "A" in det.cycles[0] and "B" in det.cycles[0]
    dumped = [ev for ev in events if ev.name == "deadlock.cycle"]
    assert len(dumped) == 1
    assert dumped[0].args["reason"] == "idle-with-live-threads"
    assert dumped[0].args["cycle"] == det.cycles[0]


def test_watchdog_warning_path_detects_abba_cycle():
    # reorder alone never perturbs a no-traffic run, but it makes the
    # plan active so the watchdog is installed.
    cl, det, work, events = _abba_cluster(
        faults=FaultPlan(reorder=1.0, watchdog_interval_ns=20_000.0,
                         watchdog_grace=3),
    )
    assert cl.watchdog is not None

    def ticker():
        # Keeps the event heap alive so the watchdog keeps sampling the
        # frozen progress metric instead of seeing an empty queue.
        while True:
            yield cl.sim.timeout(1e-5)

    cl.spawn(ticker(), name="ticker")
    with pytest.raises(ProgressStallError) as exc_info:
        cl.run_workload(work)
    # The early warning (half the grace period) ran the check before
    # the abort, and the stall dump carries the cycle.
    assert det.checks >= 1
    assert len(det.cycles) == 1
    assert exc_info.value.diagnostics["waits_for_cycles"] == det.cycles
    reasons = {
        ev.args["reason"] for ev in events if ev.name == "deadlock.cycle"
    }
    assert "watchdog-warning" in reasons


def test_healthy_run_records_no_cycles():
    bus = Instrument()
    cl = Cluster(ClusterConfig(
        n_nodes=2, threads_per_rank=1, lock="ticket", seed=6, obs=bus,
    ))
    det = DeadlockDetector(cl).attach()

    def sender(th):
        yield from th.send(1, 256, tag=0)

    def recver(th):
        yield from th.recv(source=0, nbytes=256, tag=0)

    cl.run_workload([sender(cl.thread(0, 0)), recver(cl.thread(1, 0))])
    assert det.cycles == []
    assert det.checks == 0  # no failure path ever fired


# ----------------------------------------------------------------------
# OrderWitness
# ----------------------------------------------------------------------
def test_order_witness_records_nested_grant_edges(sim, machine, costs):
    bus = Instrument()
    witness = OrderWitness().attach(bus)
    sim.obs = bus
    outer = TicketLock(sim, costs, name="outer@rank0")
    inner = TicketLock(sim, costs, name="inner@rank0")
    (ctx,) = make_threads(machine, 1)

    def nested():
        yield from outer.acquire(ctx)
        yield from inner.acquire(ctx)
        inner.release(ctx)
        outer.release(ctx)
        # Reverse nesting is a distinct edge.
        yield from inner.acquire(ctx)
        yield from outer.acquire(ctx)
        outer.release(ctx)
        inner.release(ctx)

    sim.process(nested())
    sim.run()
    # Rank decorations are stripped to the witness family.
    assert witness.edges == {
        ("outer", "inner"): 1,
        ("inner", "outer"): 1,
    }
    assert witness.names[("outer", "inner")] == ("outer@rank0", "inner@rank0")


def test_order_witness_ignores_unheld_grants(sim, machine, costs):
    bus = Instrument()
    witness = OrderWitness().attach(bus)
    sim.obs = bus
    lock = TicketLock(sim, costs, name="solo")
    (ctx,) = make_threads(machine, 1)

    def plain():
        yield from lock.acquire(ctx)
        lock.release(ctx)

    sim.process(plain())
    sim.run()
    assert witness.edges == {}


# ----------------------------------------------------------------------
# The acceptance gate: fig_vci shows no edge the static graph lacks
# ----------------------------------------------------------------------
def test_fig_vci_witness_confirms_static_edges_no_runtime_only():
    import repro

    witness, result = run_order_witness("fig_vci", quick=True, seed=0)
    assert result.ok, result.failed_checks()
    static = run_deadcheck([str(next(iter(repro.__path__)))])
    gaps = classify_witness(static, witness.edges)
    assert gaps == [], [f.message for f in gaps]
    assert static.runtime_only == []

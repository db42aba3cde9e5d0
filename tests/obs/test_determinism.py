"""Tracing must not perturb the simulation.

The bus only *reads* the simulated clock -- it never schedules events,
yields, or consumes random numbers -- so a run with a bus attached must
be bit-identical (simulated clock and results) to the same run without
one.  These tests pin that invariant, plus the books of the lock
profiler built as a bus adapter (LockTrace) and of the ``net`` delivery
events.
"""

import pytest

from repro.experiments import run_experiment
from repro.locks.stats import LockTrace
from repro.obs import EventKind, Instrument, Recording
from repro.workloads import ThroughputConfig, run_throughput, throughput_cluster


def _run(tpn, obs=None, **overrides):
    """One fig2a-size cell: mutex throughput at `tpn` threads/rank."""
    cl = throughput_cluster(lock="mutex", threads_per_rank=tpn, seed=7,
                            obs=obs, **overrides)
    res = run_throughput(cl, ThroughputConfig(msg_size=64, n_windows=3))
    return cl, res


@pytest.mark.parametrize("tpn", [2, 4])
def test_bus_does_not_perturb_simulated_time(tpn):
    cl_plain, res_plain = _run(tpn)
    rec = Recording()  # full default trace: lock, mpi, net, meta
    cl_traced, res_traced = _run(tpn, obs=rec.bus)

    assert len(rec.events) > 0, "bus attached but nothing recorded"
    # Bit-identical, not approximately equal.
    assert cl_traced.sim.now == cl_plain.sim.now
    assert res_traced.elapsed_s == res_plain.elapsed_s
    assert res_traced.msg_rate_k == res_plain.msg_rate_k
    assert res_traced.total_messages == res_plain.total_messages
    assert res_traced.dangling == res_plain.dangling


def test_experiment_rows_identical_with_and_without_bus():
    # fig3a reads its bias traces off a bus: a private lock-only one by
    # default, the caller's when given.  Neither may move its rows.
    for exp in ("fig2b", "fig3a"):
        plain = run_experiment(exp, quick=True, seed=5)
        rec = Recording(max_events=100_000)
        traced = run_experiment(exp, quick=True, seed=5, obs=rec.bus)
        assert traced.rows == plain.rows, exp
        assert traced.checks == plain.checks, exp
        assert traced.data["obs"]["total"] == len(rec.events) + rec.log.dropped


def test_locktrace_adapter_records_every_cs_entry():
    bus = Instrument()
    trace = LockTrace.from_bus(bus, lock_name="mutex@rank1")
    cl, _ = _run(2, obs=bus)
    s = cl.runtimes[1].stats
    assert len(trace) == s.cs_entries_main + s.cs_entries_progress > 0
    assert len(trace.hold_times) == len(trace)
    a = trace.as_arrays()
    assert (a["times"][1:] >= a["times"][:-1]).all()
    assert (a["n_contenders"] >= 1).all()
    assert (a["n_contenders_prev_socket"] <= a["n_contenders"]).all()


def test_net_events_record_every_delivery():
    rec = Recording(categories=("net",))
    cl, _ = _run(2, obs=rec.bus)
    nics = [rt.nic for rt in cl.runtimes]
    ends = [ev for ev in rec.events if ev.kind is EventKind.ASYNC_END]
    assert len(ends) == sum(n.recv_packets for n in nics) > 0
    sent = {}
    for ev in ends:
        sent[ev.args["src"]] = sent.get(ev.args["src"], 0) + 1
    assert sent == {n.rank: n.sent_packets for n in nics if n.sent_packets}

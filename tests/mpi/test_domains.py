"""Arbitration domains: routing policies, wildcard spanning, and
per-domain dangling-request accounting."""

import pytest

from repro.locks.ticket import TicketLock
from repro.mpi import Cluster, ClusterConfig
from repro.mpi.envelope import ANY_SOURCE, ANY_TAG, Envelope
from repro.mpi.vci import CsGranularity, CsPolicy, parse_cs_policy
from repro.obs import EventKind, Instrument
from repro.workloads.n2n import N2NConfig, run_n2n


# ----------------------------------------------------------------------
# CsGranularity (the single registry replacing duplicated string checks)
# ----------------------------------------------------------------------
def test_granularity_parse():
    assert CsGranularity.parse("global") is CsGranularity.GLOBAL
    assert CsGranularity.parse("brief") is CsGranularity.BRIEF
    assert CsGranularity.parse(CsGranularity.BRIEF) is CsGranularity.BRIEF


def test_granularity_parse_rejects_unknown():
    with pytest.raises(ValueError, match="cs_granularity"):
        CsGranularity.parse("fine")


# ----------------------------------------------------------------------
# Policy parsing and routing
# ----------------------------------------------------------------------
def test_parse_policy_specs():
    assert parse_cs_policy("global") == CsPolicy()
    assert parse_cs_policy("per-vci:4") == CsPolicy(kind="per-vci", n_domains=4)
    assert parse_cs_policy("per-vci") == CsPolicy(kind="per-vci", n_domains=4)


def test_parse_policy_roundtrip():
    for spec in ("global", "per-vci:4", "per-vci:2"):
        assert parse_cs_policy(spec).spec() == spec


def test_parse_policy_rejects_garbage():
    with pytest.raises(ValueError, match="valid policies"):
        parse_cs_policy("per-rainbow:4")
    with pytest.raises(ValueError, match="domain count"):
        parse_cs_policy("per-vci:many")
    with pytest.raises(ValueError, match="'global:4'.*valid policies"):
        parse_cs_policy("global:4")
    with pytest.raises(ValueError):
        CsPolicy(kind="per-vci", n_domains=0)
    with pytest.raises(ValueError):
        CsPolicy(kind="global", n_domains=2)


@pytest.mark.parametrize("spec", ["per-peer", "per-tag:8", "per-vci:4:ticket"])
def test_removed_policy_specs_rejected(spec):
    with pytest.raises(ValueError, match="valid policies: global, per-vci"):
        parse_cs_policy(spec)


def test_routing_is_deterministic_and_in_range():
    pol = CsPolicy(kind="per-vci", n_domains=4)
    for peer in range(6):
        for tag in range(6):
            r = pol.route(peer, tag)
            assert 0 <= r < 4
            assert r == pol.route(peer, tag)


def test_global_policy_routes_everything_to_zero():
    pol = CsPolicy()
    assert pol.route(17, 93, 5) == 0
    assert pol.route_recv(Envelope(source=ANY_SOURCE, tag=ANY_TAG)) == 0


def test_wildcards_unroutable_only_in_hashed_fields():
    # per-vci hashes both the source and the tag; global hashes nothing.
    per_vci = CsPolicy(kind="per-vci", n_domains=4)
    assert per_vci.route_recv(Envelope(source=ANY_SOURCE, tag=3)) is None
    assert per_vci.route_recv(Envelope(source=2, tag=ANY_TAG)) is None
    assert per_vci.route_recv(Envelope(source=2, tag=3)) == per_vci.route(2, 3)
    assert CsPolicy().route_recv(Envelope(source=ANY_SOURCE, tag=3)) == 0


def test_sender_and_receiver_agree_on_route():
    pol = CsPolicy(kind="per-vci", n_domains=4)
    # The sender stamps route_msg(envelope); the receiver routes its
    # matching receive by (source, tag, comm) -- same domain.
    env = Envelope(source=3, tag=7, comm=1)
    assert pol.route_msg(env) == pol.route_recv(env)


def test_cluster_rejects_bad_policy_and_bad_policy_lock():
    with pytest.raises(ValueError, match="valid policies"):
        ClusterConfig(cs="per-rainbow")
    # Domain locks take the cluster's lock class; a spec names no lock.
    with pytest.raises(ValueError, match="valid policies"):
        ClusterConfig(cs="per-vci:4:rainbow")


# ----------------------------------------------------------------------
# End-to-end traffic over sharded domains
# ----------------------------------------------------------------------
def _exchange(cluster, n_msgs=6, nbytes=256, wildcard=False):
    def sender(th):
        for i in range(n_msgs):
            yield from th.send(1, nbytes, tag=i)

    def recver(th):
        for i in range(n_msgs):
            if wildcard:
                yield from th.recv(source=ANY_SOURCE, nbytes=nbytes, tag=ANY_TAG)
            else:
                yield from th.recv(source=0, nbytes=nbytes, tag=i)

    cluster.run_workload([
        sender(cluster.thread(0, 0)), recver(cluster.thread(1, 0)),
    ])


@pytest.mark.parametrize("cs", ["per-vci:4"])
def test_sharded_exchange_completes(cs):
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1, lock="ticket",
                               cs=cs, seed=0))
    _exchange(cl)
    rt = cl.runtimes[1]
    assert rt.stats.completed == rt.stats.freed
    assert rt.dangling_count == 0
    assert all(len(d.posted_q) == 0 for d in rt.domains)
    # Every domain lock is of the cluster's class, under its own name
    # (lock names key RNG streams).
    assert all(isinstance(d.lock, TicketLock) for d in rt.domains)
    names = [d.lock.name for d in rt.domains]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("nbytes", [256, 100_000])  # eager and rendezvous
def test_wildcard_recv_spans_domains(nbytes):
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=1, cs="per-vci:4",
                               seed=0))
    _exchange(cl, nbytes=nbytes, wildcard=True)
    rt = cl.runtimes[1]
    assert rt.stats.recvs_issued == 6
    assert rt.stats.completed == rt.stats.freed
    # No stale wildcard postings left in any domain.
    assert all(len(d.posted_q) == 0 for d in rt.domains)


def test_messages_spread_across_domains():
    bus = Instrument()
    events = []
    bus.subscribe(events.append, categories=("mpi",))
    cl = Cluster(ClusterConfig(n_nodes=2, threads_per_rank=4, cs="per-vci:4",
                               seed=0, obs=bus))
    run_n2n(cl, N2NConfig(msg_size=512, window=2, n_windows=1, style="rounds"))
    # Every CS span of a sharded rank names the domain it entered.
    entered = {
        ev.args["args"]["vci"] for ev in events
        if ev.kind is EventKind.SPAN_BEGIN and ev.name == "cs.main"
        and ev.rank == 0
    }
    assert len(entered) > 1, "per-vci routing left all traffic in one domain"


# ----------------------------------------------------------------------
# Dangling accounting across domains: the per-domain counts are derived
# from the live requests and must add up to the rank's count.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("gran", ["global", "brief"])
@pytest.mark.parametrize("cs", ["global", "per-vci:4"])
def test_dangling_sums_across_domains(gran, cs):
    cl = Cluster(ClusterConfig(
        n_nodes=2, threads_per_rank=4, cs=cs, cs_granularity=gran, seed=2,
    ))
    samples = []

    def sample():
        for rt in cl.runtimes:
            per_domain = rt.dangling_by_domain()
            n = rt.stats.completed - rt.stats.freed
            assert rt.dangling_count == n
            assert sum(per_domain) == n
            samples.append(n)
        if not cl._shutdown:
            cl.sim.call_after(1e-6, sample)

    cl.sim.call_after(1e-6, sample)
    run_n2n(cl, N2NConfig(msg_size=2048, window=2, n_windows=4,
                          style="rounds"))
    assert max(samples) > 0, "no sample saw a dangling request"
    for rt in cl.runtimes:
        # Everything drained: dangling is zero rank-wide and per domain.
        assert rt.stats.completed == rt.stats.freed
        assert rt.dangling_count == 0
        assert rt.dangling_by_domain() == [0] * rt.n_domains
        assert rt.peak_dangling >= 1

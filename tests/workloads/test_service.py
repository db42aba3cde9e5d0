"""The open-loop RPC service: arrivals, accounting, overload behavior,
and the deterministic-replay contract for the ``"service:<rank>"`` RNG
stream (same seed => identical fingerprint)."""

import pytest

from repro.robust import RetryPolicy, RobustConfig
from repro.sim import Simulator
from repro.workloads import (
    ServiceConfig,
    arrival_times,
    run_service,
    service_cluster,
)

#: Small-but-real traffic: ~80 arrivals over 2ms against a 2-thread
#: server with 100k req/s capacity (20us service time).
QUICK = dict(rate_hz=40_000.0, duration_s=0.002)


def run(cfg=None, robust=None, *, seed=3, lock="priority", threads=2, **kw):
    cl = service_cluster(lock=lock, threads_per_rank=threads, seed=seed, **kw)
    return cl, run_service(cl, cfg or ServiceConfig(**QUICK), robust)


# ----------------------------------------------------------------------
# Arrival generation
# ----------------------------------------------------------------------
def _rng(seed=5):
    return Simulator(seed=seed).rng.stream("service:0")


# Arrivals are Poisson; the "poisson" id keeps these tests' established
# names.
@pytest.mark.parametrize("shape", ["poisson"])
def test_arrivals_sorted_within_horizon_near_mean_rate(shape):
    times = arrival_times(_rng(), 50_000.0, 0.02)
    assert times == sorted(times)
    assert all(0.0 < t < 0.02 for t in times)
    # 1000 expected.
    assert 800 <= len(times) <= 1200


@pytest.mark.parametrize("shape", ["poisson"])
def test_arrivals_replay_identically_from_the_stream(shape):
    a = arrival_times(_rng(), 50_000.0, 0.01)
    b = arrival_times(_rng(), 50_000.0, 0.01)
    assert a == b
    c = arrival_times(_rng(seed=6), 50_000.0, 0.01)
    assert a != c


# ----------------------------------------------------------------------
# ServiceConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kw", [
    dict(rate_hz=0.0),
    dict(duration_s=-1.0),
    dict(rate_hz=-50_000.0),
    dict(duration_s=0.0),
    dict(reply_bytes=0),
    dict(req_bytes=-1),
    dict(slo_ns=-1.0),
    dict(req_bytes=0),
    dict(service_ns=-1.0),
    dict(slo_ns=0.0),
])
def test_config_validation(kw):
    with pytest.raises(ValueError):
        ServiceConfig(**kw)


def test_removed_arrival_shape_rejected():
    with pytest.raises(TypeError, match="unexpected keyword argument 'shape'"):
        ServiceConfig(shape="bursty")


def test_odd_rank_count_rejected():
    from repro.mpi import Cluster, ClusterConfig
    bad = Cluster(ClusterConfig(n_nodes=3, ranks_per_node=1,
                                threads_per_rank=1, lock="mutex", seed=0))
    with pytest.raises(ValueError, match="even rank count"):
        run_service(bad, ServiceConfig(**QUICK))


# ----------------------------------------------------------------------
# Clean-fabric runs
# ----------------------------------------------------------------------
def test_clean_run_every_request_succeeds():
    _, res = run()
    assert res.offered > 0
    assert res.ok == res.offered
    assert res.shed == res.expired == res.failed == 0
    assert res.retries == res.dedup_hits == 0
    assert res.goodput_rps == pytest.approx(res.ok_within_slo / 0.002)
    assert 0.0 < res.p50_us <= res.p99_us <= res.p999_us


def test_all_requests_freed_at_end():
    cl, _ = run(threads=4)
    for rt in cl.runtimes:
        assert rt.dangling_count == 0
        assert rt.stats.completed == rt.stats.freed


def test_latency_percentiles_are_ordered_and_plausible():
    _, res = run()
    # A request costs >= its 20us service time end to end.
    assert res.p50_us >= 20.0
    assert res.p999_us < 1e4  # uncongested: nowhere near 10ms


def test_multiple_client_server_pairs():
    cfg = ServiceConfig(rate_hz=30_000.0, duration_s=0.001)
    cl = service_cluster(lock="priority", threads_per_rank=2, pairs=2, seed=3)
    res = run_service(cl, cfg)
    assert cl.n_ranks == 4
    assert res.ok == res.offered > 0


# ----------------------------------------------------------------------
# Protection mechanisms end to end
# ----------------------------------------------------------------------
def test_overload_unprotected_misses_slo_protected_sheds():
    over = ServiceConfig(rate_hz=150_000.0, duration_s=0.002)
    _, naked = run(over)
    # Open loop past capacity: everything is served, hopelessly late.
    assert naked.ok == naked.offered
    assert naked.shed == 0
    assert naked.ok_within_slo < 0.5 * naked.offered
    _, prot = run(over, RobustConfig.protected(deadline_ns=250_000.0))
    assert prot.shed > 0
    # Deadline-aware admission: whatever is served meets its deadline,
    # so protected goodput beats the collapse.
    assert prot.goodput_rps > naked.goodput_rps
    assert prot.peak_backlog <= naked.peak_backlog


def test_deadline_expiry_without_admission_control():
    # Client-side-only protection: server serves everything, the
    # client's timers expire whatever comes back too late.
    over = ServiceConfig(rate_hz=150_000.0, duration_s=0.002)
    _, res = run(over, RobustConfig(deadline_ns=100_000.0))
    assert res.expired > 0
    assert res.shed == 0
    assert res.ok + res.expired == res.offered


def test_lossy_fabric_recovers_via_retries_and_dedup():
    cfg = ServiceConfig(rate_hz=30_000.0, duration_s=0.002)
    _, res = run(
        cfg,
        RobustConfig(deadline_ns=500_000.0, retry=RetryPolicy(
            rto_ns=150_000.0, max_attempts=4,
        )),
        faults="drop=0.05", reliability=False,
    )
    assert res.retries > 0
    assert res.ok >= 0.9 * res.offered


def test_retry_budget_denies_when_exhausted():
    # Half of all internode packets lost, no transport reliability,
    # and a tiny non-refilling budget: early losses drain the bucket
    # and every later retry is denied.  A request either succeeds or
    # expires at its deadline.
    cfg = ServiceConfig(rate_hz=30_000.0, duration_s=0.001,
                        slo_ns=400_000.0)
    _, res = run(
        cfg,
        RobustConfig(deadline_ns=400_000.0, retry=RetryPolicy(
            rto_ns=100_000.0, max_attempts=3, budget_cap=2,
            budget_refill=0.0,
        )),
        faults="drop=0.5,watchdog_interval_ns=0",
        reliability=False,
    )
    assert res.retries == 2  # exactly the budget
    assert res.retries_denied > 0
    assert res.ok + res.expired == res.offered


# ----------------------------------------------------------------------
# Determinism / replay (the "service:<rank>" stream contract)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", ["poisson"])
def test_replay_bit_identical_per_shape(shape):
    cfg = ServiceConfig(rate_hz=40_000.0, duration_s=0.002)
    _, a = run(cfg, RobustConfig.protected(deadline_ns=250_000.0))
    _, b = run(cfg, RobustConfig.protected(deadline_ns=250_000.0))
    assert a == b
    assert a.fingerprint == b.fingerprint


def test_different_seeds_differ():
    _, a = run(seed=3)
    _, b = run(seed=4)
    assert a.fingerprint != b.fingerprint


def test_disabled_robustness_is_bit_identical_to_absent():
    _, absent = run(robust=None)
    _, disabled = run(robust=RobustConfig.none())
    assert absent == disabled
    assert absent.fingerprint == disabled.fingerprint


def test_service_cluster_defaults_to_event_completion():
    assert service_cluster().config.completion == "event"
    assert service_cluster(completion="poll").config.completion == "poll"

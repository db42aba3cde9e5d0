"""Open-loop RPC service workload (DESIGN.md section 12).

The paper's microbenchmarks are **closed-loop**: a fixed team of threads
issues the next operation only when the previous one finishes, so
offered load self-throttles to capacity and overload is unobservable.
This workload is **open-loop**: arrivals come from a seeded Poisson
generator (a stand-in for external user traffic) at a configured rate
that does *not* slow down when the service does.  That is the regime
where the runtime-contention collapse the paper measures actually
hurts, and the regime the :mod:`repro.robust` remedies (deadlines,
retry budgets, admission control) are built for.

Topology: the cluster's ranks split into client / server halves, rank
``c`` paired with rank ``P + c``.  Per client rank:

* ``threads_per_rank`` **workers** issue requests open-loop (each owns
  an interleaved slice of the arrival schedule), never blocking on
  replies: each request is an ``isend`` + posted reply ``irecv`` whose
  completion is observed via an attached continuation.
* one **reaper** thread is the rank's completion engine: it drains the
  client NIC (a chained ``nic.on_packet`` hook fires its wake signal),
  runs every action that needs generator context -- deadline expiry
  (:meth:`~repro.mpi.runtime.MpiRuntime.cancel`), retries, request
  frees -- and keeps timer/continuation callbacks down to
  bookkeeping plus a ``Signal.fire`` (the ``continuation-discipline``
  rule).

Server threads loop ``recv -> dedup -> admission -> compute -> reply``.
Retried attempts are deduplicated by request id through a
replay cache (the reliability layer's CTS-replay pattern): a duplicate
re-sends the cached reply instead of recomputing.  Termination is a
lossy-safe stop handshake: client worker 0 sends per-server-thread stop
messages and re-sends until acked.

Determinism: all randomness comes from the per-client-rank RNG stream
``"service:<rank>"``; retries, deadlines, and shedding are
deterministic functions of the simulated clock.  A run's
:attr:`ServiceResult.fingerprint` hashes arrival times, the issue
(retry) schedule, shed decisions, and outcomes -- the replay
tests pin it across repeated runs, and ``RobustConfig.none()`` runs are
bit-identical to runs that never pass a config at all.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..machine import BINDINGS, ThreadCtx
from ..mpi.world import Cluster, ClusterConfig
from ..mpi.runtime import MpiThread
from .. import robust as _robust
from ..robust import RobustConfig, admits, retry_rto
from ..sim.sync import CompletionLatch, Signal, SimBarrier

__all__ = [
    "ServiceConfig",
    "ServiceResult",
    "arrival_times",
    "run_service",
    "service_cluster",
]

#: Tag of the request/stop channel (replies use tag = req_id).
_REQ_TAG = 1
#: Stop-ack tags: ``_STOP_ACK_BASE + server_thread_index``.
_STOP_ACK_BASE = 100
#: First request id (clear of the control tags above).
_REQ_ID_BASE = 1000
_STOP_BYTES = 64
_ACK_BYTES = 16
_STOP_MAX_TRIES = 8
_STOP_RTO_S = 300e-6
_STOP_POLL_S = 20e-6
#: Server reply-send reap batch (one waitall frees the whole batch).
_REAP_BATCH = 32
_EPS = 1e-12


# ======================================================================
# Configuration and result
# ======================================================================
@dataclass(frozen=True)
class ServiceConfig:
    """Offered load and per-request costs for one service run."""

    #: Offered arrival rate per client rank (requests/s).
    rate_hz: float = 50_000.0
    #: Open-loop generation horizon (simulated seconds).
    duration_s: float = 0.01
    req_bytes: int = 512
    reply_bytes: int = 256
    #: Server compute per admitted request (ns).
    service_ns: float = 20_000.0
    #: End-to-end latency objective (ns from *arrival*).
    slo_ns: float = 250_000.0

    def __post_init__(self) -> None:
        if self.rate_hz <= 0.0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.duration_s <= 0.0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s}")
        if self.req_bytes <= 0 or self.reply_bytes <= 0:
            raise ValueError("req_bytes and reply_bytes must be positive")
        if self.service_ns < 0.0:
            raise ValueError(f"service_ns must be >= 0, got {self.service_ns}")
        if self.slo_ns <= 0.0:
            raise ValueError(f"slo_ns must be positive, got {self.slo_ns}")


@dataclass(frozen=True)
class ServiceResult:
    """Aggregate outcome of one service run (all client ranks)."""

    offered: int
    ok: int
    ok_within_slo: int
    shed: int
    expired: int
    failed: int
    slo_violations: int
    retries: int
    retries_denied: int
    dedup_hits: int
    #: Successful replies *within SLO* per second of offered horizon.
    goodput_rps: float
    p50_us: float
    p99_us: float
    p999_us: float
    peak_backlog: int
    elapsed_s: float
    #: blake2b over arrivals, issue schedule, shed decisions, outcomes.
    fingerprint: str


# ======================================================================
# Arrival generation
# ======================================================================
def arrival_times(rng, rate_hz: float, duration_s: float) -> List[float]:
    """Generate one rank's Poisson arrival schedule on ``[0, duration_s)``.

    Exponential gaps at ``rate_hz``, drawn one at a time from the
    caller's RNG stream, so the schedule is a pure function of
    (stream, rate, horizon) -- the replay contract for the
    ``"service:<rank>"`` stream.
    """
    out: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate_hz)
        if t >= duration_s:
            break
        out.append(t)
    return out


# ======================================================================
# Wire payloads
# ======================================================================
class _SvcRequest:
    __slots__ = ("req_id", "client", "deadline_s", "service_s", "reply_bytes")

    def __init__(self, req_id, client, deadline_s, service_s, reply_bytes):
        self.req_id = req_id
        self.client = client
        #: Absolute deadline (propagated; None = no deadline).
        self.deadline_s = deadline_s
        self.service_s = service_s
        self.reply_bytes = reply_bytes


class _SvcReply:
    __slots__ = ("req_id", "ok", "t_served")

    def __init__(self, req_id, ok, t_served):
        self.req_id = req_id
        #: False = shed (fail-fast rejection).
        self.ok = ok
        self.t_served = t_served


class _SvcStop:
    __slots__ = ("stop_id",)

    def __init__(self, stop_id):
        #: (client_rank, server_thread_index) -- dedup key for re-sends.
        self.stop_id = stop_id


# ======================================================================
# Per-request record and per-rank state
# ======================================================================
class _Rec:
    """One open-loop request on the client side."""

    __slots__ = ("req_id", "worker", "t_arrival", "deadline_s", "attempts",
                 "n_retries", "no_retry", "done", "outcome",
                 "latency_s", "t_last_issue", "timer")

    def __init__(self, req_id, worker, t_arrival, deadline_s):
        self.req_id = req_id
        self.worker = worker
        self.t_arrival = t_arrival
        #: Absolute deadline; None when protection is off (no timer, no
        #: retries).
        self.deadline_s = deadline_s
        #: (send_req, reply_recv_req) per attempt, in issue order.
        self.attempts: List[tuple] = []
        self.n_retries = 0
        #: Set when the retry budget denied a token (stops re-arming).
        self.no_retry = False
        self.done = False
        self.outcome: Optional[str] = None
        self.latency_s: Optional[float] = None
        self.t_last_issue = 0.0
        #: Pending ``sim.call_after`` handle of the next decision point.
        self.timer = None


class _ClientState:
    """Shared state of one client rank (workers + reaper)."""

    __slots__ = ("cfg", "robust", "sim", "obs", "rank", "server",
                 "n_server_threads", "slo_s", "tokens", "actions", "wake",
                 "latches", "barrier", "lingering", "rank_done", "arrivals",
                 "trace", "latencies", "counts", "ok_within_slo", "retries",
                 "retries_denied", "_next_req_id", "th_reaper")

    def __init__(self, cfg, robust, sim, obs, rank, server, n_threads):
        self.cfg = cfg
        self.robust = robust
        self.sim = sim
        self.obs = obs
        self.rank = rank
        self.server = server
        self.n_server_threads = n_threads
        self.slo_s = cfg.slo_ns * 1e-9
        #: Retry tokens left (the bucket of :mod:`repro.robust`).
        self.tokens = float(_robust.RETRY_BUDGET_CAP)
        #: Deferred generator-context work: ("finalize" | "due", rec).
        self.actions = []
        self.wake = Signal(sim, name=f"svc-wake@{rank}")
        self.latches = [
            CompletionLatch(sim, name=f"svc-latch@{rank}.{i}")
            for i in range(n_threads)
        ]
        self.barrier = SimBarrier(sim, n_threads, name=f"svc-barrier@{rank}")
        #: Pending sends handed to the reaper's final sweep.
        self.lingering = []
        self.rank_done = False
        self.arrivals: List[float] = []
        #: Fingerprint trace: issue schedule + outcomes.
        self.trace: List[str] = []
        self.latencies: List[float] = []
        self.counts: Dict[str, int] = {}
        self.ok_within_slo = 0
        self.retries = 0
        self.retries_denied = 0
        self._next_req_id = _REQ_ID_BASE
        self.th_reaper: Optional[MpiThread] = None

    def next_req_id(self) -> int:
        rid = self._next_req_id
        self._next_req_id += 1
        return rid


class _ServerState:
    """Shared state of one server rank (all its worker threads)."""

    __slots__ = ("cfg", "rank", "replay", "stops_seen",
                 "pending_sends", "reaping", "reaped", "trace", "dedup_hits",
                 "peak_backlog", "obs")

    def __init__(self, cfg, rank, obs, sim):
        self.cfg = cfg
        self.rank = rank
        #: req_id -> cached _SvcReply (CTS-replay-cache pattern).
        self.replay: Dict[int, _SvcReply] = {}
        self.stops_seen = set()
        self.pending_sends = []
        #: True while one thread batch-frees completed reply sends.
        self.reaping = False
        #: Fired whenever a thread clears ``reaping``; an exit drain
        #: waits on it instead of polling the flag.
        self.reaped = Signal(sim, name=f"reaped@{rank}")
        #: Fingerprint trace: admit/shed decision per request.
        self.trace: List[str] = []
        self.dedup_hits = 0
        self.peak_backlog = 0
        self.obs = obs


# ======================================================================
# Client side
# ======================================================================
def _retry_due(rec: _Rec) -> Optional[float]:
    """When ``rec``'s last attempt may be retried (None = no retry left)."""
    if len(rec.attempts) < _robust.RETRY_ATTEMPTS and not rec.no_retry:
        return rec.t_last_issue + retry_rto(rec.n_retries)
    return None


def _cancel_timer(rec: _Rec) -> None:
    if rec.timer is not None:
        rec.timer.cancel()
        rec.timer = None


def _arm_timer(st: _ClientState, rec: _Rec) -> None:
    """(Re-)arm ``rec``'s one timer at its next decision point: the
    deadline or, if sooner, the retry timeout."""
    if rec.done or rec.deadline_s is None:
        return
    due = _retry_due(rec)
    if due is None or rec.deadline_s < due:
        due = rec.deadline_s
    _cancel_timer(rec)
    delay = due - st.sim.now
    rec.timer = st.sim.call_after(delay if delay > 0.0 else 0.0, _on_timer, st, rec)


def _on_timer(st: _ClientState, rec: _Rec) -> None:
    """Timer callback: bookkeeping only, the reaper does the work."""
    if rec.done:
        return
    st.actions.append(("due", rec))
    st.wake.fire()


def _client_on_reply(st: _ClientState, rec: _Rec, rreq) -> None:
    """Reply-recv continuation: classify, then hand off to the reaper.

    Runs in callback context (the runtime's deferred-continuation
    dispatch): no blocking calls, no simulated time -- classification,
    a budget refill, and a wake.
    """
    if rec.done:
        # A retried duplicate raced the winner; the pending
        # finalize frees every completed attempt.
        return
    rec.done = True
    data = rreq.data
    if rreq.error or not isinstance(data, _SvcReply):
        rec.outcome = "failed"
    elif data.ok:
        rec.outcome = "ok"
        rec.latency_s = st.sim.now - rec.t_arrival
        st.tokens = min(float(_robust.RETRY_BUDGET_CAP),
                        st.tokens + _robust.RETRY_BUDGET_REFILL)
    else:
        rec.outcome = "shed"
    _cancel_timer(rec)
    st.actions.append(("finalize", rec))
    st.wake.fire()


def _issue(st: _ClientState, th: MpiThread, rec: _Rec):
    """Issue one attempt (initial or retry) for ``rec``."""
    cfg = st.cfg
    now = th.sim.now
    attempt = len(rec.attempts)
    msg = _SvcRequest(
        rec.req_id, st.rank, rec.deadline_s, cfg.service_ns * 1e-9,
        cfg.reply_bytes,
    )
    sreq = yield from th.isend(st.server, cfg.req_bytes, tag=_REQ_TAG, data=msg)
    rreq = yield from th.irecv(
        source=st.server, nbytes=cfg.reply_bytes, tag=rec.req_id,
    )
    rec.attempts.append((sreq, rreq))
    rec.t_last_issue = th.sim.now
    st.trace.append(f"i:{rec.req_id}:{attempt}:{now.hex()}")
    # Arm before attaching: if the reply is already in (an inline
    # completion on attach), the continuation cancels this timer.
    _arm_timer(st, rec)
    rreq.attach_continuation(
        lambda r, _st=st, _rec=rec: _client_on_reply(_st, _rec, r)
    )


def _finalize(st: _ClientState, th: MpiThread, rec: _Rec):
    """Free every attempt's requests and account the outcome (reaper,
    generator context)."""
    rec.done = True
    _cancel_timer(rec)
    to_free = []
    for sreq, rreq in rec.attempts:
        if not rreq.freed:
            if rreq.complete:
                to_free.append(rreq)
            else:
                # A pending duplicate/expired reply recv: cancel
                # completes it with error and frees it.
                yield from th.cancel(rreq)
        if not sreq.freed:
            if sreq.complete:
                to_free.append(sreq)
            else:
                st.lingering.append(sreq)
    if to_free:
        yield from th.waitall(to_free)
    outcome = rec.outcome or "failed"
    st.counts[outcome] = st.counts.get(outcome, 0) + 1
    if outcome == "ok":
        st.latencies.append(rec.latency_s)
        if rec.latency_s <= st.slo_s + _EPS:
            st.ok_within_slo += 1
    st.trace.append(f"o:{rec.req_id}:{outcome}")
    obs = st.obs
    if obs is not None and obs.wants("service"):
        obs.instant(
            "service", f"req.{outcome}", rank=st.rank,
            args={"req_id": rec.req_id, "attempts": len(rec.attempts)},
        )
    st.latches[rec.worker].fire()


def _handle_due(st: _ClientState, th: MpiThread, rec: _Rec):
    """A timer decision point: expire, retry, or re-arm."""
    if rec.done:
        return
    now = th.sim.now
    if now >= rec.deadline_s - _EPS:
        rec.done = True
        rec.outcome = "expired"
        yield from _finalize(st, th, rec)
        return
    due = _retry_due(rec)
    if due is not None and now >= due - _EPS:
        if st.tokens >= 1.0:
            st.tokens -= 1.0
            rec.n_retries += 1
            st.retries += 1
            yield from _issue(st, th, rec)
            return
        st.retries_denied += 1
        rec.no_retry = True
    _arm_timer(st, rec)


def _client_worker(st: _ClientState, th: MpiThread, widx: int,
                   arrivals: List[float], cluster: Cluster):
    """Open-loop issue loop for one worker's slice of the schedule."""
    sim = th.sim
    latch = st.latches[widx]
    deadline_ns = st.robust.deadline_ns
    for t_arr in arrivals:
        if t_arr > sim.now:
            yield t_arr - sim.now
        deadline_s = t_arr + deadline_ns * 1e-9 if deadline_ns > 0.0 else None
        rec = _Rec(st.next_req_id(), widx, t_arr, deadline_s)
        latch.add()
        yield from _issue(st, th, rec)
    while latch.n_pending > 0:
        yield latch.wait()
    yield st.barrier.arrive()
    if widx == 0:
        yield from _stop_servers(st, th)
        st.rank_done = True
        st.wake.fire()


def _stop_servers(st: _ClientState, th: MpiThread):
    """Lossy-safe termination: one stop per server thread, re-sent
    until acked (the ack recv is completed by the reaper's progress)."""
    sim = th.sim
    for k in range(st.n_server_threads):
        stop = _SvcStop((st.rank, k))
        for _ in range(_STOP_MAX_TRIES):
            sreq = yield from th.isend(
                st.server, _STOP_BYTES, tag=_REQ_TAG, data=stop,
            )
            rreq = yield from th.irecv(
                source=st.server, nbytes=_ACK_BYTES, tag=_STOP_ACK_BASE + k,
            )
            t0 = sim.now
            while not rreq.complete and sim.now - t0 < _STOP_RTO_S:
                yield _STOP_POLL_S
            if not sreq.freed:
                if sreq.complete:
                    yield from th.test(sreq)
                else:
                    st.lingering.append(sreq)
            if rreq.complete:
                yield from th.test(rreq)
                break
            yield from th.cancel(rreq)
        # On give-up the server thread stays parked; under an active
        # fault plan the watchdog diagnoses the stall.


def _reaper(st: _ClientState, cluster: Cluster):
    """The client rank's completion engine.

    Single loop, strict priority: drain the NIC (progress), run queued
    actions (finalizes / timer decisions), then park on the wake signal
    -- which packets (chained ``nic.on_packet``), continuations, and
    timers all fire.  No yield between the empty-checks and the park,
    so wake-ups cannot be lost.
    """
    th = st.th_reaper
    rt = th.runtime
    while True:
        if rt.nic.has_packets():
            yield from th.progress_poke()
            continue
        if st.actions:
            kind, rec = st.actions.pop(0)
            if kind == "finalize":
                yield from _finalize(st, th, rec)
            else:
                yield from _handle_due(st, th, rec)
            continue
        if st.rank_done:
            break
        yield st.wake.wait()
    pend = [r for r in st.lingering if not r.freed]
    if pend:
        yield from th.waitall(pend)


# ======================================================================
# Server side
# ======================================================================
def _server_send(sst: _ServerState, th: MpiThread, dest: int, nbytes: int,
                 tag: int, payload):
    """Send a reply/ack and batch-reap completed sends.

    Replies are reaped in batches with one ``waitall`` over the already
    -complete subset (no head-of-line blocking on in-flight sends); the
    ``reaping`` flag keeps two server threads from double-freeing."""
    r = yield from th.isend(dest, nbytes, tag=tag, data=payload)
    sst.pending_sends.append(r)
    if len(sst.pending_sends) >= _REAP_BATCH and not sst.reaping:
        sst.reaping = True
        try:
            done = [q for q in sst.pending_sends if q.complete and not q.freed]
            if done:
                yield from th.waitall(done)
            sst.pending_sends = [q for q in sst.pending_sends if not q.freed]
        finally:
            sst.reaping = False
            sst.reaped.fire()


def _server_worker(sst: _ServerState, th: MpiThread, cfg: ServiceConfig):
    """recv -> dedup -> shed/serve -> reply, until stopped."""
    rt = th.runtime
    obs = sst.obs
    while True:
        msg = yield from th.recv(nbytes=cfg.req_bytes)
        now = th.sim.now
        if isinstance(msg, _SvcStop):
            client, k = msg.stop_id
            yield from _server_send(
                sst, th, client, _ACK_BYTES, _STOP_ACK_BASE + k, msg.stop_id,
            )
            if msg.stop_id in sst.stops_seen:
                # Duplicate of a stop another thread honored: re-ack
                # (above) and keep serving.
                continue
            sst.stops_seen.add(msg.stop_id)
            break
        # Backlog = undelivered packets still in the NIC queues plus
        # matched-but-unclaimed messages in the unexpected queues --
        # under overload the queue lives mostly in the NIC (server
        # threads only poll progress between serves).
        depth = 0
        for d in rt.domains:
            if d.recv_q is not None:
                depth += len(d.recv_q)
            depth += len(d.unexp_q)
        if depth > sst.peak_backlog:
            sst.peak_backlog = depth
        if obs is not None and obs.wants("service"):
            obs.counter("service", "backlog", depth, rank=sst.rank)
        cached = sst.replay.get(msg.req_id)
        if cached is not None:
            # Retry duplicate: replay the decision, skip compute.
            sst.dedup_hits += 1
            yield from _server_send(
                sst, th, msg.client, msg.reply_bytes, msg.req_id, cached,
            )
            continue
        shed = not admits(now, msg.deadline_s, msg.service_s)
        sst.trace.append(f"{msg.req_id}:{'s' if shed else 'a'}")
        if shed:
            reply = _SvcReply(msg.req_id, False, now)
        else:
            if msg.service_s > 0.0:
                yield th.compute(msg.service_s)
            reply = _SvcReply(msg.req_id, True, th.sim.now)
        sst.replay[msg.req_id] = reply
        yield from _server_send(
            sst, th, msg.client, msg.reply_bytes, msg.req_id, reply,
        )
    # Exit drain: atomically take the shared pending list (waiting out
    # any in-flight batch reap or drain first) and free what remains.
    # The wait queues nothing, so a drain that can never finish leaves
    # the simulator out of events, and the run fails instead of spinning.
    while sst.reaping:
        yield sst.reaped.wait(th.ctx)
    sst.reaping = True
    try:
        mine = [q for q in sst.pending_sends if not q.freed]
        sst.pending_sends = []
        if mine:
            yield from th.waitall(mine)
    finally:
        sst.reaping = False
        sst.reaped.fire()


# ======================================================================
# Orchestration
# ======================================================================
def _reaper_ctx(cluster: Cluster, rank: int) -> ThreadCtx:
    """Bind the reaper past the app threads (and past the async
    progress thread when one exists), like ``_fork_progress_thread``."""
    cfg = cluster.config
    machine = cluster.machines[rank // cfg.ranks_per_node]
    slot = cfg.threads_per_rank + (1 if cfg.async_progress else 0)
    if cfg.ranks_per_node == 1:
        cores = BINDINGS[cfg.binding](machine, slot + 1)
        core = cores[slot]
    else:
        chunk = cluster._rank_cores(machine, rank)
        core = chunk[slot % len(chunk)]
    ctx = ThreadCtx(next(cluster.sim.ids.tid), core, name=f"r{rank}svc",
                    rank=rank)
    if cfg.obs is not None:
        cfg.obs.declare_thread(rank, ctx.tid, ctx.name)
    return ctx


def _chain_wake(rt, wake: Signal) -> None:
    """Fire the reaper's wake on every arriving packet, preserving any
    hook the runtime installed (the "event" and "continuation" modes)."""
    prev = rt.nic.on_packet
    if prev is None:
        rt.nic.on_packet = lambda pkt, _s=wake: _s.fire()
    else:
        def chained(pkt, _prev=prev, _s=wake):
            _prev(pkt)
            _s.fire()
        rt.nic.on_packet = chained


def _pct(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    i = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[i]


def run_service(
    cluster: Cluster,
    cfg: Optional[ServiceConfig] = None,
    robust: Optional[RobustConfig] = None,
) -> ServiceResult:
    """Run the open-loop service on ``cluster`` and aggregate results.

    Ranks ``[0, P)`` are clients, ``[P, 2P)`` servers, paired by index.
    ``robust=None`` and ``robust=RobustConfig.none()`` take the same
    code path (normalized at entry): no timers, no budget, no shedding
    -- the disabled-vs-absent bit-identity contract.
    """
    cfg = cfg or ServiceConfig()
    robust = RobustConfig.none() if robust is None else robust
    n = cluster.n_ranks
    if n < 2 or n % 2 != 0:
        raise ValueError(
            f"service needs an even rank count (clients | servers), got {n}"
        )
    pairs = n // 2
    sim = cluster.sim
    obs = cluster.config.obs
    n_threads = cluster.config.threads_per_rank
    t_start = sim.now
    procs = []

    sstates: List[_ServerState] = []
    for s in range(pairs, n):
        sst = _ServerState(cfg, s, obs, sim)
        sstates.append(sst)
        for k, th in enumerate(cluster.threads[s]):
            procs.append(cluster.spawn(
                _server_worker(sst, th, cfg), name=f"svc-server[{s}.{k}]",
            ))

    cstates: List[_ClientState] = []
    for c in range(pairs):
        rng = sim.rng.stream(f"service:{c}")
        arrivals = arrival_times(rng, cfg.rate_hz, cfg.duration_s)
        st = _ClientState(cfg, robust, sim, obs, c, pairs + c, n_threads)
        st.arrivals = arrivals
        rt = cluster.runtimes[c]
        _chain_wake(rt, st.wake)
        st.th_reaper = MpiThread(rt, _reaper_ctx(cluster, c))
        for i, th in enumerate(cluster.threads[c]):
            procs.append(cluster.spawn(
                _client_worker(st, th, i, arrivals[i::n_threads], cluster),
                name=f"svc-client[{c}.{i}]",
            ))
        procs.append(cluster.spawn(_reaper(st, cluster), name=f"svc-reaper[{c}]"))
        cstates.append(st)

    cluster.run(procs)
    elapsed = sim.now - t_start

    offered = sum(len(st.arrivals) for st in cstates)
    counts: Dict[str, int] = {}
    lat: List[float] = []
    for st in cstates:
        for k, v in st.counts.items():
            counts[k] = counts.get(k, 0) + v
        lat.extend(st.latencies)
    lat.sort()
    ok = counts.get("ok", 0)
    ok_slo = sum(st.ok_within_slo for st in cstates)

    h = hashlib.blake2b(digest_size=16)
    for st in cstates:
        h.update(f"client{st.rank}".encode())
        for t in st.arrivals:
            h.update(t.hex().encode())
        for line in st.trace:
            h.update(line.encode())
    for sst in sstates:
        h.update(f"server{sst.rank}".encode())
        for line in sst.trace:
            h.update(line.encode())

    result = ServiceResult(
        offered=offered,
        ok=ok,
        ok_within_slo=ok_slo,
        shed=counts.get("shed", 0),
        expired=counts.get("expired", 0),
        failed=counts.get("failed", 0),
        slo_violations=offered - ok_slo,
        retries=sum(st.retries for st in cstates),
        retries_denied=sum(st.retries_denied for st in cstates),
        dedup_hits=sum(sst.dedup_hits for sst in sstates),
        goodput_rps=ok_slo / cfg.duration_s,
        p50_us=_pct(lat, 0.50) * 1e6,
        p99_us=_pct(lat, 0.99) * 1e6,
        p999_us=_pct(lat, 0.999) * 1e6,
        peak_backlog=max((sst.peak_backlog for sst in sstates), default=0),
        elapsed_s=elapsed,
        fingerprint=h.hexdigest(),
    )
    if obs is not None and obs.wants("service"):
        obs.counter("service", "goodput_rps", result.goodput_rps)
        obs.counter("service", "p99_us", result.p99_us)
        obs.counter("service", "slo_violations", result.slo_violations)
    return result


def service_cluster(
    lock: str = "mutex",
    threads_per_rank: int = 2,
    pairs: int = 1,
    binding: str = "compact",
    seed: int = 0,
    **overrides,
) -> Cluster:
    """The standard service setup: clients on node 0, servers on node 1.

    Defaults to ``completion="event"`` -- idle server threads park on
    arrivals instead of sleeping the CS_YIELD gap between empty polls,
    the sane regime for a request/reply service (pass
    ``completion="poll"`` to study the paper's pure polling under
    load)."""
    overrides.setdefault("completion", "event")
    return Cluster(
        ClusterConfig(
            n_nodes=2,
            ranks_per_node=pairs,
            threads_per_rank=threads_per_rank,
            lock=lock,
            binding=binding,
            seed=seed,
            **overrides,
        )
    )

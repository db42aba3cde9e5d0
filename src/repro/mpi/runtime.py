"""The per-rank MPI runtime: a miniature of MPICH's pt2pt path.

Every MPI call follows the structure of paper Fig. 6a:

* **main path** -- per-call bookkeeping under a *critical section*:
  allocate a request, search/update the matching queues, hand data to
  the NIC.  Entered at HIGH lock priority.
* **progress loop** -- calls that must wait (``MPI_Wait*``) repeatedly
  poll the progress engine under the critical section, releasing and
  re-acquiring it between iterations (MPICH's ``CS_YIELD``).  Re-entered
  at LOW lock priority -- the hook the paper's priority lock exploits.

The critical section is sharded into **arbitration domains**
(:class:`~repro.locks.domain.ArbitrationDomain`): each domain owns a
lock, the posted/unexpected matching queues it protects, and one per-VCI
NIC receive queue.  A :class:`~repro.mpi.vci.CsPolicy` routes every
operation to a domain; the default ``global`` policy keeps one domain
and reproduces the paper's single global critical section bit-for-bit
(pinned by ``tests/mpi/test_domain_regression.py``).  Blocking calls
poll only the domains their pending requests live in, rotating between
them across ``CS_YIELD`` gaps.

The progress engine drains a domain's NIC receive queue: eager messages
match the domain's posted queue (or land in its unexpected queue),
rendezvous control messages advance the RTS/CTS handshake, and RMA
packets are delegated to the window handler (:mod:`repro.mpi.rma`).

Any thread can complete any request inside the progress engine, but only
the owner frees it in its own ``MPI_Wait``/``MPI_Test`` -- which is what
makes the *dangling request* count (completed, not freed) a faithful
starvation metric (paper 4.4).  The rank-level count is
``stats.completed - stats.freed``; per-domain counts are derived from
the live requests on demand.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..locks.base import Priority, SimLock
from ..locks.domain import ArbitrationDomain
from ..machine.costs import CostModel
from ..machine.threads import ThreadCtx
from ..network.fabric import Fabric, RankNic
from ..network.message import Packet, PacketKind
from ..sim.rng import batched_draws
from ..sim.sync import CompletionLatch, Signal
from .envelope import ANY_SOURCE, ANY_TAG, Envelope
from .queues import UnexpectedMsg
from .request import Protocol, ReqKind, Request, RequestError
from .vci import GLOBAL_POLICY, CsPolicy

__all__ = ["COMPLETION_MODES", "MpiRuntime", "MpiThread", "RuntimeStats"]

#: Blocking-call strategies (``ClusterConfig.completion``).
COMPLETION_MODES = ("poll", "event", "continuation")
#: Largest eager payload (bytes) that rides the send descriptor itself
#: (``Protocol.INLINE``).
INLINE_THRESHOLD = 128


class _EagerInfo:
    __slots__ = ("envelope", "nbytes", "req_id", "data", "vci")

    def __init__(self, envelope, nbytes, req_id, data, vci=0):
        self.envelope = envelope
        self.nbytes = nbytes
        self.req_id = req_id
        self.data = data
        #: The *sender's* domain index: a reliability ACK must be routed
        #: to the domain the sender is polling.
        self.vci = vci


class _RndvInfo:
    __slots__ = ("envelope", "nbytes", "req_id", "vci")

    def __init__(self, envelope, nbytes, req_id, vci=0):
        self.envelope = envelope
        self.nbytes = nbytes
        self.req_id = req_id
        #: The *sender's* domain index: the CTS must come back to it.
        self.vci = vci


class RuntimeStats:
    """Rank-level counters exposed for the analysis modules, summed
    over all arbitration domains.  Per-domain views go to the obs bus
    (``vci``-tagged CS spans, ``dangling.d{i}`` counters)."""

    __slots__ = (
        "sends_issued", "recvs_issued", "completed", "freed",
        "posted_hits", "unexpected_hits", "progress_polls",
        "empty_polls", "packets_handled", "cs_entries_main",
        "cs_entries_progress", "continuations_fired",
        "wasted_acquisitions_avoided", "cancelled", "stale_rndv_data",
    )

    def __init__(self):
        for f in self.__slots__:
            setattr(self, f, 0)

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__slots__}


class MpiRuntime:
    """One MPI process (rank) and its sharded critical section."""

    def __init__(
        self,
        sim,
        rank: int,
        fabric: Fabric,
        nic: RankNic,
        locks: Sequence[SimLock],
        costs: CostModel,
        eager_threshold: int = 16384,
        completion: str = "poll",
        policy: Optional[CsPolicy] = None,
        reliability=None,
    ):
        # Keep fewer than 30 attributes here: past 29, CPython 3.11 moves
        # each instance's attributes from the class's shared-key array to
        # a dict of its own, and every attribute access on the runtime's
        # hot paths slows down (tests/mpi/test_world.py checks the count).
        self.sim = sim
        self.rank = rank
        self.fabric = fabric
        self.nic = nic
        self.costs = costs
        self.eager_threshold = int(eager_threshold)
        #: Domain mapping policy; the default single global domain is
        #: the paper's model.
        self.policy = policy if policy is not None else GLOBAL_POLICY
        if len(locks) != self.policy.n_domains:
            raise ValueError(
                f"policy {self.policy} needs {self.policy.n_domains} domain "
                f"lock(s), got {len(locks)}"
            )
        if nic.n_vcis < self.policy.n_domains:
            raise ValueError(
                f"NIC has {nic.n_vcis} VCI queue(s) but policy "
                f"{self.policy} needs {self.policy.n_domains}"
            )
        #: The arbitration domains, index-aligned with the NIC's VCIs.
        self.domains: List[ArbitrationDomain] = [
            ArbitrationDomain(i, lk, recv_q=nic.recv_qs[i])
            for i, lk in enumerate(locks)
        ]
        #: Live requests by id (freed requests are dropped).
        self.requests: Dict[int, Request] = {}
        #: Sends awaiting CTS: req_id -> (request, data payload).
        self._pending_sends: Dict[int, Tuple[Request, Any]] = {}
        #: High-water mark of ``dangling_count`` (starvation severity).
        self.peak_dangling = 0
        #: ``dangling_count`` sampled at every domain-lock grant, the
        #: paper's sampling instant (4.4): the sample count, their sum
        #: and their maximum.  Kept off ``RuntimeStats``, whose
        #: ``as_dict()`` every workload result reports.
        self.grant_samples = 0
        self.grant_dangling_sum = 0
        self.grant_dangling_max = 0
        self.stats = RuntimeStats()
        #: Uniform [0, 1) draws of this rank's "runtime" stream, its
        #: only consumer (request-alloc and progress-gap jitter).
        self._random = batched_draws(sim.rng.stream(f"runtime:{rank}").random)
        #: Blocking-call strategy.  "poll" reproduces the paper's
        #: CS_YIELD loops bit-for-bit.  "event" (paper 9 future work) is
        #: the same loop, but a waiter with nothing to progress parks on
        #: the arrival/completion signal instead of sleeping the yield
        #: gap; any activity wakes every parked waiter of the rank, a
        #: simplification of true *selective* wake-up.  "continuation"
        #: parks waiters on that signal and only enters the critical
        #: section when there is something to progress (the remedy the
        #: continuations figure measures).
        if completion not in COMPLETION_MODES:
            raise ValueError(
                f"completion must be one of {', '.join(COMPLETION_MODES)}, "
                f"got {completion!r}"
            )
        self.completion = completion
        self._activity = Signal(sim, name=f"activity@{rank}")
        #: Both parking modes need the NIC arrival hook and the
        #: completion-path fire.
        self._wake_waiters = completion != "poll"
        if self._wake_waiters:
            nic.on_packet = lambda pkt: self._activity.fire()
        #: Collective sequence numbers, per communicator id.
        self.coll_seq: Dict[int, int] = {}
        #: RMA windows by id (populated by repro.mpi.rma).
        self.windows: Dict[int, object] = {}
        #: ACK/retransmit layer (:mod:`repro.faults.reliability`), or
        #: None -- the default, which leaves every hot-path branch on
        #: ``self._rel is None`` and the pre-reliability schedule intact.
        if reliability is not None:
            from ..faults.reliability import ReliabilityConfig, ReliabilityLayer
            cfg = (
                ReliabilityConfig() if reliability is True else reliability
            )
            self._rel = ReliabilityLayer(self, cfg)
        else:
            self._rel = None
        #: Blocking calls currently parked on the activity signal (the
        #: "event" and "continuation" modes).  A parked waiter has
        #: pending requests, so a simulator whose event queue has run
        #: dry while this is nonzero is *stuck*, not finished -- the
        #: progress watchdog reads this as part of its liveness input.
        self.parked_waiters = 0

    # ==================================================================
    # Derived views
    # ==================================================================
    @property
    def dangling_count(self) -> int:
        """Completed-but-not-freed requests (the paper's dangling
        metric)."""
        return self.stats.completed - self.stats.freed

    def dangling_by_domain(self) -> List[int]:
        """Dangling requests per domain, index-aligned with ``domains``,
        counted from the live requests."""
        out = [0] * len(self.domains)
        for req in self.requests.values():
            if req._done:
                out[req.vci] += 1
        return out

    @property
    def rel_stats(self):
        """Reliability counters, or None when the layer is disabled."""
        return None if self._rel is None else self._rel.stats

    # ==================================================================
    # Routing
    # ==================================================================
    def _send_domain(self, dest: int, tag: int, comm: int) -> ArbitrationDomain:
        return self.domains[self.policy.route(dest, tag, comm)]

    def _req_domains(self, reqs: Sequence[Request]) -> List[ArbitrationDomain]:
        """Ordered unique domains the given requests live in."""
        seen: List[int] = []
        for r in reqs:
            for i in r.vcis:
                if i not in seen:
                    seen.append(i)
        if not seen:
            seen.append(0)
        return [self.domains[i] for i in seen]

    # ==================================================================
    # Critical section (all per-domain)
    # ==================================================================
    def _cs_acquire(self, dom: ArbitrationDomain, ctx: ThreadCtx, priority: Priority):
        st = self.stats
        if priority == Priority.HIGH:
            st.cs_entries_main += 1
        else:
            st.cs_entries_progress += 1
        yield from dom.lock.acquire(ctx, priority=priority)
        n = st.completed - st.freed
        self.grant_samples += 1
        self.grant_dangling_sum += n
        if n > self.grant_dangling_max:
            self.grant_dangling_max = n
        obs = self.sim.obs
        if obs is not None and obs.wants("mpi"):
            # Occupancy span, named by entry path (paper Fig. 6a): the
            # main path enters HIGH, the progress loop re-enters LOW.
            name = "cs.main" if priority == Priority.HIGH else "cs.progress"
            dom._cs_span = name
            if len(self.domains) == 1:
                obs.span_begin("mpi", name, rank=self.rank, tid=ctx.tid)
            else:
                obs.span_begin("mpi", name, rank=self.rank, tid=ctx.tid,
                               args={"vci": dom.index})

    def _cs_release(self, dom: ArbitrationDomain, ctx: ThreadCtx):
        """Generator: releases the CS and charges the releaser-side cost
        (a contended mutex unlock pays the FUTEX_WAKE syscall)."""
        obs = self.sim.obs
        if obs is not None and dom._cs_span is not None:
            obs.span_end("mpi", dom._cs_span, rank=self.rank, tid=ctx.tid)
            dom._cs_span = None
        cost = dom.lock.release(ctx)
        if cost > 0.0:
            yield cost

    def _cs_time(self, dom: ArbitrationDomain, seconds: float) -> float:
        """The sleep for in-CS work, inflated by contention *on this
        domain's lock*: waiting threads' retries/spinning bounce the
        domain's shared cache lines and slow the critical path (David et
        al., SOSP'13).  Sharding pays off exactly here: fewer waiters
        per domain, smaller factor."""
        return seconds * dom.lock.contention_factor()

    # ==================================================================
    # Completion plumbing
    # ==================================================================
    def _complete(self, req: Request) -> None:
        """The single completion path: every way a request finishes --
        eager/inline match, rendezvous data, reliability ACK, RMA flush
        -- funnels through here, so this is the one place continuations
        fire and waiters wake."""
        req.mark_complete(self.sim.now)
        st = self.stats
        st.completed += 1
        n = st.completed - st.freed
        if n > self.peak_dangling:
            self.peak_dangling = n
        obs = self.sim.obs
        if obs is not None and obs.wants("mpi"):
            self._emit_dangling(obs, req)
        conts = req._continuations
        if conts is not None:
            deferred = [h for h in conts if not h.sync and not h.detached]
            # Deferred handles stay linked until their dispatch actually
            # runs: a free overtaking the dispatch (the owner's wait
            # discovering completion in its own poll) cancels them
            # cleanly through the handle's timer.
            req._continuations = deferred or None
            for handle in conts:
                if handle.detached or not handle.sync:
                    continue
                # Runtime-internal bookkeeping (the blocking calls'
                # counter latches): pure O(1), safe inside the CS,
                # schedule-neutral by construction.
                self._run_continuation(handle)
            for handle in deferred:
                # User callback: defer through the event queue so it
                # runs at the completion timestamp in (time, seq)
                # order, outside the completing critical section.  The
                # handle keeps the cancellable timer so detach() and
                # free can still win the race.
                handle._timer = self.sim.call_after(
                    0.0, self._run_continuation, handle
                )
        if self._wake_waiters:
            self._activity.fire()

    def _run_continuation(self, handle) -> None:
        """Run one continuation callback (also the deferred-dispatch
        target).  The dangling-continuation guard lives here: a legit
        free cancels in-flight deferred fires through their cancellable
        timers (``Request.mark_freed``), so a dispatch that still finds
        its request freed means the lifecycle was bypassed -- raise
        instead of silently firing against a dead request."""
        if handle.detached:
            # Detached while the deferred dispatch was in flight (the
            # timer cancel lost the same-timestamp race); honor it.
            return
        req = handle.req
        if req.freed:
            raise RequestError(
                f"continuation fired on freed request #{req.req_id}; "
                f"the free bypassed detach (dangling continuation)"
            )
        handle.fired = True
        handle._timer = None
        conts = req._continuations
        if conts is not None and handle in conts:
            # Deferred handles stay linked until dispatch so a free can
            # cancel them; unlink now that the fire actually happened.
            conts.remove(handle)
            if not conts:
                req._continuations = None
        self.stats.continuations_fired += 1
        obs = self.sim.obs
        if obs is not None and obs.wants("mpi"):
            obs.counter("mpi", "continuations_fired",
                        self.stats.continuations_fired, rank=self.rank)
            if not handle.sync and req.t_completed is not None:
                # Callback latency: completion -> dispatch, in ns.
                obs.counter(
                    "mpi", "continuation_latency_ns",
                    (self.sim.now - req.t_completed) * 1e9,
                    rank=self.rank,
                )
        handle.fn(req)

    def _attach_latch(
        self, reqs: Sequence[Request],
    ) -> Tuple[CompletionLatch, List]:
        """Attach a counter latch over ``reqs`` via sync continuations.

        Already-complete requests join as fired rather than pending, so
        the latch predicates match the hand-rolled ``r.complete`` scans
        they replace.  Pure bookkeeping: no sim state is touched."""
        latch = CompletionLatch(self.sim)
        handles: List = []
        for r in reqs:
            if r._done:
                latch.note_fired()
            else:
                latch.add()
                handles.append(r.attach_continuation(latch.fire, sync=True))
        return latch, handles

    def _free(self, req: Request, ctx: Optional[ThreadCtx] = None) -> None:
        if ctx is not None and self.sim.obs is not None:
            self._san(ctx, f"requests[{req.req_id}]",
                      guards=(self.domains[req.vci].lock.name,),
                      owner=req.owner_tid)
        req.mark_freed(self.sim.now)
        self.stats.freed += 1
        self.requests.pop(req.req_id, None)
        if len(req.vcis) > 1:
            # A spanning wildcard receive was posted to every domain;
            # the claim removed it from the matching one, the rest are
            # cleaned up here (match() skips claimed entries meanwhile).
            # Owner-only by the documented discipline, hence safe without
            # the other domains' locks (match() skips claimed entries).
            for i in req.vcis:
                if ctx is not None and self.sim.obs is not None:
                    self._san(ctx, f"posted_q.d{i}",
                              guards=(self.domains[i].posted_q.guard,),
                              owner=req.owner_tid)
                self.domains[i].posted_q.discard(req)
        obs = self.sim.obs
        if obs is not None and obs.wants("mpi"):
            self._emit_dangling(obs, req)

    def _emit_dangling(self, obs, req: Request) -> None:
        """Dangling counters after ``req`` completed or was freed: the
        rank's, and with several domains that of ``req``'s domain."""
        obs.counter("mpi", "dangling", self.dangling_count, rank=self.rank)
        if len(self.domains) > 1:
            obs.counter("mpi", f"dangling.d{req.vci}",
                        self.dangling_by_domain()[req.vci], rank=self.rank)

    def _san(
        self,
        ctx: ThreadCtx,
        state: str,
        guards: Optional[Tuple[str, ...]] = None,
        owner: Optional[int] = None,
    ) -> None:
        """Emit a ``san.access`` lockset observation for the simsan
        sanitizer (:mod:`repro.check.sanitize`): this thread touched the
        shared state cell ``state`` while holding ``ctx.held``.

        ``guards`` names the cell's declared protection domain(s);
        ``owner`` is the owning tid for per-request cells (the
        documented discipline lets the owner observe/free its own
        request lock-free, so owner accesses are exempt from lockset
        refinement).  Pure observation: no time, no RNG, no state.
        Call sites gate on ``self.sim.obs is not None`` so a bus-less
        run pays one attribute check and no call.
        """
        obs = self.sim.obs
        if not obs.wants("check"):
            return
        obs.instant(
            "check", "san.access", rank=self.rank, tid=ctx.tid,
            args={
                "state": state,
                "held": tuple(sorted(lk.name for lk in ctx.held)),
                "guards": guards,
                "owner": owner,
            },
        )

    def _emit_queue_depths(self, dom: ArbitrationDomain) -> None:
        """Sample matching-queue depths (call after any queue mutation)."""
        obs = self.sim.obs
        if obs is not None and obs.wants("mpi"):
            if len(self.domains) == 1:
                obs.counter("mpi", "posted_q", len(dom.posted_q), rank=self.rank)
                obs.counter("mpi", "unexp_q", len(dom.unexp_q), rank=self.rank)
            else:
                obs.counter("mpi", f"posted_q.d{dom.index}",
                            len(dom.posted_q), rank=self.rank)
                obs.counter("mpi", f"unexp_q.d{dom.index}",
                            len(dom.unexp_q), rank=self.rank)

    # ==================================================================
    # Main-path operations (generators; called via MpiThread)
    # ==================================================================
    def isend(
        self,
        ctx: ThreadCtx,
        dest: int,
        nbytes: int,
        tag: int = 0,
        comm: int = 0,
        data: Any = None,
    ):
        """Nonblocking send.  Returns the Request.  A negative ``tag``
        (``ANY_TAG`` included) is a :class:`ValueError`."""
        if tag < 0:
            raise ValueError(f"isend tag must be >= 0, got {tag}")
        env = Envelope(source=self.rank, tag=tag, comm=comm)
        dom = self._send_domain(dest, tag, comm)
        yield self.costs.request_alloc * (0.5 + self._random())
        yield from self._cs_acquire(dom, ctx, Priority.HIGH)
        yield self._cs_time(dom, self.costs.cs_main)
        if nbytes <= self.eager_threshold:
            protocol = (
                Protocol.INLINE if nbytes <= INLINE_THRESHOLD else Protocol.EAGER
            )
        else:
            protocol = Protocol.RNDV
        req = Request(
            next(self.sim.ids.request), ReqKind.SEND, self.rank, ctx.tid,
            env, nbytes, self.sim.now, protocol=protocol, peer=dest,
        )
        req.vci = dom.index
        req.vcis = (dom.index,)
        self.requests[req.req_id] = req
        self.stats.sends_issued += 1
        if self.sim.obs is not None:
            self._san(ctx, f"requests[{req.req_id}]",
                      guards=(dom.lock.name,), owner=req.owner_tid)

        if protocol is Protocol.RNDV:
            req.mark_pending()
            self._pending_sends[req.req_id] = (req, data)
            if self.sim.obs is not None:
                self._san(ctx, f"pending_sends[{req.req_id}]",
                          guards=(dom.lock.name,), owner=req.owner_tid)
            pkt = Packet(
                next(self.sim.ids.packet), PacketKind.RTS, self.rank, dest,
                0,
                payload=_RndvInfo(env, nbytes, req.req_id, dom.index),
                vci=self.policy.route_msg(env),
            )
            self.fabric.send(pkt)
            if self._rel is not None:
                self._rel.track_rts(pkt, req)
        else:
            if protocol is Protocol.EAGER:
                # Copy into the NIC's eager buffer, holding the CS.
                copy = self.costs.copy_time(nbytes)
                if copy > 0.0:
                    yield self._cs_time(dom, copy)
            req.mark_pending()
            pkt = Packet(
                next(self.sim.ids.packet), PacketKind.EAGER, self.rank, dest,
                nbytes,
                payload=_EagerInfo(env, nbytes, req.req_id, data, dom.index),
                vci=self.policy.route_msg(env),
            )
            if self._rel is None:
                # Reliable fabric: local completion is delivery.
                self.fabric.send(pkt, partial(self._complete, req))
            else:
                # Lossy fabric: completion waits for the receiver's ACK.
                self.fabric.send(pkt)
                self._rel.track(pkt, req)
        yield from self._cs_release(dom, ctx)
        return req

    def irecv(
        self,
        ctx: ThreadCtx,
        source: int = ANY_SOURCE,
        nbytes: int = 0,
        tag: int = ANY_TAG,
        comm: int = 0,
    ):
        """Nonblocking receive.  ``nbytes`` is the buffer size (modeling
        only; the matched message's size is used for copy costs).

        A routed receive visits its one domain.  A receive with a
        wildcard in a field the policy hashes on cannot be routed; it
        *spans* all domains, visited in index order: each domain's
        unexpected queue is searched under that domain's lock, posting
        into the domain on a miss so no concurrent arrival is lost, and
        the first match claims the request (the stale postings are
        skipped by ``match()`` and discarded at free time).

        A negative ``tag`` other than ``ANY_TAG`` is a :class:`ValueError`.
        """
        if tag < 0 and tag != ANY_TAG:
            raise ValueError(f"irecv tag must be >= 0 or ANY_TAG, got {tag}")
        env = Envelope(source=source, tag=tag, comm=comm)
        route = self.policy.route_recv(env)
        if route is not None:
            doms: Sequence[ArbitrationDomain] = (self.domains[route],)
            vcis: Tuple[int, ...] = (route,)
        else:
            doms = self.domains
            vcis = tuple(range(len(doms)))
        yield self.costs.request_alloc * (0.5 + self._random())
        req = None
        for i, dom in enumerate(doms):
            yield from self._cs_acquire(dom, ctx, Priority.HIGH)
            if i == 0:
                yield self._cs_time(dom, self.costs.cs_main)
                req = Request(
                    next(self.sim.ids.request), ReqKind.RECV, self.rank,
                    ctx.tid, env, nbytes, self.sim.now, peer=source,
                )
                req.vci = dom.index
                req.vcis = vcis
                self.requests[req.req_id] = req
                self.stats.recvs_issued += 1
                if self.sim.obs is not None:
                    self._san(ctx, f"requests[{req.req_id}]",
                              guards=tuple(d.lock.name for d in doms),
                              owner=req.owner_tid)
            elif req.claimed or req._done:
                # A packet matched an earlier posting while we walked on.
                yield from self._cs_release(dom, ctx)
                break
            if self.sim.obs is not None:
                self._san(ctx, f"unexp_q.d{dom.index}",
                          guards=(dom.unexp_q.guard,))
            msg, scanned = dom.unexp_q.match(env)
            yield self._cs_time(dom, self.costs.queue_scan * scanned)
            if msg is None:
                # Post before moving to the next domain so an arrival
                # here is matched, not parked unexpectedly forever.
                if self.sim.obs is not None:
                    self._san(ctx, f"posted_q.d{dom.index}",
                              guards=(dom.posted_q.guard,))
                dom.posted_q.post(req)
                self._emit_queue_depths(dom)
                yield from self._cs_release(dom, ctx)
                continue
            # First unexpected match claims the request for this domain.
            req.claimed = True
            req.vci = dom.index
            req.unexpected = True
            if msg.rndv:
                # Rendezvous sender is waiting for clearance.
                req.mark_pending()
                self._send_cts(msg.src_rank, msg.sender_req_id, req,
                               msg.sender_vci)
            else:
                # Eager payload parked in the unexpected buffer: extra copy.
                copy = self.costs.copy_time(msg.nbytes, unexpected=True)
                if copy > 0.0:
                    yield self._cs_time(dom, copy)
                req.data = msg.data
                self._complete(req)
            self._emit_queue_depths(dom)
            yield from self._cs_release(dom, ctx)
            break
        return req

    def test(self, ctx: ThreadCtx, req: Request):
        """MPI_Test: one progress poke; frees the request on success.
        Returns True when the request completed."""
        return (yield from self._test_engine(ctx, (req,), any_mode=False))

    def wait(self, ctx: ThreadCtx, req: Request):
        """MPI_Wait: block (polling the progress engine) until complete."""
        return (yield from self.waitall(ctx, (req,)))

    def waitall(self, ctx: ThreadCtx, reqs: Iterable[Request]):
        """MPI_Waitall over ``reqs``; frees them all and returns their
        payloads.  Dispatches on the runtime's ``completion`` mode."""
        reqs = tuple(reqs)
        if self.completion == "continuation":
            return (yield from self._wait_continuation(ctx, reqs,
                                                       any_mode=False))
        return (yield from self._wait_poll(ctx, reqs, any_mode=False))

    def testall(self, ctx: ThreadCtx, reqs):
        """MPI_Testall: one progress poke per involved domain; frees all
        and returns True only when every request has completed."""
        return (yield from self._test_engine(ctx, tuple(reqs),
                                             any_mode=False))

    def testany(self, ctx: ThreadCtx, reqs):
        """MPI_Testany: one progress poke per involved domain; frees and
        returns the index of the first completed request, or None.

        An empty request sequence is a :class:`ValueError`: "any of
        nothing" has no meaningful index, and MPI's own convention
        (MPI_UNDEFINED) does not map onto None-vs-index cleanly.
        """
        reqs = tuple(reqs)
        if not reqs:
            raise ValueError("testany over an empty request sequence")
        return (yield from self._test_engine(ctx, reqs, any_mode=True))

    def waitany(self, ctx: ThreadCtx, reqs):
        """MPI_Waitany: block until one request completes; frees it and
        returns its index.

        An empty request sequence is a :class:`ValueError` -- the poll
        loop could never be satisfied and would spin forever.
        """
        reqs = tuple(reqs)
        if not reqs:
            raise ValueError("waitany over an empty request sequence")
        if self.completion == "continuation":
            return (yield from self._wait_continuation(ctx, reqs,
                                                       any_mode=True))
        return (yield from self._wait_poll(ctx, reqs, any_mode=True))

    def cancel(self, ctx: ThreadCtx, req: Request):
        """MPI_Cancel, receive side: withdraw a posted receive that will
        never (or must no longer) be matched -- the deadline-expiry path
        of the overload-protection layer (:mod:`repro.robust`).

        Only receives are cancellable (send-side cancel is deprecated in
        MPI-4 and was never reliably implementable).  Under the owning
        domain's critical section the request is *claimed* (``match()``
        skips claimed entries from that instant), withdrawn from the
        posted queue(s), completed with ``error=True`` -- so latches and
        continuations observe it exactly like a reliability give-up --
        and freed.  Returns True if this call cancelled the request,
        False if it lost the race (already complete: the request is
        freed here all the same, so the caller never double-frees).
        """
        if req.kind is not ReqKind.RECV:
            raise ValueError(
                f"only receive requests can be cancelled, got {req!r}"
            )
        if req.freed:
            return False
        dom = self.domains[req.vci]
        yield from self._cs_acquire(dom, ctx, Priority.HIGH)
        yield self._cs_time(dom, self.costs.cs_main)
        if req._done:
            # Completed while we queued for the lock: not cancelled --
            # but free it here so the caller has one cleanup path.
            if not req.freed:
                self._free(req, ctx)
            yield from self._cs_release(dom, ctx)
            return False
        # From here no packet can match it: claimed entries are skipped
        # by match(); the posted entry in this domain is withdrawn now,
        # stale postings in other domains (spanning wildcards) are
        # discarded by _free under the owner-frees discipline.
        req.claimed = True
        if self.sim.obs is not None:
            self._san(ctx, f"posted_q.d{dom.index}",
                      guards=(dom.posted_q.guard,))
        dom.posted_q.discard(req)
        req.error = True
        self._complete(req)
        self._free(req, ctx)
        self.stats.cancelled += 1
        self._emit_queue_depths(dom)
        yield from self._cs_release(dom, ctx)
        return True

    # ------------------------------------------------------------------
    # The completion engines.  All six public blocking calls reduce to
    # these three bodies; completion itself is observed through the same
    # continuation hook user callbacks use (a CompletionLatch attached
    # as a sync continuation per pending request), so there is exactly
    # one completion code path in the runtime (_complete).
    # ------------------------------------------------------------------
    def _wait_poll(self, ctx: ThreadCtx, reqs: Tuple[Request, ...],
                   any_mode: bool):
        """Blocking wait, polling form: the paper's CS_YIELD loop.

        Polls only the domains the pending requests live in, rotating to
        the next one across each CS_YIELD gap (a thread never holds two
        domain locks at once).  The latch replaces the hand-rolled
        pending-list re-filters with two counter reads; the sequence of
        yields, RNG draws and lock transitions is bit-identical to the
        pre-continuation loops (pinned by test_domain_regression)."""
        doms = self._req_domains(reqs)
        cur = 0
        yield from self._cs_acquire(doms[cur], ctx, Priority.HIGH)
        yield self._cs_time(doms[cur], self.costs.cs_main)
        latch, handles = self._attach_latch(reqs)
        while (latch.n_fired == 0) if any_mode else (latch.n_pending > 0):
            yield from self._progress_poll(doms[cur], ctx)
            if (latch.n_fired > 0) if any_mode else (latch.n_pending == 0):
                break
            # CS_YIELD: let other threads at the runtime, come back at
            # progress-loop (LOW) priority.  The gap is jittered: real
            # yields have scheduling noise, and a deterministic gap
            # produces artificial lockstep alternation between threads.
            yield from self._cs_release(doms[cur], ctx)
            if self.completion == "event" and not any(d.recv_q for d in doms):
                # Nothing to progress: park until a packet arrives or a
                # request completes (no sim time passes between this
                # check and the wait, so no wake-up can be missed).
                self.parked_waiters += 1
                yield self._activity.wait(ctx)
                self.parked_waiters -= 1
                yield self.costs.event_wakeup
            else:
                gap = self.costs.progress_gap * (0.5 + self._random())
                yield gap
            cur = (cur + 1) % len(doms)
            yield from self._cs_acquire(doms[cur], ctx, Priority.LOW)
            # Another thread's progress may have completed the rest
            # while this one sat in the gap / lock queue -- the latch
            # already counted those fires; the loop condition sees them.
        for h in handles:
            h.detach()
        if any_mode:
            idx = next(i for i, r in enumerate(reqs) if r.complete)
            if not reqs[idx].freed:
                self._free(reqs[idx], ctx)
            yield from self._cs_release(doms[cur], ctx)
            return idx
        for r in reqs:
            if not r.freed:
                self._free(r, ctx)
        yield from self._cs_release(doms[cur], ctx)
        return [r.data for r in reqs]

    def _test_engine(self, ctx: ThreadCtx, reqs: Tuple[Request, ...],
                     any_mode: bool):
        """Nonblocking completion check: one progress poke per involved
        domain, then free-and-report on the last one.  Shared body of
        test/testall/testany (a test *is* the poll loop's single
        iteration, so it has no continuation form)."""
        doms = self._req_domains(reqs)
        latch, handles = self._attach_latch(reqs)
        result: "bool | int | None" = False if not any_mode else None
        for i, dom in enumerate(doms):
            yield from self._cs_acquire(dom, ctx, Priority.HIGH)
            if i == 0:
                yield self._cs_time(dom, self.costs.cs_main)
            if (latch.n_fired == 0) if any_mode else (latch.n_pending > 0):
                yield from self._progress_poll(dom, ctx)
            if i == len(doms) - 1:
                if any_mode:
                    result = next(
                        (j for j, r in enumerate(reqs) if r.complete), None
                    )
                    if result is not None and not reqs[result].freed:
                        self._free(reqs[result], ctx)
                else:
                    result = latch.n_pending == 0
                    if result:
                        for r in reqs:
                            if not r.freed:
                                self._free(r, ctx)
            yield from self._cs_release(dom, ctx)
        for h in handles:
            h.detach()
        return result

    def _wait_continuation(self, ctx: ThreadCtx, reqs: Tuple[Request, ...],
                           any_mode: bool):
        """Blocking wait, continuation form (the remedy).

        The waiter never polls for completion: it parks on the
        arrival/completion signal and enters the critical section only
        when a domain it cares about actually has packets to progress.
        Every park that replaces an empty CS round-trip is counted as a
        ``wasted acquisition avoided`` -- the paper's wasted-acquisition
        metric, inverted.  Completion is observed through the same latch
        continuations the polling form uses; the finished requests are
        then freed under one HIGH-priority CS entry per owning domain,
        without ever having re-entered the CS just to *check* for
        completion."""
        doms = self._req_domains(reqs)
        latch, handles = self._attach_latch(reqs)
        obs = self.sim.obs
        while (latch.n_fired == 0) if any_mode else (latch.n_pending > 0):
            dom = next((d for d in doms if d.recv_q), None)
            if dom is None:
                # Nothing to progress anywhere we look: the polling path
                # would burn a full CS round-trip to discover an empty
                # queue (the paper's wasted acquisition); park instead.
                # No sim time passes between this check and the wait, so
                # no wake-up can be missed.
                self.stats.wasted_acquisitions_avoided += 1
                if obs is not None and obs.wants("mpi"):
                    obs.counter(
                        "mpi", "wasted_acq_avoided",
                        self.stats.wasted_acquisitions_avoided,
                        rank=self.rank,
                    )
                self.parked_waiters += 1
                yield self._activity.wait(ctx)
                self.parked_waiters -= 1
                yield self.costs.event_wakeup
                continue
            yield from self._cs_acquire(dom, ctx, Priority.LOW)
            yield from self._progress_poll(dom, ctx)
            yield from self._cs_release(dom, ctx)
        for h in handles:
            h.detach()
        to_free: Tuple[Request, ...]
        if any_mode:
            idx = next(i for i, r in enumerate(reqs) if r.complete)
            to_free = (reqs[idx],)
        else:
            to_free = reqs
        # Free under the owning domains' CS, one HIGH entry per domain
        # (grouped, so a waitall over one domain pays one entry total).
        freed_doms: List[int] = []
        for r in to_free:
            if r.vci not in freed_doms:
                freed_doms.append(r.vci)
        for di in freed_doms:
            dom = self.domains[di]
            yield from self._cs_acquire(dom, ctx, Priority.HIGH)
            yield self._cs_time(dom, self.costs.cs_main)
            for r in to_free:
                if r.vci == di and not r.freed:
                    self._free(r, ctx)
            yield from self._cs_release(dom, ctx)
        if any_mode:
            return idx
        return [r.data for r in reqs]

    def send(self, ctx, dest, nbytes, tag=0, comm=0, data=None):
        """Blocking send (isend + wait)."""
        req = yield from self.isend(ctx, dest, nbytes, tag=tag, comm=comm, data=data)
        yield from self.wait(ctx, req)

    def recv(self, ctx, source=ANY_SOURCE, nbytes=0, tag=ANY_TAG, comm=0):
        """Blocking receive; returns the payload data."""
        req = yield from self.irecv(ctx, source=source, nbytes=nbytes, tag=tag, comm=comm)
        out = yield from self.wait(ctx, req)
        return out[0]

    def progress_poke(self, ctx: ThreadCtx):
        """One LOW-priority progress poll over every domain (the async
        progress thread's whole life, paper 6.1.2)."""
        for dom in self.domains:
            yield from self._cs_acquire(dom, ctx, Priority.LOW)
            yield from self._progress_poll(dom, ctx)
            yield from self._cs_release(dom, ctx)

    # ==================================================================
    # Progress engine (must be called holding the domain's CS)
    # ==================================================================
    def _progress_poll(self, dom: ArbitrationDomain, ctx: ThreadCtx):
        """Drain the domain's NIC receive queue; returns True if any
        packet was handled."""
        self.stats.progress_polls += 1
        if self.sim.obs is not None:
            self._san(ctx, f"recv_q.d{dom.index}", guards=(dom.lock.name,))
        q = dom.recv_q
        if not q:
            self.stats.empty_polls += 1
            obs = self.sim.obs
            if obs is not None and obs.wants("mpi"):
                # The paper's "wasted acquisition": a full CS round-trip
                # that progressed nothing.
                obs.instant("mpi", "poll.empty", rank=self.rank, tid=ctx.tid)
            yield self._cs_time(dom, self.costs.cs_poll_empty)
            return False
        # Handle a bounded batch; the rest waits for the next poll (a
        # real progress engine processes a bounded completion batch per
        # call, it does not drain the wire in one critical section).
        for _ in range(self.costs.progress_batch):
            if not q:
                break
            pkt = q.popleft()
            yield from self._handle_packet(dom, ctx, pkt)
        return True

    def _handle_packet(self, dom: ArbitrationDomain, ctx: ThreadCtx, pkt: Packet):
        self.stats.packets_handled += 1
        obs = self.sim.obs
        if obs is not None and obs.wants("mpi"):
            obs.counter("mpi", "packets_handled", self.stats.packets_handled,
                        rank=self.rank)
        yield self._cs_time(dom, self.costs.cs_poll_packet)
        if self._rel is not None and self._rel.pre_handle(pkt):
            # ACKs and duplicate data/RTS copies are absorbed by the
            # reliability layer; they never reach the protocol handlers.
            return
        kind = pkt.kind
        if kind is PacketKind.EAGER or kind is PacketKind.RTS:
            info = pkt.payload
            if self.sim.obs is not None:
                self._san(ctx, f"posted_q.d{dom.index}",
                          guards=(dom.posted_q.guard,))
            req, scanned = dom.posted_q.match(info.envelope)
            yield self._cs_time(dom, self.costs.queue_scan * scanned)
            if req is not None:
                req.claimed = True
                req.vci = dom.index
                self.stats.posted_hits += 1
                if kind is PacketKind.EAGER:
                    copy = self.costs.copy_time(info.nbytes)
                    if copy > 0.0:
                        yield self._cs_time(dom, copy)
                    req.data = info.data
                    self._complete(req)
                else:
                    req.mark_pending()
                    self._send_cts(pkt.src_rank, info.req_id, req, info.vci)
            else:
                self.stats.unexpected_hits += 1
                if self.sim.obs is not None:
                    self._san(ctx, f"unexp_q.d{dom.index}",
                              guards=(dom.unexp_q.guard,))
                if kind is PacketKind.EAGER:
                    msg = UnexpectedMsg(
                        info.envelope, info.nbytes, pkt.src_rank,
                        data=info.data, arrival_time=self.sim.now,
                    )
                else:
                    msg = UnexpectedMsg(
                        info.envelope, info.nbytes, pkt.src_rank,
                        rndv=True, sender_req_id=info.req_id,
                        sender_vci=info.vci, arrival_time=self.sim.now,
                    )
                dom.unexp_q.add(msg)
            self._emit_queue_depths(dom)
        elif kind is PacketKind.CTS:
            sender_req_id, recv_req_id, recv_vci = pkt.payload
            if self.sim.obs is not None:
                self._san(ctx, f"pending_sends[{sender_req_id}]",
                          guards=(dom.lock.name,))
            if self._rel is not None:
                # The CTS acknowledges the RTS; a *duplicate* CTS (the
                # receiver replayed it for a retried RTS) finds the
                # pending send already gone and is dropped here.
                self._rel.on_cts(sender_req_id)
                pending = self._pending_sends.pop(sender_req_id, None)
                if pending is None:
                    return
                req, data = pending
            else:
                req, data = self._pending_sends.pop(sender_req_id)
            data_pkt = Packet(
                next(self.sim.ids.packet), PacketKind.RNDV_DATA, self.rank,
                pkt.src_rank, req.nbytes,
                payload=(recv_req_id, data, req.vci), vci=recv_vci,
            )
            if self._rel is None:
                self.fabric.send(data_pkt, partial(self._complete, req))
            else:
                self.fabric.send(data_pkt)
                self._rel.track(data_pkt, req)
        elif kind is PacketKind.RNDV_DATA:
            recv_req_id, data, _sender_vci = pkt.payload
            req = self.requests.get(recv_req_id)
            if req is None:
                # The receive was cancelled (deadline expiry) after its
                # CTS went out; the data raced the cancellation and
                # loses.  Count it -- a silent drop here would hide a
                # protocol bug in a run without cancellations.
                self.stats.stale_rndv_data += 1
                return
            if self.sim.obs is not None:
                self._san(
                    ctx, f"requests[{recv_req_id}]",
                    guards=tuple(
                        self.domains[i].lock.name
                        for i in req.vcis
                    ),
                    owner=req.owner_tid,
                )
            # Rendezvous lands zero-copy in the user buffer (RDMA write);
            # only the handling cost (already charged) applies.
            req.data = data
            self._complete(req)
        elif kind.name.startswith("RMA"):
            handler = self.windows.get(getattr(pkt.payload, "win_id", None))
            if handler is None:
                raise RuntimeError(f"no window registered for {pkt!r}")
            yield from handler.handle_packet(dom, ctx, pkt)
        else:
            raise RuntimeError(f"unhandled packet kind {kind}")

    def _send_cts(self, dest: int, sender_req_id: int, recv_req: Request,
                  sender_vci: int = 0) -> None:
        """Clear a rendezvous sender: the CTS goes back to the *sender's*
        domain and tells it which receiver domain the data belongs in."""
        pkt = Packet(
            next(self.sim.ids.packet), PacketKind.CTS, self.rank, dest, 0,
            payload=(sender_req_id, recv_req.req_id, recv_req.vci),
            vci=sender_vci,
        )
        self.fabric.send(pkt)
        if self._rel is not None:
            self._rel.note_cts(dest, sender_req_id, recv_req.req_id,
                               recv_req.vci, sender_vci)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<MpiRuntime rank={self.rank} policy={self.policy} "
            f"lock={type(self.domains[0].lock).__name__} "
            f"posted={sum(len(d.posted_q) for d in self.domains)} "
            f"unexp={sum(len(d.unexp_q) for d in self.domains)} "
            f"dangling={self.dangling_count}>"
        )


class MpiThread:
    """A thread's view of its rank's runtime: binds a ThreadCtx and
    forwards MPI calls (all generators, used with ``yield from``)."""

    def __init__(self, runtime: MpiRuntime, ctx: ThreadCtx):
        self.runtime = runtime
        self.ctx = ctx

    @property
    def rank(self) -> int:
        return self.runtime.rank

    @property
    def sim(self):
        return self.runtime.sim

    def isend(self, dest, nbytes, tag=0, comm=0, data=None):
        return self.runtime.isend(self.ctx, dest, nbytes, tag=tag, comm=comm, data=data)

    def irecv(self, source=ANY_SOURCE, nbytes=0, tag=ANY_TAG, comm=0):
        return self.runtime.irecv(self.ctx, source=source, nbytes=nbytes, tag=tag, comm=comm)

    def send(self, dest, nbytes, tag=0, comm=0, data=None):
        return self.runtime.send(self.ctx, dest, nbytes, tag=tag, comm=comm, data=data)

    def recv(self, source=ANY_SOURCE, nbytes=0, tag=ANY_TAG, comm=0):
        return self.runtime.recv(self.ctx, source=source, nbytes=nbytes, tag=tag, comm=comm)

    def wait(self, req):
        return self.runtime.wait(self.ctx, req)

    def waitall(self, reqs):
        return self.runtime.waitall(self.ctx, reqs)

    def test(self, req):
        return self.runtime.test(self.ctx, req)

    def testall(self, reqs):
        return self.runtime.testall(self.ctx, reqs)

    def testany(self, reqs):
        return self.runtime.testany(self.ctx, reqs)

    def waitany(self, reqs):
        return self.runtime.waitany(self.ctx, reqs)

    def cancel(self, req):
        return self.runtime.cancel(self.ctx, req)

    def progress_poke(self):
        return self.runtime.progress_poke(self.ctx)

    def compute(self, seconds: float) -> float:
        """Model local computation for ``seconds`` (outside the runtime):
        the delay to yield."""
        return float(seconds)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MpiThread rank={self.rank} {self.ctx.name}>"

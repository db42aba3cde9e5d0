"""The progress watchdog: no liveness failure may become a silent hang.

A lossy fabric without retransmission turns the paper's starvation
pathologies into true deadlocks: a receiver whose message was dropped
polls the progress engine forever and the discrete-event simulation never
runs out of events.  The watchdog is a service process that samples a
cluster-wide progress metric (completions + frees + packets handled)
every ``interval``; after ``grace`` consecutive frozen samples it emits a
diagnostic dump -- per-domain queue depths, lock holder and waiters,
dangling counts -- on the observability bus under the ``fault`` category
and aborts the run with :class:`ProgressStallError` (carrying the same
dump on ``.diagnostics``).

The watchdog only reads counters: it adds no simulated time to any
workload thread and consumes no RNG, and it is only installed when an
active fault plan is configured.

The sampling loop holds its pending interval timer as a first-class
cancellable handle: :meth:`ProgressWatchdog.stop` cancels it at shutdown,
so the post-workload drain is not padded out to the next sampling tick
(historically every consumer had to disable the watchdog or measure
before the drain to avoid that skew).  The idle check reads the
simulator's *live* event count -- a heap holding nothing but cancelled
timers is a finished run, not pending work.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ProgressStallError", "ProgressWatchdog"]


class ProgressStallError(RuntimeError):
    """The cluster made no progress for the watchdog's full grace period."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        #: The same dump the watchdog emitted on the obs bus.
        self.diagnostics = diagnostics or {}


class ProgressWatchdog:
    """Samples cluster progress and aborts hung runs with a dump."""

    def __init__(self, cluster, interval: float, grace: int = 5):
        if interval <= 0.0:
            raise ValueError(f"watchdog interval must be positive, got {interval}")
        self.cluster = cluster
        self.interval = interval
        self.grace = int(grace)
        self.stalled = False
        #: Last dump taken (also carried by the raised error).
        self.diagnostics: Optional[dict] = None
        #: Early-warning hooks: callables invoked as ``hook(frozen)``
        #: once per stall episode, when the frozen-sample count first
        #: reaches half the grace period, before the abort (the
        #: deadlock detector checks its waits-for graph here).
        self.on_warning: list = []
        #: Diagnostic providers: zero-arg callables returning a dict
        #: merged into the stall dump (the deadlock detector adds its
        #: waits-for cycles here, so a post-mortem shows *who* waits on
        #: *what*, not just frozen counters).
        self.diagnostic_hooks: list = []
        self._proc = None
        #: The pending interval timer (cancellable), None between samples.
        self._pending = None

    def install(self) -> "ProgressWatchdog":
        self._proc = self.cluster.sim.process(self._loop(), name="watchdog")
        return self

    def stop(self) -> None:
        """Tear down the sampling loop by cancelling its pending timer.

        The cancelled timer is never dispatched, so a post-workload drain
        ends at the last real event instead of the watchdog's next tick.
        Idempotent; safe to call whether or not a sample is pending.
        """
        timer = self._pending
        if timer is not None:
            timer.cancel()
            self._pending = None

    # ------------------------------------------------------------------
    def _metric(self) -> int:
        total = 0
        for rt in self.cluster.runtimes:
            total += rt.stats.completed + rt.stats.freed + rt.stats.packets_handled
            rel = rt.rel_stats
            if rel is not None:
                # A run quietly waiting out a retransmit backoff is
                # recovering, not stalled.
                total += rel.retransmits + rel.acks_received + rel.giveups
        return total

    def _parked(self) -> int:
        """Blocking calls parked on their runtime's activity signal.

        Parked waiters (continuation / event-driven wait modes) hold no
        event in the queue at all -- their wake-up is a bare Signal the
        *next packet or completion* fires.  A fully-parked cluster
        therefore shows ``queued_events == 0`` while threads still have
        pending requests: that is a stall to diagnose, not a finished
        run, so the idle check must see these waiters."""
        return sum(rt.parked_waiters for rt in self.cluster.runtimes)

    def _loop(self):
        sim = self.cluster.sim
        last = self._metric()
        frozen = 0
        while not self.cluster._shutdown:
            self._pending = timer = sim.timeout(self.interval)
            yield timer
            self._pending = None
            if self.cluster._shutdown:
                return
            if sim.queued_events == 0 and self._parked() == 0:
                # No *live* event left but us, and nobody parked on an
                # activity signal: the run is over (or already
                # deadlocked in a way run() reports itself).  Dead
                # (cancelled) timers still on the heap are not pending
                # work and must not keep the watchdog sampling.  With
                # parked waiters the queue may legitimately run dry
                # while the system is live-but-stuck (every waiter
                # waiting on a packet that was dropped), so sampling
                # continues until the grace period expires and the
                # stall is diagnosed instead of surfacing as a generic
                # out-of-events crash.
                return
            cur = self._metric()
            if cur != last:
                last = cur
                frozen = 0
                continue
            frozen += 1
            if frozen == max(1, self.grace // 2) and self.on_warning:
                for hook in self.on_warning:
                    hook(frozen)
            if frozen >= self.grace:
                self.stalled = True
                self.diagnostics = self._dump()
                raise ProgressStallError(
                    f"no progress for {frozen} x {self.interval * 1e6:.0f}us "
                    f"(t={sim.now * 1e6:.1f}us, metric={cur}); see .diagnostics",
                    diagnostics=self.diagnostics,
                )

    # ------------------------------------------------------------------
    def _dump(self) -> dict:
        """Snapshot the runtime state a hang post-mortem needs, and emit
        it on the obs bus (``fault`` category)."""
        sim = self.cluster.sim
        ranks = []
        for rt in self.cluster.runtimes:
            domains = []
            dangling = rt.dangling_by_domain()
            for d in rt.domains:
                owner = d.lock.owner
                domains.append({
                    "index": d.index,
                    "recv_q": len(d.recv_q) if d.recv_q is not None else 0,
                    "posted_q": len(d.posted_q),
                    "unexp_q": len(d.unexp_q),
                    "lock_holder": owner.name if owner is not None else None,
                    "lock_waiters": d.lock.n_contenders,
                    "dangling": dangling[d.index],
                })
            ranks.append({
                "rank": rt.rank,
                "dangling": rt.dangling_count,
                "live_requests": len(rt.requests),
                "pending_rndv_sends": len(rt._pending_sends),
                "domains": domains,
            })
        diag = {"t_s": sim.now, "ranks": ranks}
        for hook in self.diagnostic_hooks:
            diag.update(hook())
        obs = sim.obs
        if obs is not None and obs.wants("fault"):
            obs.instant("fault", "watchdog.stall", args={"t_s": sim.now})
            for r in ranks:
                obs.instant("fault", "watchdog.dump", rank=r["rank"], args=r)
                obs.counter("fault", "watchdog.dangling", r["dangling"],
                            rank=r["rank"])
        return diag

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ProgressWatchdog interval={self.interval * 1e6:.0f}us "
            f"grace={self.grace} stalled={self.stalled}>"
        )

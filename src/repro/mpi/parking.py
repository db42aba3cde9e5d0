"""Parked idle progress: an async progress thread that queues nothing
while its rank is idle.

MPICH's async progress thread (paper 6.1.2) "does no useful work most of
the time": on an idle rank every round is the same fixed chain of
sleeps -- per domain an uncontended LOW acquire (its atomics),
an empty poll and the release, then the progress gap.  Nothing else
reads or writes the rank's state meanwhile, so those rounds can be
skipped and replayed at the first *touch* of the rank: a packet
delivery to its NIC, another thread entering one of its domain locks,
or any exit from ``Simulator.run``.

The replay makes the same jitter draws in the same order and the same
float additions the generator would, so every output stays
bit-identical; only dispatch counts and seq draws disappear
(DESIGN.md section 9).  Whole rounds before the touch are applied as
counter deltas, the last of them through the real
``progress_poke`` so that real code sets all other state, and the
simulator then runs the unfinished round through the thread's own
generator up to the touch (:meth:`repro.sim.Simulator.catch_up`).
"""

from __future__ import annotations

from ..machine.threads import ThreadCtx
from ..sim.process import Park

__all__ = ["IdleProgress"]


class IdleProgress(Park):
    """The park of one rank's async progress thread (one per thread)."""

    __slots__ = ("cluster", "rt", "ctx", "_touched")

    def __init__(self, cluster, rt, ctx: ThreadCtx):
        super().__init__(rt.costs.progress_gap)
        self.cluster = cluster
        self.rt = rt
        self.ctx = ctx
        #: Hooked objects while parked (the NIC and the domain locks).
        self._touched: tuple = ()

    def ready(self) -> bool:
        """True when the thread may park after this round; arms the
        touch hooks if so.  These are properties of the run, not a
        knob: no bus, no fault, reliability or watchdog machinery, no
        shutdown, and on every domain an empty NIC queue and a
        lock whose LOW round is fully determined
        (``SimLock.parkable_on``)."""
        rt = self.rt
        cl = self.cluster
        if (
            rt.sim.obs is not None or rt._rel is not None
            or cl.fault_injector is not None or cl.watchdog is not None
            or cl._shutdown
        ):
            return False
        core = self.ctx.core
        doms = rt.domains
        for dom in doms:
            if dom.recv_q or not dom.lock.parkable_on(core):
                return False
        touch = self.touch
        rt.nic.on_touch = touch
        for dom in doms:
            dom.lock.on_touch = touch
        self._touched = (rt.nic, *(dom.lock for dom in doms))
        return True

    def touch(self) -> None:
        """Something is about to see the rank: catch up to now."""
        if self._touched:
            self.rt.sim.catch_up(self)

    def replay(self, bound: float) -> float:
        for obj in self._touched:
            obj.on_touch = None
        self._touched = ()
        s = self.when
        if not s < bound:
            return s
        rt = self.rt
        doms = rt.domains
        # One round as the generator's float additions: per domain
        # t + (atomic + jitter) for each atomic, then t + poll * factor
        # (the factor is 1.0 with no contenders), then the gap.
        poll = rt.costs.cs_poll_empty * 1.0
        steps = []
        for dom in doms:
            for word in dom.lock.low_round_words():
                # atomic_s[0]: the line is on this core (SAME_CORE).
                steps.append((word._jitter, word.costs.atomic_s[0]))
            steps.append((None, poll))
        gap = self.delay
        k = 0
        last = cur = None
        start = end = s
        while s < bound:
            t = s
            cur = []
            for draw, cost in steps:
                if draw is None:
                    t = t + cost
                else:
                    x = draw()
                    cur.append((draw, x))
                    t = t + (cost + x)
            if not t < bound:
                break
            k += 1
            last, cur = cur, None
            start, end = s, t
            s = t + gap
        # Give back the draws of the unfinished round (the generator
        # makes them) and of the last whole round (the real poll below
        # makes them again), most recent first.
        for drawn in (cur, last):
            if drawn:
                for draw, x in reversed(drawn):
                    draw.unread(x)
        if k:
            m = k - 1
            if m:
                n = m * len(doms)
                st = rt.stats
                # The rank is idle, so each bulk grant samples the same
                # dangling count.
                dangling = st.completed - st.freed
                rt.grant_samples += n
                rt.grant_dangling_sum += n * dangling
                if dangling > rt.grant_dangling_max:
                    rt.grant_dangling_max = dangling
                st.cs_entries_progress += n
                st.progress_polls += n
                st.empty_polls += n
                for dom in doms:
                    dom.lock.add_low_rounds(m)
            t = start
            for delay in rt.progress_poke(self.ctx):
                t = t + delay
            if t != end:  # pragma: no cover - model invariant
                raise RuntimeError(
                    f"parked progress replay diverged on rank {rt.rank}: "
                    f"{t!r} != {end!r}"
                )
        return s

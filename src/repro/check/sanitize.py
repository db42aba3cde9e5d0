"""simsan: an Eraser-style runtime lockset sanitizer for shared runtime
state (``python -m repro sanitize``).

The paper's argument is about *who holds the critical section when*;
simsan mechanically checks the converse discipline: shared
``MpiRuntime``/domain state is only ever touched while holding its
owning :class:`~repro.locks.domain.ArbitrationDomain` lock.

How it works
------------
* Lock grant/release (:mod:`repro.locks.base`) maintains
  ``ThreadCtx.held`` -- the set of :class:`SimLock` objects the thread
  currently holds.  This costs one ``set.add``/``discard`` per
  transition and exists whether or not a sanitizer is attached.
* Annotated access sites in :class:`~repro.mpi.runtime.MpiRuntime` emit
  a ``check``-category ``san.access`` instant on the obs bus, carrying
  the state cell name, the held lockset, the cell's declared guard(s)
  and (for per-request cells) the owning thread.  Emission is gated on
  ``sim.obs is not None`` so a run without a bus pays one attribute
  check, and on ``obs.wants("check")`` so a bus without a sanitizer
  pays one set lookup.  Nothing on this path touches time or RNG:
  attaching simsan is schedule-neutral (pinned by
  ``tests/check/test_sanitizer.py``).
* This class applies the classic Eraser lockset refinement per cell
  ``(rank, state)``: the candidate lockset starts as the declared
  guards (or the first access's held set) and is intersected with the
  held set at each access.  An access that empties the candidate set is
  a violation -- no single lock protected every access to that cell.

One repo-specific twist: the runtime's documented ownership discipline
is "any thread may *complete* a request; only the owner frees/observes
it".  Accesses by a cell's declared owner thread therefore do not
refine the candidate set -- the owner may touch its own request/queue
entry lock-free by design, exactly like Eraser's first-thread
exemption.

Deadcheck's runtime half also lives here (same bus, same ``check``
category):

* :class:`WaitsForGraph` / :class:`DeadlockDetector` -- a waits-for
  graph built from live simulator state (thread->lock edges from
  :meth:`SimLock.waiting_threads`, lock->owner edges from the grant
  bookkeeping, thread->condition edges from parked
  :class:`~repro.sim.sync.Signal`/``CompletionLatch`` waiters), checked
  for cycles at watchdog early-warning and when the simulation goes
  idle with live threads.  Cycles dump as ``deadlock.cycle`` instants.
* :class:`OrderWitness` / :func:`run_order_witness` -- collects the
  ``order.edge`` instants :meth:`SimLock._grant` emits (lock A held
  while B granted) so ``repro deadcheck --order-witness`` can diff the
  *observed* order graph against the *static* one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "LocksetSanitizer", "Violation", "CellReport", "sanitize_experiment",
    "WaitsForGraph", "DeadlockDetector", "OrderWitness",
    "run_order_witness",
]

#: Cap on stored per-violation detail (counts keep accumulating past it).
_MAX_STORED = 100


@dataclass(frozen=True)
class Violation:
    """One access whose candidate lockset went empty."""

    state: str
    rank: int
    tid: int
    time: float
    held: Tuple[str, ...]
    guards: Optional[Tuple[str, ...]]

    def format(self) -> str:
        held = ",".join(self.held) if self.held else "(none)"
        want = ",".join(self.guards) if self.guards else "(any consistent lock)"
        return (
            f"t={self.time:.9f}s rank={self.rank} tid={self.tid} "
            f"state={self.state}: held={{{held}}} expected={{{want}}}"
        )


@dataclass
class CellReport:
    """Per-cell tally for the ranked report."""

    state: str
    rank: int
    accesses: int = 0
    violations: int = 0
    candidate: Optional[frozenset] = None


class LocksetSanitizer:
    """Subscriber applying Eraser lockset refinement to ``san.access``
    events.  Attach with :meth:`attach`; read :attr:`violations` /
    :meth:`report` afterwards."""

    def __init__(self) -> None:
        #: ``(rank, state) -> CellReport`` (candidate lockset + tallies).
        self.cells: Dict[Tuple[int, str], CellReport] = {}
        self.violations: List[Violation] = []
        self.total_accesses = 0
        self.total_violations = 0
        #: Watermark for sub-run detection (see :meth:`_on_event`).
        self._last_ts = 0.0

    # ------------------------------------------------------------------
    def attach(self, bus) -> "LocksetSanitizer":
        """Subscribe to the ``check`` category on ``bus``."""
        bus.subscribe(self._on_event, categories=("check",))
        return self

    def _on_event(self, ev) -> None:
        if ev.name != "san.access":
            return
        if ev.ts < self._last_ts:
            # Simulated time went backwards: the bus was rebound to a
            # fresh simulator (experiments sweep configurations through
            # one bus).  Locks -- and so candidate locksets -- do not
            # survive the boundary; tallies do.
            for cell in self.cells.values():
                cell.candidate = None
        self._last_ts = ev.ts
        args = ev.args or {}
        state = args.get("state", "?")
        held = frozenset(args.get("held", ()))
        guards = args.get("guards")
        owner = args.get("owner")
        key = (ev.rank, state)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CellReport(state=state, rank=ev.rank)
        cell.accesses += 1
        self.total_accesses += 1
        if owner is not None and owner == ev.tid:
            # Owner exemption: the documented discipline lets a cell's
            # owning thread observe/free it lock-free.
            return
        if cell.candidate is None:
            cell.candidate = frozenset(guards) if guards else held
        cell.candidate = cell.candidate & held
        if not cell.candidate:
            cell.violations += 1
            self.total_violations += 1
            if len(self.violations) < _MAX_STORED:
                self.violations.append(
                    Violation(
                        state=state,
                        rank=ev.rank,
                        tid=ev.tid,
                        time=ev.ts,
                        held=tuple(sorted(held)),
                        guards=tuple(sorted(guards)) if guards else None,
                    )
                )
            # Re-arm so each bad access site reports, instead of one
            # empty set poisoning every later (possibly correct) access.
            cell.candidate = frozenset(guards) if guards else None

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def report(self, limit: int = 20) -> str:
        """Ranked human-readable report: worst cells first."""
        lines = [
            f"simsan: {self.total_accesses} annotated accesses across "
            f"{len(self.cells)} cells, {self.total_violations} violation(s)"
        ]
        ranked = sorted(
            self.cells.values(),
            key=lambda c: (-c.violations, -c.accesses, c.rank, c.state),
        )
        shown = [c for c in ranked if c.violations > 0][:limit]
        if shown:
            lines.append("")
            lines.append(f"{'violations':>10}  {'accesses':>8}  rank  state")
            for c in shown:
                lines.append(
                    f"{c.violations:>10}  {c.accesses:>8}  {c.rank:>4}  {c.state}"
                )
            lines.append("")
            lines.append("first occurrences:")
            for v in self.violations[:limit]:
                lines.append("  " + v.format())
            if self.total_violations > len(self.violations):
                lines.append(
                    f"  ... ({self.total_violations - len(self.violations)} more)"
                )
        return "\n".join(lines)


# ======================================================================
# Deadcheck runtime half: waits-for graph + order witness
# ======================================================================

class WaitsForGraph:
    """A snapshot waits-for graph over live simulator state.

    Nodes are ``(kind, id)`` with human labels; edges:

    * thread -> lock: the thread is inside ``acquire`` and not granted
      (:meth:`SimLock.waiting_threads`),
    * lock -> thread: the lock's current owner,
    * thread -> condition: the thread is parked on a Signal/latch
      (``wait(ctx=...)`` registration).

    A strongly-connected component of size > 1 is a (potential)
    deadlock: every member waits on another member.  Condition nodes
    have no outgoing edges, so they never *create* cycles -- they are
    in the graph so a stalled-parked thread shows up in dumps.
    """

    def __init__(self) -> None:
        self._adj: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {}
        self._labels: Dict[Tuple[str, int], str] = {}
        self._seen_locks: Set[int] = set()

    # -- construction ---------------------------------------------------
    def _node(self, kind: str, key: int, label: str) -> Tuple[str, int]:
        node = (kind, key)
        self._labels.setdefault(node, label)
        self._adj.setdefault(node, set())
        return node

    def add_lock(self, lock) -> None:
        if id(lock) in self._seen_locks:
            return
        self._seen_locks.add(id(lock))
        ln = self._node("lock", id(lock), lock.name)
        owner = lock.owner
        if owner is not None:
            self._adj[ln].add(self._node("thread", owner.tid, owner.name))
        for ctx in lock.waiting_threads():
            tn = self._node("thread", ctx.tid, ctx.name)
            self._adj[tn].add(ln)

    def add_condition(self, cond, label: str = "") -> None:
        waiters = getattr(cond, "waiters", ())
        if not waiters:
            return
        cn = self._node(
            "cond", id(cond), label or getattr(cond, "name", "") or "signal"
        )
        for ctx in waiters:
            tn = self._node("thread", ctx.tid, ctx.name)
            self._adj[tn].add(cn)

    # -- queries --------------------------------------------------------
    def label(self, node: Tuple[str, int]) -> str:
        return self._labels.get(node, f"{node[0]}#{node[1]}")

    def cycles(self) -> List[List[Tuple[str, int]]]:
        """SCCs of size > 1, deterministically ordered by label."""
        order = sorted(self._adj, key=lambda n: (self.label(n), n[0]))
        index: Dict[Tuple[str, int], int] = {}
        low: Dict[Tuple[str, int], int] = {}
        on_stack: Set[Tuple[str, int]] = set()
        stack: List[Tuple[str, int]] = []
        out: List[List[Tuple[str, int]]] = []
        counter = [0]

        def neighbors(n):
            return sorted(self._adj[n], key=lambda m: (self.label(m), m[0]))

        for root in order:
            if root in index:
                continue
            work = [(root, iter(neighbors(root)))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = counter[0]
                        counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(neighbors(nxt))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        out.append(
                            sorted(comp, key=lambda n: (self.label(n), n[0]))
                        )
        return out

    def describe(self, cycle: List[Tuple[str, int]]) -> str:
        """``a -> b -> ... -> a`` walking actual edges of the cycle."""
        members = set(cycle)
        walk = [cycle[0]]
        while True:
            nxts = [
                m for m in sorted(
                    self._adj[walk[-1]], key=lambda n: (self.label(n), n[0])
                )
                if m in members
            ]
            nxt = next((m for m in nxts if m not in walk), None)
            if nxt is None:
                break
            walk.append(nxt)
        return " -> ".join(self.label(n) for n in walk + [walk[0]])


class DeadlockDetector:
    """Wires waits-for cycle checks into a cluster's failure paths.

    :meth:`attach` hooks the progress watchdog's early warning (half
    the grace period -- before the abort) and the cluster's
    idle-with-live-threads path (``Cluster.on_idle_stall``).  Detected
    cycles are recorded on :attr:`cycles`, emitted as ``check``-category
    ``deadlock.cycle`` instants, and merged into the watchdog's stall
    dump under ``"waits_for_cycles"``.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        #: Human-readable cycle descriptions, in detection order
        #: (deduplicated: one entry per distinct cycle).
        self.cycles: List[str] = []
        self.checks = 0

    def attach(self) -> "DeadlockDetector":
        wd = self.cluster.watchdog
        if wd is not None:
            wd.on_warning.append(self._on_warning)
            wd.diagnostic_hooks.append(self._diagnostics)
        self.cluster.on_idle_stall = self._on_idle
        return self

    # -- snapshot -------------------------------------------------------
    def graph(self) -> WaitsForGraph:
        g = WaitsForGraph()
        for rt in self.cluster.runtimes:
            for dom in rt.domains:
                g.add_lock(dom.lock)
            g.add_condition(rt._activity, label=f"activity@rank{rt.rank}")
        # Locks held or contended outside the domain set (workload locks
        # from examples/benchmarks).
        for group in self.cluster.threads:
            for th in group:
                for lk in th.ctx.held:
                    g.add_lock(lk)
        return g

    def check(self, reason: str) -> List[str]:
        self.checks += 1
        g = self.graph()
        found = [g.describe(c) for c in g.cycles()]
        fresh = [c for c in found if c not in self.cycles]
        self.cycles.extend(fresh)
        if found:
            obs = self.cluster.sim.obs
            if obs is not None and obs.wants("check"):
                for desc in found:
                    obs.instant(
                        "check", "deadlock.cycle",
                        args={"reason": reason, "cycle": desc},
                    )
        return found

    # -- hook targets ---------------------------------------------------
    def _on_warning(self, _frozen: int) -> None:
        self.check("watchdog-warning")

    def _on_idle(self) -> None:
        self.check("idle-with-live-threads")

    def _diagnostics(self) -> dict:
        return {"waits_for_cycles": list(self.cycles)}


def witness_family(name: str) -> str:
    """A lock's name with the per-instance decorations (``@rankN``, the
    ``.dM`` shard suffix, ``#id``) stripped: the static analysis cannot
    see ranks or shard indices, so runtime edges are matched by this."""
    fam = re.sub(r"@rank\d+", "", name)
    fam = re.sub(r"\.d\d+", "", fam)
    return re.sub(r"#\d+", "", fam)


class OrderWitness:
    """Collects runtime lock-order edges (``order.edge`` instants).

    Edges are keyed by :func:`witness_family` so one logical edge
    observed on any rank matches one static edge.  ``names`` keeps an
    example concrete pair per family edge for reporting."""

    def __init__(self) -> None:
        #: (held_family, acquired_family) -> observation count.
        self.edges: Dict[Tuple[str, str], int] = {}
        #: family edge -> one concrete (held_name, acquired_name) pair.
        self.names: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def attach(self, bus) -> "OrderWitness":
        bus.subscribe(self._on_event, categories=("check",))
        return self

    def _on_event(self, ev) -> None:
        if ev.name != "order.edge":
            return
        acquired = ev.args["acquired"]
        for held in ev.args["held"]:
            key = (witness_family(held), witness_family(acquired))
            self.edges[key] = self.edges.get(key, 0) + 1
            self.names.setdefault(key, (held, acquired))


@dataclass
class SanitizeResult:
    """What :func:`sanitize_experiment` hands back to the CLI."""

    name: str
    sanitizer: LocksetSanitizer
    result: object = field(repr=False, default=None)


def sanitize_experiment(name: str, quick: bool = True, seed: int = 1):
    """Run one registered experiment under simsan and return a
    :class:`SanitizeResult`.  Imports are lazy: ``repro.check`` must not
    drag the whole experiment registry in at lint time."""
    from ..experiments.registry import run_experiment
    from ..obs import Instrument

    bus = Instrument()
    san = LocksetSanitizer().attach(bus)
    result = run_experiment(name, quick=quick, seed=seed, obs=bus)
    return SanitizeResult(name=name, sanitizer=san, result=result)


def run_order_witness(name: str, quick: bool = True, seed: int = 1):
    """Run one registered experiment with an :class:`OrderWitness`
    attached and return ``(witness, result)``.  Same lazy-import
    contract as :func:`sanitize_experiment`."""
    from ..experiments.registry import run_experiment
    from ..obs import Instrument

    bus = Instrument()
    witness = OrderWitness().attach(bus)
    result = run_experiment(name, quick=quick, seed=seed, obs=bus)
    return witness, result

"""Cluster builder: nodes x ranks x threads, with bindings and locks.

:class:`Cluster` wires together every substrate -- one simulator, one
fabric, a machine per node, one runtime (with its own global critical
section) per rank, and pinned :class:`MpiThread` handles for workloads.

Core assignment follows the paper's setups:

* one rank per node: threads bound over the whole node by the configured
  binding policy (compact/scatter; paper 4.2);
* several ranks per node: the node's cores are split into contiguous
  chunks, one per rank (e.g. Fig. 12's four processes x two threads).

``async_progress=True`` forks MPICH's asynchronous progress thread on
every rank (paper 6.1.2): an endless LOW-priority progress poller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from ..faults import (
    FaultInjector,
    FaultPlan,
    ProgressStallError,
    ProgressWatchdog,
    parse_fault_plan,
)
from ..locks import LOCK_CLASSES, make_lock
from ..machine import BINDINGS, CostModel, Machine, ThreadCtx
from ..network import Fabric
from ..sim import Simulator
from .collectives import Communicator
from .parking import IdleProgress
from .runtime import COMPLETION_MODES, MpiRuntime, MpiThread
from .vci import CsPolicy, parse_cs_policy

if TYPE_CHECKING:
    from ..obs import Instrument

__all__ = ["ClusterConfig", "Cluster", "lock_name"]


def lock_name(lock: str, rank: int, policy: CsPolicy, domain: int) -> str:
    """Name of ``rank``'s lock for arbitration ``domain``:
    ``"<lock>@rank<N>"``, with ``".d<i>"`` only under several domains --
    lock RNG streams are keyed by name, so the global policy stays
    bit-for-bit identical to the pre-domain runtime."""
    if policy.n_domains == 1:
        return f"{lock}@rank{rank}"
    return f"{lock}@rank{rank}.d{domain}"


@dataclass(kw_only=True)
class ClusterConfig:
    """Cluster shape and runtime knobs.

    All fields are keyword-only (a positional ``ClusterConfig(2, 1, 8)``
    is unreadable and fragile as fields accrete), and the ``lock`` /
    ``binding`` names are validated here against their registries -- a
    typo fails at construction with the valid names listed, not deep
    inside ``Cluster.__init__``.
    """

    n_nodes: int = 2
    ranks_per_node: int = 1
    threads_per_rank: int = 1
    lock: str = "mutex"
    binding: str = "compact"
    seed: int = 0
    costs: CostModel = field(default_factory=CostModel)
    eager_threshold: int = 16384
    async_progress: bool = False
    #: Blocking-call completion strategy: "poll" (the paper's CS_YIELD
    #: loops, bit-identity baseline), "event" (paper 9 future work: the
    #: same loops, but a waiter with nothing to progress parks on the
    #: arrival/completion signal instead of spinning) or "continuation"
    #: (waiters park on that signal and only enter the critical section
    #: when there are packets to progress -- see DESIGN.md section 11).
    completion: str = "poll"
    #: Domain-mapping policy: "global" (the paper's single critical
    #: section) or a sharded spec like "per-vci:4" (see
    #: :mod:`repro.mpi.vci`); every domain lock is of class ``lock``.
    #: Parsed to a :class:`~repro.mpi.vci.CsPolicy` at construction.
    cs: "str | CsPolicy" = "global"
    #: Observability bus to attach (see :mod:`repro.obs`); None = no
    #: instrumentation overhead at all.
    obs: Optional[Instrument] = None
    #: Fault plan (:class:`~repro.faults.FaultPlan`), a spec string like
    #: ``"drop=0.01,dup=0.001"``, or None.  None / an inactive plan
    #: installs nothing -- the schedule is bit-identical to a build
    #: without the faults package.
    faults: "FaultPlan | str | None" = None
    #: ACK/retransmit layer (:mod:`repro.faults.reliability`) on or off;
    #: off is the pre-reliability instruction stream.
    reliability: bool = False

    def __post_init__(self) -> None:
        if self.lock not in LOCK_CLASSES:
            raise ValueError(
                f"unknown lock {self.lock!r}; valid locks: "
                f"{', '.join(sorted(LOCK_CLASSES))}"
            )
        if self.binding not in BINDINGS:
            raise ValueError(
                f"unknown binding {self.binding!r}; valid bindings: "
                f"{', '.join(sorted(BINDINGS))}"
            )
        if self.completion not in COMPLETION_MODES:
            raise ValueError(
                f"unknown completion mode {self.completion!r}; valid "
                f"modes: {', '.join(sorted(COMPLETION_MODES))}"
            )
        self.cs = parse_cs_policy(self.cs)
        if isinstance(self.faults, str):
            self.faults = parse_fault_plan(self.faults)
        if type(self.reliability) is not bool:
            raise TypeError(
                f"reliability must be True or False, got {self.reliability!r}"
            )

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node


class Cluster:
    """A simulated cluster ready to run MPI workloads."""

    def __init__(self, config: ClusterConfig):
        if config.n_nodes < 1 or config.ranks_per_node < 1:
            raise ValueError("need at least one node and one rank per node")
        if config.threads_per_rank < 1:
            raise ValueError("need at least one thread per rank")
        if config.binding not in BINDINGS:
            raise ValueError(
                f"unknown binding {config.binding!r}; expected one of {sorted(BINDINGS)}"
            )
        self.config = config
        self.sim = Simulator(seed=config.seed)
        if config.obs is not None:
            # Single attach point: everything holding this sim emits
            # through sim.obs.  Rebinding is deliberate -- sweep
            # experiments reuse one bus across many clusters.
            config.obs.bind_sim(self.sim)
        self.machines: List[Machine] = [
            Machine(node_id=n) for n in range(config.n_nodes)
        ]
        self.fabric = Fabric(self.sim)
        self.runtimes: List[MpiRuntime] = []
        self.threads: List[List[MpiThread]] = []
        self._progress_ctxs: List[ThreadCtx] = []
        self._shutdown = False
        #: Idle-stall hook: called (no args) when the simulation runs
        #: out of events with the stop condition still pending -- i.e.
        #: live threads exist but none can move.  The deadlock detector
        #: (:class:`repro.check.sanitize.DeadlockDetector`) checks the
        #: waits-for graph here; the original error still propagates.
        self.on_idle_stall = None

        # Fault machinery.  An inactive plan installs *nothing*: no
        # injector, no watchdog, no extra events -- the determinism
        # contract (see repro.faults).
        plan = config.faults
        self.fault_injector: Optional[FaultInjector] = None
        self.watchdog: Optional[ProgressWatchdog] = None
        if plan is not None and plan.active:
            self.fault_injector = FaultInjector(self.sim, plan)
            self.fabric.faults = self.fault_injector

        policy: CsPolicy = config.cs
        for rank in range(config.n_ranks):
            node = rank // config.ranks_per_node
            machine = self.machines[node]
            nic = self.fabric.register_rank(rank, node, n_vcis=policy.n_domains)
            # One lock per arbitration domain.
            locks = [
                make_lock(config.lock, self.sim, config.costs,
                          name=lock_name(config.lock, rank, policy, di))
                for di in range(policy.n_domains)
            ]
            rt = MpiRuntime(
                self.sim, rank, self.fabric, nic, locks, config.costs,
                eager_threshold=config.eager_threshold,
                completion=config.completion,
                policy=policy,
                reliability=config.reliability,
            )
            self.runtimes.append(rt)

            cores = self._rank_cores(machine, rank)
            ths = []
            for i in range(config.threads_per_rank):
                ctx = ThreadCtx(
                    next(self.sim.ids.tid), cores[i % len(cores)],
                    name=f"r{rank}t{i}", rank=rank,
                )
                ths.append(MpiThread(rt, ctx))
            self.threads.append(ths)
            if config.obs is not None:
                config.obs.declare_process(rank, f"rank {rank} (node {node})")
                for th in ths:
                    config.obs.declare_thread(rank, th.ctx.tid, th.ctx.name)

        self.world = Communicator.world(config.n_ranks)

        if config.async_progress:
            for rank in range(config.n_ranks):
                self._fork_progress_thread(rank)

        if self.fault_injector is not None and plan.watchdog_interval_ns > 0.0:
            self.watchdog = ProgressWatchdog(
                self, plan.watchdog_interval_ns * 1e-9, grace=plan.watchdog_grace,
            ).install()

    # ------------------------------------------------------------------
    def _rank_cores(self, machine: Machine, rank: int):
        cfg = self.config
        if cfg.ranks_per_node == 1:
            return BINDINGS[cfg.binding](machine, max(cfg.threads_per_rank, 1))
        rl = rank % cfg.ranks_per_node
        per_rank = max(1, machine.n_cores // cfg.ranks_per_node)
        chunk = machine.cores[rl * per_rank:(rl + 1) * per_rank]
        return chunk or [machine.cores[rl % machine.n_cores]]

    def _fork_progress_thread(self, rank: int) -> None:
        cfg = self.config
        machine = self.machines[rank // cfg.ranks_per_node]
        # Bind past the app threads: the progress thread gets the next
        # core after them (wrapping onto core 0 when oversubscribed).
        if cfg.ranks_per_node == 1:
            cores = BINDINGS[cfg.binding](machine, cfg.threads_per_rank + 1)
            core = cores[cfg.threads_per_rank]
        else:
            chunk = self._rank_cores(machine, rank)
            core = chunk[cfg.threads_per_rank % len(chunk)]
        ctx = ThreadCtx(next(self.sim.ids.tid), core, name=f"r{rank}async",
                        rank=rank)
        self._progress_ctxs.append(ctx)
        if cfg.obs is not None:
            cfg.obs.declare_thread(rank, ctx.tid, ctx.name)
        rt = self.runtimes[rank]
        idle = IdleProgress(self, rt, ctx)

        def loop():
            while not self._shutdown:
                yield from rt.progress_poke(ctx)
                if idle.ready():
                    # Idle rank: sleep the gap with nothing queued until
                    # the rank is touched (repro.mpi.parking).
                    yield idle
                else:
                    yield rt.costs.progress_gap

        self.sim.process(loop(), name=f"async-progress@{rank}")

    # ------------------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        return len(self.runtimes)

    def thread(self, rank: int, i: int = 0) -> MpiThread:
        return self.threads[rank][i]

    def spawn(self, gen, name: str = ""):
        """Start a workload process on the simulator."""
        return self.sim.process(gen, name=name)

    def run(self, procs: Optional[list] = None) -> None:
        """Run the simulation.

        With ``procs``: run until every listed process finishes, then
        shut down service threads (async progress) and drain.  Without:
        run the heap dry.

        A watchdog-detected stall surfaces as the underlying
        :class:`~repro.faults.ProgressStallError` (diagnostics attached)
        rather than a generic simulator crash.
        """
        from ..sim.engine import SimulationError
        try:
            if procs:
                self.sim.run(until=self.sim.all_of(procs))
                self._shutdown = True
                if self.watchdog is not None:
                    # Cancel the pending sample so the drain below ends
                    # at the last real event, not the next watchdog tick.
                    self.watchdog.stop()
            self.sim.run()
        except SimulationError as exc:
            self._shutdown = True
            cause = exc.__cause__
            if isinstance(cause, ProgressStallError):
                raise cause from None
            if self.on_idle_stall is not None:
                # Out of events with threads still live: let the
                # deadlock detector dump who waits on what before the
                # generic error propagates.
                self.on_idle_stall()
            raise

    def run_workload(self, generators, name: str = "workload") -> list:
        """Spawn one process per generator, run to completion, return
        their results in order."""
        procs = [
            self.sim.process(g, name=f"{name}[{i}]")
            for i, g in enumerate(generators)
        ]
        self.run(procs)
        return [p.value for p in procs]

    def __repr__(self) -> str:  # pragma: no cover
        c = self.config
        return (
            f"<Cluster {c.n_nodes}n x {c.ranks_per_node}r x {c.threads_per_rank}t "
            f"lock={c.lock} binding={c.binding}>"
        )

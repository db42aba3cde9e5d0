"""Cells: the runs experiments declare, and the one executor that runs them.

An experiment's ``declare(quick, seed)`` returns two parts: its cells,
frozen :class:`Cell` specs keyed by whatever its table needs
(``(size, threads)``, ``(lock, drop)``, ...), and ``reduce(results)``,
which builds the :class:`~repro.experiments.base.ExperimentResult` from
the same keys mapped to each cell's outcome.  A cell's :attr:`Cell.id` is
the :func:`~repro.experiments.base.canonical_id` of its spec, so figures
that read the same run -- Fig. 2a's, 3a's, 3c's, 5a's, 5c's and 8a's
8-thread throughput cells -- declare the same ID, and :func:`execute`
simulates it once for all of them.

A bus never changes a schedule, so an experiment that reads a run
through the bus (fig3a's lock trace) attaches a :attr:`Experiment.tap`
to the shared run instead of declaring a traced copy of it.

:func:`execute` is the only executor: ``repro run`` calls it with one
job, ``repro ablate`` with ``--jobs``, and then one pool task is one
cell plus the taps of the experiments that read it.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Hashable, Iterator, List, Mapping, Optional, Tuple,
    Union,
)

from ..faults import ProgressStallError
from ..mpi.world import Cluster, ClusterConfig
from ..obs import Instrument
from ..robust import RobustConfig
from ..workloads import run_latency, run_n2n, run_rma, run_service, run_throughput
from ..workloads.assembly import run_assembly
from ..workloads.bfs import run_bfs
from ..workloads.stencil import run_stencil
from ..workloads.throughput import _receiver_thread, _sender_thread
from .base import ExperimentResult, canonical_id, jsonable

__all__ = ["Cell", "Experiment", "KINDS", "Run", "cluster", "execute", "run_cell"]


def cluster(**kwargs: object) -> Dict[str, object]:
    """``ClusterConfig`` keyword arguments with every default filled in
    (``obs`` and ``seed`` excepted), so equal clusters spell equal specs."""
    return {**{
        f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
        for f in dataclasses.fields(ClusterConfig) if f.name not in ("obs", "seed")
    }, **kwargs}


@dataclass(frozen=True)
class Cell:
    """One simulation: a workload kind and its config on one cluster."""

    #: Key into :data:`KINDS`.
    kind: str
    #: Fully resolved ``ClusterConfig`` keyword arguments (:func:`cluster`).
    cluster: Mapping[str, object]
    #: The kind's workload config (``ThroughputConfig``, ...).
    workload: Any
    seed: int
    #: Service cells: run under ``RobustConfig(deadline_ns)``, or with no
    #: robustness config at all when None.
    deadline_ns: Optional[float] = None
    #: False keeps a caller's bus off this run, as fig_vci's degeneracy
    #: control is traced without it.  Not part of the run's identity.
    traced: bool = field(default=True, compare=False)

    @property
    def id(self) -> str:
        return canonical_id(jsonable({
            "kind": self.kind, "cluster": self.cluster,
            "workload": self.workload, "seed": self.seed,
            "deadline_ns": self.deadline_ns,
        }))

    def build(self, obs: Optional[Instrument] = None) -> Cluster:
        return Cluster(ClusterConfig(**self.cluster, seed=self.seed, obs=obs))


@dataclass(frozen=True)
class Run:
    """A workload cell's outcome: the workload's result plus the books
    fig_vci and fig_continuations read off the cluster."""

    value: Any
    #: Highest dangling-request count on any rank.
    peak_dangling: int
    #: Empty progress polls, and the polls continuation mode parked
    #: instead, summed over ranks.
    empty_polls: int
    parks: int


def _workload(fn: Callable[[Cluster, Cell], Any]) -> Callable[..., Run]:
    def run(cell: Cell, obs: Optional[Instrument]) -> Run:
        cl = cell.build(obs)
        value = fn(cl, cell)
        rts = cl.runtimes
        return Run(value, max(rt.peak_dangling for rt in rts),
                   sum(rt.stats.empty_polls for rt in rts),
                   sum(rt.stats.wasted_acquisitions_avoided for rt in rts))
    return run


def _teams(cl: Cluster, cell: Cell) -> list:
    """The throughput benchmark's sender and receiver threads."""
    n, cfg = cl.config.threads_per_rank, cell.workload
    return ([_sender_thread(cl.thread(0, i), cfg, 1) for i in range(n)]
            + [_receiver_thread(cl.thread(1, i), cfg, 0) for i in range(n)])


def _goodput(cell: Cell, obs: Optional[Instrument]) -> tuple:
    """fig_chaos: the message rate at workload completion (not after the
    service drain), retransmits and drops."""
    cl = cell.build(obs)
    procs = [cl.sim.process(g, name=f"chaos[{i}]")
             for i, g in enumerate(_teams(cl, cell))]
    t0 = cl.sim.now
    cl.sim.run(until=cl.sim.all_of(procs))
    elapsed = cl.sim.now - t0
    cl._shutdown = True
    if cl.watchdog is not None:
        cl.watchdog.stop()
    cl.sim.run()
    cfg = cell.workload
    total = cl.config.threads_per_rank * cfg.window * cfg.n_windows
    rate_k = total / elapsed / 1e3
    retransmits = sum(rt.rel_stats.retransmits for rt in cl.runtimes)
    drops = cl.fault_injector.stats.drops if cl.fault_injector else 0
    return rate_k, retransmits, drops


def _watchdog(cell: Cell, _obs: Optional[Instrument]) -> tuple:
    """fig_chaos: a lossy run without reliability must end through the
    watchdog (not hang), with a diagnostic dump on its own bus."""
    bus = Instrument()
    faults = []
    bus.subscribe(faults.append, categories=("fault",))
    cl = cell.build(bus)
    stalled, diagnostics = False, None
    try:
        cl.run_workload(_teams(cl, cell), name="chaos-norel")
    except ProgressStallError as exc:
        stalled, diagnostics = True, exc.diagnostics
    return stalled, any(ev.name == "watchdog.stall" for ev in faults), diagnostics


def _service(cl: Cluster, cell: Cell):
    robust = None if cell.deadline_ns is None else RobustConfig(cell.deadline_ns)
    return run_service(cl, cell.workload, robust)


#: Workload kind -> ``(cell, bus or None) -> outcome``.
KINDS: Dict[str, Callable[[Cell, Optional[Instrument]], Any]] = {
    "throughput": _workload(lambda cl, c: run_throughput(cl, c.workload)),
    "latency": _workload(lambda cl, c: run_latency(cl, c.workload)),
    "n2n": _workload(lambda cl, c: run_n2n(cl, c.workload)),
    "rma": _workload(lambda cl, c: run_rma(cl, c.workload)),
    "bfs": _workload(lambda cl, c: run_bfs(cl, c.workload)),
    "stencil": _workload(lambda cl, c: run_stencil(cl, c.workload)),
    "assembly": _workload(lambda cl, c: run_assembly(cl, c.workload)),
    "service": _workload(_service),
    "goodput": _goodput,
    "watchdog": _watchdog,
}


def run_cell(cell: Cell, obs: Optional[Instrument] = None) -> Any:
    """Simulate one cell; ``obs`` reaches it unless it is untraced."""
    return KINDS[cell.kind](cell, obs if cell.traced else None)


Outcome = Union[ExperimentResult, Exception]
Reduce = Callable[[Mapping[Hashable, Any]], ExperimentResult]
Tap = Callable[[Instrument, Cell], Callable[[], Any]]


@dataclass(frozen=True)
class Experiment:
    """One figure: ``declare(quick, seed)`` returns its cells and the
    reduce over their outcomes."""

    declare: Callable[[bool, int], Tuple[Mapping[Hashable, Cell], Reduce]]
    #: Subscribes to the bus of each of this experiment's runs (a
    #: top-level function, so a worker process can receive it) and
    #: returns what collects the reading after it; ``reduce`` then gets
    #: the readings instead of the outcomes.
    tap: Optional[Tap] = None

    def __call__(
        self, quick: bool = True, seed: int = 0, obs: Optional[Instrument] = None,
    ) -> ExperimentResult:
        ((_, result),) = execute({"": self}, quick, seed, obs)
        if isinstance(result, Exception):
            raise result
        return result


def execute(
    experiments: Mapping[str, Experiment],
    quick: bool = True,
    seed: int = 0,
    obs: Optional[Instrument] = None,
    jobs: int = 1,
) -> Iterator[Tuple[str, Outcome]]:
    """Run the union of the experiments' cells, each distinct cell ID
    once and in first-declared order, and reduce each experiment.

    Yields ``(name, result)`` in mapping order, each as soon as that
    experiment and every one before it are reduced.  With ``jobs == 1``
    or a caller's bus ``obs`` (which reaches every traced run) the cells
    run in this process; otherwise on a spawn process pool of at most
    ``jobs`` workers, never more than this process may run on.  A cell
    that raises fails exactly the experiments that declared it (a worker
    that dies breaks the pool, which fails every cell not yet done), and
    a raising declaration or reduce fails its own: their result is the
    exception.
    """
    declared: Dict[str, Union[Dict[Hashable, str], Exception]] = {}
    reduces: Dict[str, Reduce] = {}
    runs: Dict[str, Cell] = {}
    # Cell ID -> the taps of the experiments that read it.
    taps: Dict[str, Dict[str, Tap]] = {}
    for name, exp in experiments.items():
        try:
            cells, reduces[name] = exp.declare(quick, seed)
        except Exception as exc:
            declared[name] = exc
            continue
        declared[name] = {k: c.id for k, c in cells.items()}
        for cid, c in zip(declared[name].values(), cells.values()):
            runs.setdefault(cid, c)
            readers = taps.setdefault(cid, {})
            if exp.tap is not None:
                readers[name] = exp.tap
    done: Dict[str, Tuple[Any, Dict[str, Any]]] = {}
    waiting = list(experiments)

    def reduced() -> List[Tuple[str, Outcome]]:
        """Reduce the waiting experiments, in order, up to the first
        with a cell still to run."""
        out = []
        while waiting and (isinstance(declared[waiting[0]], Exception)
                           or all(cid in done for cid in declared[waiting[0]].values())):
            name = waiting.pop(0)
            out.append((name, _reduce(name, experiments[name], reduces.get(name),
                                      declared[name], done)))
        return out

    yield from reduced()
    workers = min(jobs, len(os.sched_getaffinity(0)), len(runs))
    if obs is not None or workers <= 1:
        for cid, cell in runs.items():
            done[cid] = _run(cell, taps[cid], obs)
            yield from reduced()
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        futures = {pool.submit(_run, cell, taps[cid]): cid for cid, cell in runs.items()}
        for fut in as_completed(futures):
            try:
                done[futures[fut]] = fut.result()
            except Exception as exc:  # a worker died and broke the pool
                done[futures[fut]] = exc, {}
            yield from reduced()
    finally:
        pool.shutdown(cancel_futures=True)


def _run(
    cell: Cell, taps: Mapping[str, Tap], obs: Optional[Instrument] = None,
) -> Tuple[Any, Dict[str, Any]]:
    """Simulate ``cell`` with its readers' taps on its bus: its outcome
    (or the exception that failed it) and each reader's reading."""
    bus = obs if obs is not None or not taps else Instrument()
    try:
        collect = {name: tap(bus, cell) for name, tap in taps.items()}
        outcome = run_cell(cell, bus)
        return outcome, {name: reading() for name, reading in collect.items()}
    except Exception as exc:
        return exc, {}


def _reduce(name, exp, reduce, ids, done) -> Outcome:
    if isinstance(ids, Exception):
        return ids
    for cid in ids.values():
        if isinstance(done[cid][0], Exception):
            return done[cid][0]
    try:
        return reduce({key: done[cid][1][name] if exp.tap else done[cid][0]
                       for key, cid in ids.items()})
    except Exception as exc:
        return exc

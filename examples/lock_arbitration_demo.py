#!/usr/bin/env python
"""Watch a pthread mutex monopolize a critical section on a NUMA node.

Hammers each lock with one thread per core, then prints who actually got
the lock: acquisition share per thread, the longest monopoly run, and
the paper's 4.3 core/socket bias factors.

    python examples/lock_arbitration_demo.py [--lock mutex] [--duration-us 300]
"""

import argparse

from repro.analysis import compute_bias_factors, format_table
from repro.locks import LOCK_CLASSES, LockTrace, make_lock
from repro.machine import NS, CostModel, ThreadCtx, nehalem_node
from repro.obs import Instrument
from repro.sim import Simulator


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lock", choices=sorted(LOCK_CLASSES), default="mutex")
    ap.add_argument("--threads", type=int, default=8)
    ap.add_argument("--duration-us", type=float, default=300.0)
    ap.add_argument("--hold-ns", type=float, default=200.0)
    ap.add_argument("--gap-ns", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    sim = Simulator(seed=args.seed)
    machine = nehalem_node()
    lock = make_lock(args.lock, sim, CostModel())
    # The acquisition trace is read off the observability bus.
    trace = LockTrace.from_bus(Instrument().bind_sim(sim), lock_name=lock.name)
    horizon = args.duration_us * 1e-6

    threads = [
        ThreadCtx(machine.core(i % machine.n_cores), name=f"t{i}")
        for i in range(args.threads)
    ]

    def worker(ctx):
        while sim.now < horizon:
            yield from lock.acquire(ctx)
            yield sim.timeout(args.hold_ns * NS)
            extra = lock.release(ctx)
            yield sim.timeout(args.gap_ns * NS + extra)

    for t in threads:
        sim.process(worker(t))
    sim.run()

    counts = trace.acquisitions_by_tid()
    total = sum(counts.values())
    rows = [
        [t.name, f"core {t.core.index}", f"socket {t.socket}",
         counts.get(t.tid, 0), f"{100 * counts.get(t.tid, 0) / total:.1f}%"]
        for t in threads
    ]
    print(format_table(
        ["thread", "core", "socket", "acquisitions", "share"],
        rows, title=f"{args.lock} lock, {args.threads} threads, "
                    f"{args.duration_us:.0f} us of contention",
    ))

    run_len = best = 1
    tids = trace.tids
    for a, b in zip(tids, tids[1:]):
        run_len = run_len + 1 if a == b else 1
        best = max(best, run_len)
    print(f"\nconsecutive-reacquire fraction: "
          f"{trace.consecutive_reacquire_fraction():.2f}")
    print(f"longest monopoly run: {best} acquisitions in a row")
    bias = compute_bias_factors(trace)
    print(f"core-level bias factor:   {bias.core_bias:.2f}  (fair = 1.0)")
    print(f"socket-level bias factor: {bias.socket_bias:.2f}  (fair = 1.0)")


if __name__ == "__main__":
    main()

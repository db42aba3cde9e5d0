"""Micro-benchmark: graceful degradation of the open-loop service.

Runs the :mod:`repro.workloads.service` workload at three operating
points and records, per cell:

* **events_per_sec** -- host-side simulator throughput (what the
  service/robustness machinery costs *us*);
* **goodput_rps** -- simulated replies within SLO per second;
* **p50/p99/p999 (us)** -- reply latency percentiles;
* shed / expired / retry counters.

Cells:

* ``prot-0.8x``  -- full protection at 80% of nominal capacity (the
  goodput and latency peak);
* ``prot-1.5x``  -- full protection at 1.5x capacity: deadline-aware
  shedding keeps latency near the deadline;
* ``none-1.5x``  -- no protection at the same overload: the open-loop
  queue grows without bound and p99 explodes.

**Graceful-degradation gate** (enforced by ``perf-smoke`` CI via
``results/BENCH_service.json``): protected p99 at 1.5x saturation must
stay within ``GATE_P99_RATIO`` (5x) of protected p99 at 0.8x.  The
unprotected cell is recorded for contrast and intentionally ungated::

    PYTHONPATH=src python benchmarks/bench_service.py
"""

from __future__ import annotations

import json
import pathlib
import time

from repro.robust import RobustConfig
from repro.workloads import ServiceConfig, run_service, service_cluster

RESULTS = pathlib.Path(__file__).parent / "results" / "BENCH_service.json"

THREADS = 2
SERVICE_NS = 20_000.0
SLO_NS = 250_000.0
DURATION_S = 0.006
#: Nominal per-rank capacity (requests/s).
CAPACITY = THREADS / (SERVICE_NS * 1e-9)
#: perf-smoke gate: p99(prot @1.5x) <= GATE_P99_RATIO * p99(prot @0.8x).
GATE_P99_RATIO = 5.0

CELLS = (
    ("prot-0.8x", 0.8, True),
    ("prot-1.5x", 1.5, True),
    ("none-1.5x", 1.5, False),
)


def bench_one(name: str, load: float, protected: bool, seed: int = 1) -> dict:
    cl = service_cluster(lock="priority", threads_per_rank=THREADS, seed=seed)
    # Count at _push (the single queue funnel): process sleeps and
    # timers schedule directly through it, bypassing _schedule.  A
    # measurement shim, not a queue consumer, so the encapsulation rule
    # is waived on these two lines only.
    n_events = 0
    push = cl.sim._push  # simlint: disable=queue-encapsulation

    def counting_push(entry):
        nonlocal n_events
        n_events += 1
        return push(entry)

    cl.sim._push = counting_push  # simlint: disable=queue-encapsulation
    cfg = ServiceConfig(
        rate_hz=load * CAPACITY, duration_s=DURATION_S,
        service_ns=SERVICE_NS, slo_ns=SLO_NS,
    )
    robust = RobustConfig.protected(deadline_ns=SLO_NS) if protected else None
    t0 = time.perf_counter()  # simlint: disable=wall-clock
    res = run_service(cl, cfg, robust)
    wall = time.perf_counter() - t0  # simlint: disable=wall-clock
    return {
        "cell": name,
        "load": load,
        "protected": protected,
        "events": n_events,
        "wall_s": round(wall, 4),
        "events_per_sec": round(n_events / wall),
        "offered": res.offered,
        "goodput_rps": res.goodput_rps,
        "p50_us": round(res.p50_us, 2),
        "p99_us": round(res.p99_us, 2),
        "p999_us": round(res.p999_us, 2),
        "shed": res.shed,
        "expired": res.expired,
        "retries": res.retries,
        "peak_backlog": res.peak_backlog,
    }


def main() -> None:
    rows = [bench_one(name, load, prot) for name, load, prot in CELLS]
    by = {r["cell"]: r for r in rows}
    ratio = by["prot-1.5x"]["p99_us"] / max(by["prot-0.8x"]["p99_us"], 1e-9)
    gate_ok = ratio <= GATE_P99_RATIO
    payload = {
        "bench": (
            "open-loop service graceful degradation "
            f"(2x1 rank pairs, {THREADS} threads/rank)"
        ),
        "capacity_rps": CAPACITY,
        "slo_ns": SLO_NS,
        "gate_p99_ratio_max": GATE_P99_RATIO,
        "gate_p99_ratio": round(ratio, 4),
        "gate_ok": gate_ok,
        "rows": rows,
    }
    RESULTS.parent.mkdir(exist_ok=True)
    RESULTS.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'cell':>10} {'events':>9} {'ev/s':>9} {'goodput':>9} "
          f"{'p50':>7} {'p99':>8} {'p999':>8} {'shed':>5} {'rtry':>5}")
    for r in rows:
        print(f"{r['cell']:>10} {r['events']:>9} {r['events_per_sec']:>9} "
              f"{r['goodput_rps']:>9.0f} {r['p50_us']:>7.1f} "
              f"{r['p99_us']:>8.1f} {r['p999_us']:>8.1f} "
              f"{r['shed']:>5} {r['retries']:>5}")
    print(f"degradation gate: p99 ratio {ratio:.2f} <= {GATE_P99_RATIO} "
          f"-> {'OK' if gate_ok else 'FAIL'}")
    print(f"written to {RESULTS}")
    if not gate_ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
"""Beyond the paper: open-loop service under overload and loss.

The paper's figures stop at closed-loop microbenchmarks; this experiment
drives the :mod:`repro.workloads.service` open-loop RPC workload across
the same runtime variants the paper compares (lock class, VCI sharding,
completion mode) and asks the *robustness* question: what happens past
the knee?  Three variants (``<lock>/<cs>/event``) run the
``service_cluster`` default, ``completion="event"``: waiters poll, but
park on arrivals instead of sleeping the yield gap after an empty poll.
The fourth (``priority/global/cont``) runs continuation completion.

Four traffic cells per variant:

* ``0.8x prot``  -- clean fabric, 80% of nominal capacity, full
  protection (deadlines + retry budget + deadline-aware shedding).
  This is the goodput peak.
* ``1.5x prot``  -- same protection, offered load 1.5x capacity.  The
  graceful-degradation claim: goodput holds >= 70% of peak, p99 stays
  within 5x of the 0.8x cell's and p999 stays bounded near the
  deadline, because expired work is shed for a few microseconds
  instead of served for tens.
* ``1.5x none``  -- the unprotected baseline at the same overload.  An
  open-loop queue grows without bound, every reply is late, and
  goodput collapses (< 40% of peak) even though the server never
  stops serving: the collapse the remedies exist to prevent.
* ``0.8x lossy`` -- 1% internode drop with the transport reliability
  layer *off*: recovery is entirely client-side (retry budget +
  deadlines + the server's replay cache deduplicating retries).

The unprotected overload cell is bounded in simulated time because the
arrival horizon is finite; every queued request is eventually served,
just hopelessly late.

Also pinned here: the zero-fault, no-overload determinism contract --
a run with ``RobustConfig.none()`` is bit-identical (result fingerprint
over arrivals, issue schedule, shed decisions, outcomes) to a run that
never passes a robustness config at all.
"""

from __future__ import annotations

from ..workloads.service import ServiceConfig
from .base import ExperimentResult
from .cells import Cell, Experiment, cluster

__all__ = ["FIG_SERVICE"]

#: (label, lock, cs policy, completion) -- the remedy axes under load.
VARIANTS = (
    ("mutex/global/event", "mutex", "global", "event"),
    ("priority/global/event", "priority", "global", "event"),
    ("priority/per-vci:2/event", "priority", "per-vci:2", "event"),
    ("priority/global/cont", "priority", "global", "continuation"),
)
#: Checks are asserted against this variant (reported for all).
REFERENCE = "priority/global/event"


def _fig_service(quick: bool, seed: int):
    threads = 2 if quick else 4
    duration = 0.006 if quick else 0.012
    service_ns = 20_000.0
    slo_ns = 250_000.0
    # Nominal capacity: threads serving service_ns each, per rank.
    capacity = threads / (service_ns * 1e-9)
    base = dict(
        duration_s=duration, service_ns=service_ns, slo_ns=slo_ns,
    )
    cfg_08 = ServiceConfig(rate_hz=0.8 * capacity, **base)
    cfg_15 = ServiceConfig(rate_hz=1.5 * capacity, **base)

    def service(variant, cfg, deadline_ns, **faults) -> Cell:
        _, lock, cs, completion = variant
        return Cell("service", cluster(
            threads_per_rank=threads, lock=lock, cs=cs,
            completion=completion, **faults,
        ), cfg, seed, deadline_ns)

    runs = {}
    for variant in VARIANTS:
        label = variant[0]
        runs[(label, "peak")] = service(variant, cfg_08, slo_ns)
        runs[(label, "over_prot")] = service(variant, cfg_15, slo_ns)
        runs[(label, "over_none")] = service(variant, cfg_15, None)
        runs[(label, "lossy")] = service(
            variant, cfg_08, slo_ns, faults="drop=0.01", reliability=False,
        )
    # Determinism: robustness disabled vs. absent, bit-identical.
    ident_cfg = ServiceConfig(rate_hz=0.5 * capacity, duration_s=0.002, **{
        k: v for k, v in base.items() if k != "duration_s"
    })
    runs["absent"] = service(VARIANTS[1], ident_cfg, None)
    runs["disabled"] = service(VARIANTS[1], ident_cfg, 0.0)

    def reduce(results) -> ExperimentResult:
        ident_a = results.pop("absent").value
        ident_b = results.pop("disabled").value
        cells = {k: r.value for k, r in results.items()}

        rows = []
        for variant in VARIANTS:
            label = variant[0]
            peak = cells[(label, "peak")]
            over = cells[(label, "over_prot")]
            none = cells[(label, "over_none")]
            lossy = cells[(label, "lossy")]
            gp = peak.goodput_rps or 1.0
            rows.append([
                label,
                f"{peak.goodput_rps / 1e3:.1f}",
                f"{over.goodput_rps / 1e3:.1f} ({over.goodput_rps / gp:.2f}x, "
                f"{over.shed} shed)",
                f"{none.goodput_rps / 1e3:.1f} ({none.goodput_rps / gp:.2f}x)",
                f"{lossy.goodput_rps / 1e3:.1f} ({lossy.retries} rtry)",
                f"{over.p99_us:.0f}/{over.p999_us:.0f}",
                f"{none.p99_us:.0f}/{none.p999_us:.0f}",
            ])

        ref_peak = cells[(REFERENCE, "peak")]
        ref_over = cells[(REFERENCE, "over_prot")]
        ref_none = cells[(REFERENCE, "over_none")]
        ref_lossy = cells[(REFERENCE, "lossy")]
        gp = ref_peak.goodput_rps or 1.0
        worst_prot = min(
            cells[(v[0], "over_prot")].goodput_rps
            / (cells[(v[0], "peak")].goodput_rps or 1.0)
            for v in VARIANTS
        )

        worst_p99 = max(
            cells[(v[0], "over_prot")].p99_us
            / max(cells[(v[0], "peak")].p99_us, 1e-9)
            for v in VARIANTS
        )

        checks = {
            "protected goodput at 1.5x saturation >= 70% of peak "
            "(every variant)": worst_prot >= 0.70,
            "protected p99 at 1.5x <= 5x protected p99 at 0.8x "
            "(every variant)": worst_p99 <= 5.0,
            "unprotected baseline collapses at 1.5x (< 40% of peak, "
            "reference variant)": ref_none.goodput_rps < 0.40 * gp,
            "protected p999 stays bounded under overload (<= 2x SLO)":
                ref_over.p999_us <= 2.0 * slo_ns * 1e-3,
            "shedding engaged under overload (reference variant)":
                ref_over.shed > 0,
            "lossy cell recovers via client retries (goodput >= 60% of "
            "clean peak, retries > 0)":
                ref_lossy.goodput_rps >= 0.60 * gp and ref_lossy.retries > 0,
            "retries deduplicated at the server (replay cache)":
                ref_lossy.dedup_hits > 0,
            "robustness disabled is bit-identical to absent":
                ident_a == ident_b and ident_a.fingerprint == ident_b.fingerprint,
        }

        return ExperimentResult(
            exp_id="fig_service",
            title=(
                "open-loop RPC service under overload and loss: goodput "
                f"(10^3 req/s within {slo_ns / 1e3:.0f}us SLO), "
                f"{threads} threads/rank, capacity {capacity / 1e3:.0f}k req/s"
            ),
            headers=[
                "variant", "peak 0.8x", "1.5x protected", "1.5x unprotected",
                "0.8x lossy 1%", "prot p99/p999 us", "none p99/p999 us",
            ],
            rows=rows,
            checks=checks,
            data={
                "capacity_rps": capacity,
                "cells": {k: v for k, v in cells.items()},
                "identity_fingerprint": ident_a.fingerprint,
            },
            notes=[
                "protection = deadline stamps (= SLO) + deadline-aware "
                "admission (served => meets deadline) + retry budget",
                "the unprotected open-loop queue grows ~0.5x offered rate; "
                "every reply is eventually delivered but misses the SLO",
                f"worst protected retention across variants: {worst_prot:.2f}x",
                "lossy cell runs with transport reliability OFF: recovery is "
                "client retries + server replay-cache dedup end to end",
            ],
        )
    return runs, reduce


FIG_SERVICE = Experiment(_fig_service)

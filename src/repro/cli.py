"""Command-line interface.

::

    python -m repro list                     # experiments and what they show
    python -m repro run fig5c                # run one figure, print its table
    python -m repro run all                  # run everything
    python -m repro run fig2b --format json  # machine-readable result
    python -m repro trace fig2a --out trace.json   # Chrome trace of a run
    python -m repro locks                    # available locking methods
    python -m repro spec                     # Table 1 machine specification
    python -m repro throughput --lock ticket --threads 8 --size 64
    python -m repro lint                     # simlint over src/repro
    python -m repro lint --list-rules        # rule catalogue
    python -m repro lint --format json       # machine-readable findings
    python -m repro deadcheck src            # lock-order / deadlock analysis
    python -m repro deadcheck --order-witness fig_vci --quick
                                             # diff static edges vs runtime
    python -m repro sanitize fig2 --quick    # lockset-sanitize fig2a+fig2b
    python -m repro ablate --experiments fig2 --jobs 2 --report
                                             # component ablation matrix
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis import format_table
from .experiments import EXPERIMENTS, run_experiment
from .experiments.registry import EXPERIMENT_TITLES, select_experiments
from .locks import LOCK_CLASSES
from .machine import MachineSpec

__all__ = ["main"]


def _cmd_list(args) -> int:
    rows = [
        [name, EXPERIMENT_TITLES.get(name, "")] for name in EXPERIMENTS
    ]
    print(format_table(["experiment", "reproduces"], rows,
                       title="Reproduced tables and figures"))
    return 0


def _cmd_run(args) -> int:
    names = list(EXPERIMENTS) if args.name == "all" else [args.name]
    if args.name != "all" and args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    failed = []
    errored = []
    results = []
    for name in names:
        # One raising experiment must not eat the rest of a sweep (or
        # the whole JSON payload): record it, keep going, exit non-zero.
        try:
            res = run_experiment(name, quick=not args.paper, seed=args.seed)
        except Exception as exc:
            errored.append(name)
            entry = {"exp_id": name, "error": f"{type(exc).__name__}: {exc}"}
            if args.format == "json":
                results.append(entry)
            else:
                print(f"[{name}] ERROR: {entry['error']}", file=sys.stderr)
            continue
        if args.format == "json":
            results.append(res.to_dict())
        else:
            print(res.format())
            print()
        if not res.ok:
            failed.append(name)
    if args.format == "json":
        payload = results[0] if args.name != "all" else results
        print(json.dumps(payload, indent=2))
    if errored:
        print(f"experiments ERRORED: {', '.join(errored)}", file=sys.stderr)
    if failed:
        print(f"shape checks FAILED for: {', '.join(failed)}", file=sys.stderr)
    return 1 if (failed or errored) else 0


def _cmd_trace(args) -> int:
    from .obs import Recording

    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    categories = tuple(
        c.strip() for c in args.categories.split(",") if c.strip()
    )
    rec = Recording(categories=categories, max_events=args.max_events)
    res = run_experiment(args.name, quick=not args.paper, seed=args.seed,
                         obs=rec.bus)
    rec.write_chrome_trace(args.out)
    if args.counters:
        with open(args.counters, "w") as fh:
            json.dump(rec.counters_dump(), fh, indent=2)
    print(rec.summary())
    print()
    print(f"[{res.exp_id}] shape checks: "
          f"{'all pass' if res.ok else 'FAILED: ' + ', '.join(res.failed_checks())}")
    print(f"chrome trace written to {args.out} "
          f"(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.counters:
        print(f"counter series written to {args.counters}")
    return 0 if res.ok else 1


def _cmd_locks(args) -> int:
    rows = []
    for name, cls in LOCK_CLASSES.items():
        doc = (cls.__doc__ or "").strip().splitlines()
        rows.append([name, cls.__name__, doc[0] if doc else ""])
    print(format_table(["name", "class", "description"], rows,
                       title="Critical-section arbitration methods"))
    return 0


def _cmd_spec(args) -> int:
    spec = MachineSpec()
    rows = [
        ["Architecture", spec.architecture],
        ["Processor", spec.processor],
        ["Clock frequency", f"{spec.clock_ghz} GHz"],
        ["Number of sockets", spec.n_sockets],
        ["Cores per socket", spec.cores_per_socket],
        ["L3 Size", f"{spec.l3_kib} KB"],
        ["L2 Size", f"{spec.l2_kib} KB"],
        ["Interconnect", spec.interconnect],
    ]
    print(format_table(["property", "value"], rows,
                       title="Simulated testbed (paper Table 1)"))
    return 0


def _cmd_throughput(args) -> int:
    from .workloads import ThroughputConfig, run_throughput, throughput_cluster

    try:
        cluster = throughput_cluster(
            lock=args.lock, threads_per_rank=args.threads,
            binding=args.binding, seed=args.seed, cs=args.cs,
            faults=args.faults, reliability=args.retransmit,
        )
    except ValueError as exc:
        print(f"throughput: error: {exc}", file=sys.stderr)
        return 2
    res = run_throughput(cluster, ThroughputConfig(
        msg_size=args.size, n_windows=args.windows))
    rows = [[args.lock, cluster.config.cs.spec(), args.threads, args.size,
             f"{res.msg_rate_k:.0f}", f"{res.dangling.mean:.1f}"]]
    headers = ["lock", "cs", "threads", "size (B)", "rate (10^3 msg/s)",
               "avg dangling"]
    inj = cluster.fault_injector
    if inj is not None or args.retransmit:
        headers += ["faults", "drops", "retransmits"]
        drops = inj.stats.drops if inj is not None else 0
        retx = sum(
            rt.rel_stats.retransmits for rt in cluster.runtimes
            if rt.rel_stats is not None
        )
        rows[0] += [str(cluster.config.faults or "none"), str(drops), str(retx)]
    print(format_table(headers, rows, title="pt2pt throughput"))
    return 0


def _cmd_lint(args) -> int:
    from .check.lint import RULES, LintError, format_findings, run_lint

    if args.list_rules:
        rows = []
        for name, fn in sorted(RULES.items()):
            doc = (fn.__doc__ or "").strip().splitlines()
            rows.append([name, doc[0] if doc else ""])
        print(format_table(["rule", "checks"], rows, title="simlint rules"))
        return 0
    paths = args.paths
    if not paths:
        # Default target: the package sources, wherever they're installed.
        import repro

        paths = [str(next(iter(repro.__path__)))]
    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        findings = run_lint(paths, select=select, exclude=args.exclude or ())
    except LintError as exc:
        print(f"simlint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        from .check.lint import format_findings_json

        out = format_findings_json(findings)
        if out:
            print(out)
    else:
        print(format_findings(findings))
    return 1 if findings else 0


def _cmd_deadcheck(args) -> int:
    from .check.deadcheck import (
        DeadcheckError,
        classify_witness,
        format_report,
        run_deadcheck,
    )
    from .check.lint import format_findings_json

    paths = args.paths
    if not paths:
        import repro

        paths = [str(next(iter(repro.__path__)))]
    try:
        result = run_deadcheck(paths, exclude=args.exclude or ())
    except DeadcheckError as exc:
        print(f"deadcheck: error: {exc}", file=sys.stderr)
        return 2
    findings = list(result.findings)
    witness_lines = []
    if args.order_witness:
        from .check.sanitize import run_order_witness

        names = select_experiments(args.order_witness)
        if not names:
            print(f"unknown experiment {args.order_witness!r}; "
                  "try `python -m repro list`", file=sys.stderr)
            return 2
        runtime_edges = {}
        for name in names:
            witness, _res = run_order_witness(
                name, quick=not args.paper, seed=args.seed,
            )
            for edge, n in witness.edges.items():
                runtime_edges[edge] = runtime_edges.get(edge, 0) + n
        findings.extend(classify_witness(result, runtime_edges))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        witness_lines.append(
            f"order witness over {', '.join(names)}: "
            f"{len(runtime_edges)} distinct runtime edge(s)"
        )
        for held, acq in result.confirmed:
            witness_lines.append(f"  confirmed:    {held} -> {acq} "
                                 f"(seen {runtime_edges[(held, acq)]}x)")
        for held, acq in result.unwitnessed:
            witness_lines.append(f"  unwitnessed:  {held} -> {acq}")
        for held, acq in result.runtime_only:
            witness_lines.append(f"  RUNTIME-ONLY: {held} -> {acq}")
    if args.format == "json":
        out = format_findings_json(findings)
        if out:
            print(out)
    else:
        for line in witness_lines:
            print(line)
        print(format_report(result, findings))
    return 1 if findings else 0


def _cmd_sanitize(args) -> int:
    from .check.sanitize import sanitize_experiment

    # Prefix expansion: "fig2" covers fig2a and fig2b.
    names = select_experiments(args.name)
    if not names:
        print(f"unknown experiment {args.name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    bad = []
    for name in names:
        out = sanitize_experiment(name, quick=not args.paper, seed=args.seed)
        san = out.sanitizer
        print(f"== {name} ==")
        print(san.report())
        if not out.result.ok:
            print(f"shape checks FAILED: {', '.join(out.result.failed_checks())}")
        print()
        if not san.ok or not out.result.ok:
            bad.append(name)
    if bad:
        print(f"simsan FAILED for: {', '.join(bad)}", file=sys.stderr)
        return 1
    print("simsan: all runs clean")
    return 0


def _cmd_ablate(args) -> int:
    from .analysis.ablation import (
        COMPONENTS,
        build_matrix,
        importance_report,
        run_matrix,
    )

    names = select_experiments(args.experiments)
    if not names:
        print(f"unknown experiment {args.experiments!r}; "
              "try `python -m repro list`", file=sys.stderr)
        return 2
    components = None
    if args.components:
        components = [c.strip() for c in args.components.split(",") if c.strip()]
    try:
        cells = build_matrix(
            names, components=components, seed=args.seed,
            quick=not args.paper, pairwise=args.pairwise,
        )
    except ValueError as exc:
        print(f"ablate: error: {exc}", file=sys.stderr)
        return 2
    comp_names = components or list(COMPONENTS)
    print(f"ablating {len(comp_names)} components over "
          f"{len(names)} experiment(s): {', '.join(names)}")
    records = run_matrix(
        cells, jobs=args.jobs, journal_path=args.journal, progress=print,
    )
    n_failed = sum(r.get("status") == "failed" for r in records)
    n_checkfail = sum(
        r.get("status") == "ok" and not r.get("ok", True) for r in records
    )
    print(f"done: {len(records)} cells, {n_failed} failed, "
          f"{n_checkfail} with failing shape checks")
    if args.report:
        print()
        print(importance_report(records))
    return 1 if n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'MPI+Threads: Runtime Contention and "
                    "Remedies' (PPoPP'15)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproduced figures").set_defaults(fn=_cmd_list)

    run_p = sub.add_parser("run", help="run an experiment (or 'all')")
    run_p.add_argument("name")
    run_mode = run_p.add_mutually_exclusive_group()
    run_mode.add_argument("--quick", action="store_true",
                          help="reduced sweep sizes (the default)")
    run_mode.add_argument("--paper", action="store_true",
                          help="paper-scale parameters (slow)")
    run_p.add_argument("--seed", type=int, default=0,
                       help="master RNG seed (default 0, matching "
                            "run_experiment's default)")
    run_p.add_argument("--format", choices=("table", "json"), default="table",
                       help="output format (json uses ExperimentResult.to_dict)")
    run_p.set_defaults(fn=_cmd_run)

    tr = sub.add_parser(
        "trace", help="run an experiment with the observability bus attached "
                      "and export a Chrome trace")
    tr.add_argument("name")
    tr.add_argument("--out", default="trace.json",
                    help="Chrome trace output path (default: trace.json)")
    tr.add_argument("--paper", action="store_true",
                    help="paper-scale parameters (slow)")
    tr.add_argument("--seed", type=int, default=0,
                    help="master RNG seed (default 0, matching "
                         "run_experiment's default)")
    tr.add_argument("--categories",
                    default=",".join(("lock", "mpi", "net", "fault", "meta")),
                    help="comma-separated event categories to record "
                         "(sim is high-volume and off by default)")
    tr.add_argument("--max-events", type=int, default=500_000,
                    help="cap on recorded events; drops past the cap are "
                         "counted, never silent (default: 500000)")
    tr.add_argument("--counters", default=None, metavar="PATH",
                    help="also dump counter timeseries JSON to PATH")
    tr.set_defaults(fn=_cmd_trace)

    sub.add_parser("locks", help="list locking methods").set_defaults(fn=_cmd_locks)
    sub.add_parser("spec", help="print the Table-1 machine spec").set_defaults(fn=_cmd_spec)

    tp = sub.add_parser("throughput", help="ad-hoc throughput run")
    tp.add_argument("--lock", choices=sorted(LOCK_CLASSES), default="mutex")
    tp.add_argument("--threads", type=int, default=8)
    tp.add_argument("--size", type=int, default=8)
    tp.add_argument("--windows", type=int, default=6)
    tp.add_argument("--binding", choices=("compact", "scatter"), default="compact")
    tp.add_argument("--cs", default="global", metavar="POLICY",
                    help="critical-section domain policy: 'global' (paper) "
                         "or 'per-vci:N'; domain locks use --lock "
                         "(default: global)")
    tp.add_argument("--faults", default=None, metavar="SPEC",
                    help="fault plan, e.g. 'drop=0.01,dup=0.001' "
                         "(see repro.faults.parse_fault_plan)")
    tp.add_argument("--retransmit", action="store_true",
                    help="enable the ACK/retransmit reliability layer")
    tp.add_argument("--seed", type=int, default=0,
                    help="master RNG seed (default 0, matching the "
                         "experiment runners)")
    tp.set_defaults(fn=_cmd_throughput)

    lint_p = sub.add_parser(
        "lint", help="run simlint, the repo-specific static analyzer")
    lint_p.add_argument("paths", nargs="*",
                        help="files/directories to lint (default: the "
                             "installed repro package sources)")
    lint_p.add_argument("--exclude", action="append", default=[], metavar="DIR",
                        help="skip this directory during directory walks "
                             "(repeatable; e.g. tests/check/fixtures)")
    lint_p.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated subset of rules to run")
    lint_p.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    lint_p.add_argument("--format", choices=("text", "json"), default="text",
                        help="json emits one {path,line,col,rule,message} "
                             "record per finding (machine-readable)")
    lint_p.set_defaults(fn=_cmd_lint)

    dc = sub.add_parser(
        "deadcheck",
        help="run deadcheck, the interprocedural lock-order / deadlock "
             "analyzer (optionally diffed against a runtime witness)")
    dc.add_argument("paths", nargs="*",
                    help="files/directories to analyze (default: the "
                         "installed repro package sources)")
    dc.add_argument("--exclude", action="append", default=[], metavar="DIR",
                    help="skip this directory during directory walks "
                         "(repeatable; e.g. tests/check/fixtures)")
    dc.add_argument("--format", choices=("text", "json"), default="text",
                    help="json emits one {path,line,col,rule,message} "
                         "record per finding (machine-readable)")
    dc.add_argument("--order-witness", default=None, metavar="EXPT",
                    help="also run this experiment (name, prefix or 'all') "
                         "with the order witness attached and classify "
                         "every static lock-order edge as confirmed/"
                         "unwitnessed; runtime-only edges become "
                         "order-witness-gap findings")
    dc_mode = dc.add_mutually_exclusive_group()
    dc_mode.add_argument("--quick", action="store_true",
                         help="reduced witness sweep sizes (the default)")
    dc_mode.add_argument("--paper", action="store_true",
                         help="paper-scale witness parameters (slow)")
    dc.add_argument("--seed", type=int, default=0,
                    help="witness RNG seed (default 0, matching "
                         "run_experiment's default)")
    dc.set_defaults(fn=_cmd_deadcheck)

    san_p = sub.add_parser(
        "sanitize",
        help="run experiments under simsan, the runtime lockset sanitizer")
    san_p.add_argument("name",
                       help="experiment name, prefix ('fig2' = fig2a+fig2b) "
                            "or 'all'")
    san_mode = san_p.add_mutually_exclusive_group()
    san_mode.add_argument("--quick", action="store_true",
                          help="reduced sweep sizes (the default)")
    san_mode.add_argument("--paper", action="store_true",
                          help="paper-scale parameters (slow)")
    san_p.add_argument("--seed", type=int, default=0,
                       help="master RNG seed (default 0, matching "
                            "run_experiment's default)")
    san_p.set_defaults(fn=_cmd_sanitize)

    ab = sub.add_parser(
        "ablate",
        help="run a component-ablation matrix (baseline + leave-one-out) "
             "and rank components by metric impact")
    ab.add_argument("--experiments", default="all", metavar="PREFIX",
                    help="experiment selector: exact name, prefix "
                         "('fig2' = fig2a+fig2b) or 'all' (default)")
    ab.add_argument("--components", default=None, metavar="NAMES",
                    help="comma-separated component subset (default: all; "
                         "see repro.analysis.ablation.COMPONENTS)")
    ab.add_argument("--pairwise", action="store_true",
                    help="also generate pairwise (two components off) cells")
    ab.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes (the DES is single-threaded; "
                         "cells are embarrassingly parallel)")
    ab.add_argument("--journal", default=None, metavar="PATH",
                    help="JSONL journal: completed cells are appended and "
                         "skipped on re-run (resumable sweeps)")
    ab.add_argument("--report", action="store_true",
                    help="print the ranked component-importance report")
    ab_mode = ab.add_mutually_exclusive_group()
    ab_mode.add_argument("--quick", action="store_true",
                         help="reduced sweep sizes (the default)")
    ab_mode.add_argument("--paper", action="store_true",
                         help="paper-scale parameters (slow)")
    ab.add_argument("--seed", type=int, default=0,
                    help="master RNG seed baked into every run ID "
                         "(default 0)")
    ab.set_defaults(fn=_cmd_ablate)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

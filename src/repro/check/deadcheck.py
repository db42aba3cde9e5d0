"""deadcheck: interprocedural lock-order & blocking-under-CS analysis.

``python -m repro deadcheck [paths]`` -- the third simcheck tool.
simlint checks one function at a time; simsan watches one run at a
time.  deadcheck sits between them: a *static, interprocedural*
analysis over the call graph (:mod:`repro.check.graph`) that computes
the **lock-acquisition-order graph** -- "lock A can still be held when
an ``acquire`` on lock B is reached" -- and reports

``lock-order-cycle``
    A cycle in the order graph.  Two threads walking the cycle from
    different entry points deadlock; this is exactly the hazard class
    behind the PR-9 ablation deadlock, found here before any cell runs.
``blocking-under-cs``
    A blocking operation (``wait``/``waitall``/``waitany`` -- latch and
    signal waits, blocking MPI calls from the continuation-discipline
    table) transitively reachable while a lock is held.  Parking under
    a critical section starves every thread queued on that lock.
``order-witness-gap``
    Only with ``--order-witness EXPT``: a lock-order edge *observed at
    runtime* (at grant time, via the obs ``check`` category) with no
    static counterpart.  A runtime-only edge means the call graph
    failed to resolve a path the simulator actually executed -- a
    resolution gap to fix or waive, never to ignore.

How held-sets propagate (design notes, not user API):

* Lock identity is textual -- ``ast.unparse`` of the receiver
  expression (``self.lock`` in class C becomes ``C.lock``;
  ``rt._cs_acquire(dom, ...)`` becomes ``dom.lock``).  Identities are
  per-function-local names, so summaries also carry a *family* (class
  attribute or decoration-stripped name) used to match runtime
  witnesses.
* Each function gets a memoized **summary**: the acquire/blocking
  events an entry can reach, each tagged with the set of identities
  *released on the path before it* (its ``kills``).  At a call site, a
  held lock only pairs with a summary event if its identity is not in
  the event's kills -- this is how ``release(A) ... acquire(A)``
  re-entry gaps (``_wait_poll``'s CS_YIELD) avoid false edges, and it
  reuses the same try/finally must-release reasoning as simlint's
  ``_PairScan``:
  ``finally`` releases apply to everything *after* the try statement.
* Branches merge may-held (union) with must-released (intersection);
  loop bodies are scanned twice so cross-iteration orders appear.

Findings share simlint's :class:`~repro.check.lint.Finding` shape,
suppression mechanism (``# simcheck: disable=RULE`` or the legacy
``# simlint:`` spelling) and exit codes (0 clean / 1 findings /
2 cannot run).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .graph import CallGraph, FunctionInfo, GraphError, iter_py_files, load_module
from .lint import Finding

__all__ = [
    "DeadcheckError",
    "DeadcheckResult",
    "OrderEdge",
    "run_deadcheck",
    "classify_witness",
    "format_report",
]


class DeadcheckError(RuntimeError):
    """deadcheck could not run (bad path, unreadable/unparseable file)."""


#: Direct lock-protocol operations (never spliced through the graph).
_ACQUIRE_ATTRS = frozenset({"acquire", "_cs_acquire"})
_RELEASE_ATTRS = frozenset({"release", "_cs_release"})
#: Blocking operations: latch/signal waits and the blocking MPI calls
#: from the continuation-discipline table.  ``acquire`` blocks too, but
#: is reported through the order graph, not as blocking-under-cs.
_BLOCKING_ATTRS = frozenset({"wait", "waitall", "waitany"})

#: Summary size cap per function; beyond this the function is treated
#: as opaque past the cap (bounds splice blowup on pathological input).
_MAX_EVENTS = 120


class LockId(NamedTuple):
    """A lock identity: the textual expression plus its witness family."""

    ident: str
    family: str


def _safe_unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover - pathological input
        return "<expr>"


def _lock_id(call: ast.Call, scope: Optional[FunctionInfo]) -> LockId:
    """Identity of the lock a protocol call operates on."""
    func = call.func  # always an Attribute at call sites we inspect
    if func.attr in ("_cs_acquire", "_cs_release"):
        # Runtime wrappers: the domain is the first argument and the
        # guarded lock is ``dom.lock``.
        base = _safe_unparse(call.args[0]) if call.args else "?"
        ident = f"{base}.lock"
    else:
        ident = _safe_unparse(func.value)
    if (
        ident.startswith("self.")
        and scope is not None
        and scope.cls is not None
    ):
        # ``self.lock`` in class C -> a class-scoped identity that
        # doubles as its witness family.
        scoped = scope.cls.name + ident[len("self"):]
        return LockId(scoped, scoped)
    # Last dotted segment, subscripts stripped: ``doms[cur].lock`` and
    # ``dom.lock`` are the same family of guard.
    fam = ident.split(".")[-1].split("[")[0] or ident
    return LockId(ident, fam)


@dataclass(frozen=True)
class _Ev:
    """One summary event: an acquire or blocking op reachable from the
    function's entry, with the identities released before it."""

    kind: str                 # "acq" | "block"
    lock: str                 # LockId.ident (acq) or the blocking attr
    family: str               # witness family ("" for block events)
    site: Tuple[str, int, int]
    kills: FrozenSet[str]


class OrderEdge(NamedTuple):
    """One lock-order edge: ``held`` can still be held at an acquire of
    ``acq``.  ``anchor`` is where suppressions apply (the acquire or
    the call that reaches it, in the function where the pairing was
    proven); ``op_site`` is the ultimate acquire location."""

    held: LockId
    acq: LockId
    anchor: Tuple[str, int, int]
    op_site: Tuple[str, int, int]
    chain: Tuple[str, ...]


class _BlockFinding(NamedTuple):
    held: LockId
    op: str
    anchor: Tuple[str, int, int]
    op_site: Tuple[str, int, int]
    chain: Tuple[str, ...]


@dataclass
class DeadcheckResult:
    """Everything one deadcheck run produced."""

    findings: List[Finding]
    edges: List[OrderEdge]
    blockings: List[_BlockFinding]
    cycles: List[Tuple[str, ...]]
    n_files: int = 0
    n_functions: int = 0
    #: Populated by ``classify_witness``.
    confirmed: List[Tuple[str, str]] = field(default_factory=list)
    unwitnessed: List[Tuple[str, str]] = field(default_factory=list)
    runtime_only: List[Tuple[str, str]] = field(default_factory=list)


class _State:
    """Held/released tracking during one structural scan."""

    __slots__ = ("held", "released")

    def __init__(self, held=None, released=None):
        #: ident -> (LockId, site of the acquire)
        self.held: Dict[str, Tuple[LockId, Tuple[str, int, int]]] = dict(held or {})
        self.released: Set[str] = set(released or ())

    def copy(self) -> "_State":
        return _State(self.held, self.released)

    def merge(self, *others: "_State") -> "_State":
        """Branch join: may-held union, must-released intersection."""
        held = dict(self.held)
        released = set(self.released)
        for o in others:
            for k, v in o.held.items():
                held.setdefault(k, v)
            released &= o.released
        return _State(held, released)


class DeadlockAnalysis:
    """Summary-based interprocedural lock analysis over a call graph."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        self._memo: Dict[str, Tuple[List[_Ev], List[OrderEdge], List[_BlockFinding]]] = {}
        self._busy: Set[str] = set()

    # -- public ---------------------------------------------------------
    def run(self) -> Tuple[List[OrderEdge], List[_BlockFinding]]:
        edges: List[OrderEdge] = []
        blockings: List[_BlockFinding] = []
        for key in sorted(self.graph.functions):
            self.summary(self.graph.functions[key])
        seen_e: Set[Tuple[str, str]] = set()
        seen_b: Set[Tuple[Tuple[str, int, int], str, str]] = set()
        for key in sorted(self._memo):
            _evs, es, bs = self._memo[key]
            for e in es:
                k = (e.held.ident, e.acq.ident)
                if k not in seen_e:
                    seen_e.add(k)
                    edges.append(e)
            for b in bs:
                k = (b.anchor, b.held.ident, b.op)
                if k not in seen_b:
                    seen_b.add(k)
                    blockings.append(b)
        return edges, blockings

    def summary(self, fn: FunctionInfo) -> List[_Ev]:
        cached = self._memo.get(fn.key)
        if cached is not None:
            return cached[0]
        if fn.key in self._busy:
            return []  # recursion: the fixpoint of an empty seed
        self._busy.add(fn.key)
        try:
            triple = self._scan_function(fn)
        finally:
            self._busy.discard(fn.key)
        self._memo[fn.key] = triple
        return triple[0]

    # -- scan -----------------------------------------------------------
    def _scan_function(self, fn: FunctionInfo):
        events: List[_Ev] = []
        edges: List[OrderEdge] = []
        blockings: List[_BlockFinding] = []
        path = fn.module.path

        def site(node) -> Tuple[str, int, int]:
            return (path, node.lineno, node.col_offset)

        def on_acquire(lid: LockId, node, st: _State) -> None:
            if len(events) < _MAX_EVENTS:
                events.append(_Ev("acq", lid.ident, lid.family, site(node),
                                  frozenset(st.released)))
            for hid, (hlid, _hsite) in st.held.items():
                if hid != lid.ident:
                    edges.append(OrderEdge(hlid, lid, site(node), site(node),
                                           (fn.key,)))
            st.held[lid.ident] = (lid, site(node))
            st.released.discard(lid.ident)

        def on_release(lid: LockId, st: _State) -> None:
            st.held.pop(lid.ident, None)
            st.released.add(lid.ident)

        def on_blocking(attr: str, node, st: _State) -> None:
            if len(events) < _MAX_EVENTS:
                events.append(_Ev("block", attr, "", site(node),
                                  frozenset(st.released)))
            for hlid, _hsite in st.held.values():
                blockings.append(_BlockFinding(hlid, attr, site(node),
                                               site(node), (fn.key,)))

        def on_call(call: ast.Call, st: _State) -> None:
            callee = self.graph.resolve_call(call, fn)
            if callee is None or callee.key == fn.key:
                return
            for ev in self.summary(callee):
                kills = ev.kills | st.released
                if len(events) < _MAX_EVENTS:
                    events.append(_Ev(ev.kind, ev.lock, ev.family, ev.site,
                                      frozenset(kills)))
                exposed = [
                    (hlid, hsite)
                    for hid, (hlid, hsite) in st.held.items()
                    if hid not in kills and hid != ev.lock
                ]
                if not exposed:
                    continue
                chain = (fn.key, callee.key)
                for hlid, _hsite in exposed:
                    if ev.kind == "acq":
                        edges.append(OrderEdge(
                            hlid, LockId(ev.lock, ev.family),
                            site(call), ev.site, chain,
                        ))
                    else:
                        blockings.append(_BlockFinding(
                            hlid, ev.lock, site(call), ev.site, chain,
                        ))

        def process_expr(node, st: _State) -> None:
            """Ordered lock/blocking/call ops inside one simple
            statement or expression (source order)."""
            ops = []
            stack = [node]
            while stack:
                n = stack.pop()
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                    # Deferred bodies: their ops run when *called*, and
                    # resolvable calls splice their summaries instead.
                    continue
                stack.extend(ast.iter_child_nodes(n))
                if isinstance(n, ast.Call):
                    f = n.func
                    kind = "call"
                    if isinstance(f, ast.Attribute):
                        if f.attr in _ACQUIRE_ATTRS:
                            kind = "acq"
                        elif f.attr in _RELEASE_ATTRS:
                            kind = "rel"
                        elif f.attr in _BLOCKING_ATTRS:
                            kind = "block"
                    ops.append((n.lineno, n.col_offset, kind, n))
            ops.sort(key=lambda t: (t[0], t[1]))
            for _l, _c, kind, n in ops:
                if kind == "acq":
                    on_acquire(_lock_id(n, fn), n, st)
                elif kind == "rel":
                    on_release(_lock_id(n, fn), st)
                elif kind == "block":
                    on_blocking(n.func.attr, n, st)
                else:
                    on_call(n, st)

        def scan(stmts, st: _State) -> _State:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                if isinstance(stmt, ast.If):
                    process_expr(stmt.test, st)
                    s1 = scan(stmt.body, st.copy())
                    s2 = scan(stmt.orelse, st.copy())
                    st = s1.merge(s2)
                elif isinstance(stmt, (ast.For, ast.While)):
                    header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
                    process_expr(header, st)
                    # Twice: a second pass sees iteration-1 holds, so
                    # cross-iteration orders (acquire at loop tail,
                    # re-acquire at head) produce edges.
                    st = scan(stmt.body, st)
                    st = scan(stmt.body, st)
                    st = scan(stmt.orelse, st)
                elif isinstance(stmt, ast.With):
                    for item in stmt.items:
                        process_expr(item.context_expr, st)
                    st = scan(stmt.body, st)
                elif isinstance(stmt, ast.Try):
                    entry = st.copy()
                    body_out = scan(stmt.body, st)
                    handler_outs = [
                        scan(h.body, entry.copy()) for h in stmt.handlers
                    ]
                    body_out = scan(stmt.orelse, body_out)
                    merged = body_out.merge(*handler_outs) if handler_outs else body_out
                    # ``finally`` runs after on every path; its releases
                    # kill held locks for everything downstream -- the
                    # _PairScan must-release fact, applied positionally.
                    st = scan(stmt.finalbody, merged)
                else:
                    process_expr(stmt, st)
            return st

        scan(fn.node.body, _State())
        # Dedup events (loop double-scan duplicates them verbatim).
        uniq: Dict[Tuple, _Ev] = {}
        for ev in events:
            uniq.setdefault((ev.kind, ev.lock, ev.site, ev.kills), ev)
        return list(uniq.values()), edges, blockings


# ----------------------------------------------------------------------
# Cycle detection (iterative Tarjan over the ident order graph)
# ----------------------------------------------------------------------
def _sccs(adj: Dict[str, Set[str]]) -> List[List[str]]:
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in adj:
                    continue
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj.get(nxt, ())))))
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
                    out.append(sorted(comp))
    return out


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def run_deadcheck(
    paths: Iterable[str], exclude: Iterable[str] = ()
) -> DeadcheckResult:
    """Analyze every ``.py`` file under ``paths``; returns the result
    with unsuppressed findings sorted by location.  Raises
    :class:`DeadcheckError` (never a traceback) when a path is missing
    or a file cannot be read or parsed -- the exit-code-2 paths."""
    graph = CallGraph()
    n_files = 0
    try:
        for path in iter_py_files(paths, exclude):
            graph.add_module(load_module(path))
            n_files += 1
    except GraphError as exc:
        raise DeadcheckError(str(exc)) from exc
    graph.finalize()

    analysis = DeadlockAnalysis(graph)
    edges, blockings = analysis.run()

    def allowed(anchor: Tuple[str, int, int], rule: str) -> bool:
        mod = next(
            (m for m in graph.modules.values() if m.path == anchor[0]), None
        )
        if mod is None:
            return True
        return mod.allows(Finding(anchor[0], anchor[1], anchor[2], rule, ""))

    edges = [e for e in edges if allowed(e.anchor, "lock-order-cycle")]
    blockings = [
        b for b in blockings if allowed(b.anchor, "blocking-under-cs")
    ]

    adj: Dict[str, Set[str]] = {}
    by_pair: Dict[Tuple[str, str], OrderEdge] = {}
    for e in edges:
        adj.setdefault(e.held.ident, set()).add(e.acq.ident)
        adj.setdefault(e.acq.ident, set())
        by_pair[(e.held.ident, e.acq.ident)] = e

    findings: List[Finding] = []
    cycles: List[Tuple[str, ...]] = []
    for comp in _sccs(adj):
        members = set(comp)
        cyc_edges = [
            e for (a, b), e in sorted(by_pair.items())
            if a in members and b in members
        ]
        cycles.append(tuple(comp))
        anchor = cyc_edges[0].anchor
        detail = "; ".join(
            f"{e.held.ident} -> {e.acq.ident} at {e.op_site[0]}:{e.op_site[1]}"
            for e in cyc_edges
        )
        findings.append(Finding(
            anchor[0], anchor[1], anchor[2], "lock-order-cycle",
            f"potential deadlock: lock-order cycle over "
            f"{{{', '.join(comp)}}} ({detail}); two threads entering from "
            "different edges can each hold what the other waits for",
        ))

    for b in blockings:
        where = (
            "" if b.anchor == b.op_site
            else f" reached via {' -> '.join(b.chain[1:])} at "
                 f"{b.op_site[0]}:{b.op_site[1]}"
        )
        findings.append(Finding(
            b.anchor[0], b.anchor[1], b.anchor[2], "blocking-under-cs",
            f"blocking op {b.op!r}{where} while {b.held.ident!r} (acquired "
            "in this function) may still be held; parking inside a "
            "critical section starves every thread queued on it -- "
            "release before waiting, or fire a latch",
        ))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return DeadcheckResult(
        findings=findings,
        edges=edges,
        blockings=blockings,
        cycles=cycles,
        n_files=n_files,
        n_functions=len(graph.functions),
    )


def classify_witness(
    result: DeadcheckResult, runtime_edges: Iterable[Tuple[str, str]],
) -> List[Finding]:
    """Diff runtime-witnessed order edges (family pairs from
    :class:`repro.check.sanitize.OrderWitness`) against the static
    graph.  Mutates ``result``'s confirmed/unwitnessed/runtime_only
    lists and returns one ``order-witness-gap`` finding per
    runtime-only edge."""
    static_pairs = {(e.held.family, e.acq.family) for e in result.edges}
    runtime_pairs = set(runtime_edges)
    result.confirmed = sorted(static_pairs & runtime_pairs)
    result.unwitnessed = sorted(static_pairs - runtime_pairs)
    result.runtime_only = sorted(runtime_pairs - static_pairs)
    findings = []
    for held, acq in result.runtime_only:
        findings.append(Finding(
            "<order-witness>", 0, 0, "order-witness-gap",
            f"runtime lock-order edge {held} -> {acq} has no static "
            "counterpart: the call graph failed to resolve a path the "
            "simulator executed (fix the resolution gap or waive it)",
        ))
    return findings


def format_report(result: DeadcheckResult,
                  findings: List[Finding]) -> str:
    """Human-readable report: findings then a one-line summary."""
    out = [f.format() for f in findings]
    stats = (
        f"{result.n_functions} function(s) across {result.n_files} "
        f"file(s), {len(result.edges)} lock-order edge(s)"
    )
    if result.confirmed or result.unwitnessed or result.runtime_only:
        stats += (
            f"; witness: {len(result.confirmed)} confirmed, "
            f"{len(result.unwitnessed)} unwitnessed, "
            f"{len(result.runtime_only)} runtime-only"
        )
    if findings:
        out.append(f"deadcheck: {len(findings)} finding(s) ({stats})")
    else:
        out.append(f"deadcheck: clean ({stats})")
    return "\n".join(out)

"""simlint: the repo-specific static analyzer (``python -m repro lint``).

Generic linters cannot know this codebase's contracts; simlint encodes
them as AST rules (stdlib :mod:`ast`, no new dependencies):

``unseeded-rng``
    Every stochastic choice must come from a named, seeded stream
    (:class:`repro.sim.rng.RngStreams`).  Stdlib ``random`` and ad-hoc
    ``np.random.<fn>`` calls silently break run-to-run determinism; only
    ``np.random.default_rng(seed)`` / ``SeedSequence`` construction with
    an explicit seed is allowed.
``wall-clock``
    Simulated time is ``sim.now``; reading the host clock
    (``time.time``, ``datetime.now``, ...) inside the model makes
    results machine-dependent.
``yield-discipline``
    Sim processes are generators that must only yield
    :class:`~repro.sim.events.Event` values or float sleep delays.
    Yielding any other bare literal is always a bug -- the engine would
    raise at runtime, but only on the path that executes it.  Float
    literals, and arithmetic over only float literals, are sleeps.
``lock-pairing``
    Every critical-section acquire needs a matching release on all
    paths: a function that acquires and never releases, or returns
    between an acquire and the next release (outside a ``try/finally``
    whose ``finally`` releases), starves every other thread forever.
``slots-complete``
    A class that declares ``__slots__`` but assigns an attribute missing
    from it either crashes (no ``__dict__``) or -- when a base class
    leaks one -- silently loses the memory win the slots audit bought.
``obs-category``
    Observability emit sites must use a category from
    :data:`repro.obs.events.CATEGORIES`; a typo'd category records
    nothing and is invisible to every subscriber filter.
``broad-except``
    ``except Exception:`` handlers that neither re-raise nor examine the
    exception swallow model bugs that determinism tests would otherwise
    surface.
``queue-encapsulation``
    The simulator's event heap and its books are private to the sim
    core: only the engine and the event primitives may import
    :mod:`heapq` or touch ``sim._heap``, ``sim._dead``, the push
    binding ``sim._push`` or the sequence counter ``sim._seq``.  The
    process module may read the push binding and the sequence counter
    -- its float-sleep path pushes the wake token -- and nothing else.
    Everything else schedules through the ``Simulator`` methods and
    reads its accounting properties, so the heap's books (live / dead /
    skipped) stay exact.
``continuation-discipline``
    Callbacks registered via ``attach_continuation`` fire inside the
    runtime's completion dispatch; callbacks handed to the timer path
    ``sim.call_after`` (retransmits, deadline expiry) fire inside the
    engine's dispatch loop.  Both are plain
    functions, not sim processes, so a blocking call (``wait``/
    ``waitall``/``waitany``/``acquire``) can never yield its event and
    would wedge or corrupt the dispatch.  Callbacks must stay O(1)
    bookkeeping; a callback that needs to block should set a flag or
    fire a latch a real process waits on.
``module-state``
    A run's state belongs to its simulator (``sim.ids`` numbers its
    threads, packets, requests and locks), never to a module of the
    model packages (``sim``, ``locks``, ``mpi``, ``network``,
    ``faults``, ``robust``, ``machine``, ``workloads``).  A
    module-level ``count()`` or a module-level container a function
    mutates outlives the run, so a second run in the same process sees
    the first one's leftovers.  Constant
    registries built at import time (``LOCK_CLASSES``) are fine.

Any finding is suppressible on its line with ``# simlint:
disable=RULE`` (comma-separated rules, or ``all``; ``# simcheck:
disable=`` is an interchangeable spelling shared with deadcheck).
Suppression is line-scoped and rule-scoped by design: blanket waivers
hide new bugs.
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..obs.events import CATEGORIES
from .graph import CallGraph, GraphError, SourceModule, iter_py_files

__all__ = [
    "Finding", "LintError", "RULES", "run_lint", "format_findings",
    "format_findings_json",
]


class LintError(RuntimeError):
    """Lint could not run (bad path, unparseable source)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


def format_findings(findings: Sequence[Finding]) -> str:
    out = [f.format() for f in findings]
    out.append(
        f"simlint: {len(findings)} finding(s)" if findings else "simlint: clean"
    )
    return "\n".join(out)


def format_findings_json(findings: Sequence[Finding]) -> str:
    """One JSON record per line: ``{path, line, col, rule, message}``.

    Machine-readable (CI annotations); no summary line, so an empty
    finding list formats to the empty string."""
    return "\n".join(json.dumps(asdict(f), sort_keys=True) for f in findings)


# ======================================================================
# Per-file context
# ======================================================================

class _Module(SourceModule):
    """Parsed source plus the line-scoped suppression table.

    The parsing and suppression machinery lives in
    :class:`repro.check.graph.SourceModule` (shared with deadcheck);
    this subclass only maps parse failures onto :class:`LintError`.
    """

    def __init__(self, path: str, source: str):
        try:
            super().__init__(path, source)
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc


# ======================================================================
# Shared AST helpers
# ======================================================================

def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` as a string, or None for non-trivial expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ======================================================================
# Rules
# ======================================================================

RuleFn = Callable[[_Module], Iterator[Finding]]
RULES: Dict[str, RuleFn] = {}


def _rule(name: str) -> Callable[[RuleFn], RuleFn]:
    def deco(fn: RuleFn) -> RuleFn:
        RULES[name] = fn
        return fn
    return deco


#: numpy.random constructors that take an explicit seed and are the
#: sanctioned way to build a generator.
_SEEDED_NP = frozenset({"SeedSequence", "Generator"})


@_rule("unseeded-rng")
def _check_unseeded_rng(mod: _Module) -> Iterator[Finding]:
    """no unseeded randomness (stdlib random, bare np.random.*)"""
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = (
                [node.module] if isinstance(node, ast.ImportFrom)
                else [a.name for a in node.names]
            )
            if "random" in names:
                yield Finding(
                    mod.path, node.lineno, node.col_offset, "unseeded-rng",
                    "stdlib random is seeded per-process; draw from a named "
                    "stream (sim.rng.stream(name)) instead",
                )
            continue
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if not isinstance(f, ast.Attribute):
            continue
        v = f.value
        if isinstance(v, ast.Name) and v.id == "random":
            yield Finding(
                mod.path, node.lineno, node.col_offset, "unseeded-rng",
                f"random.{f.attr}() draws from the process-global stream; "
                "use sim.rng.stream(name)",
            )
        elif (
            isinstance(v, ast.Attribute)
            and v.attr == "random"
            and isinstance(v.value, ast.Name)
            and v.value.id in ("np", "numpy")
        ):
            if f.attr in _SEEDED_NP:
                continue
            if f.attr == "default_rng":
                if node.args or node.keywords:
                    continue  # default_rng(seed): the sanctioned form
                yield Finding(
                    mod.path, node.lineno, node.col_offset, "unseeded-rng",
                    "np.random.default_rng() without a seed is entropy-"
                    "seeded; pass an explicit seed",
                )
            else:
                yield Finding(
                    mod.path, node.lineno, node.col_offset, "unseeded-rng",
                    f"np.random.{f.attr}() uses the unseeded global "
                    "generator; use np.random.default_rng(seed) or a named "
                    "stream",
                )


_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
})


@_rule("wall-clock")
def _check_wall_clock(mod: _Module) -> Iterator[Finding]:
    """no host-clock reads (time.time, datetime.now, ...)"""
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in _WALL_CLOCK:
            yield Finding(
                mod.path, node.lineno, node.col_offset, "wall-clock",
                f"{name}() reads the host clock; simulated time is sim.now "
                "(results must not depend on the machine running them)",
            )


def _is_literal_value(node: ast.AST) -> bool:
    """Literal-ish expressions that can never be a sim Event."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return True
    if isinstance(node, ast.Dict):
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_literal_value(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_literal_value(node.left) and _is_literal_value(node.right)
    if isinstance(node, ast.JoinedStr):
        return True
    return False


def _is_float_delay(node: ast.AST) -> bool:
    """A float literal, or arithmetic whose leaves all are: a sleep."""
    if isinstance(node, ast.UnaryOp):
        return _is_float_delay(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_float_delay(node.left) and _is_float_delay(node.right)
    return isinstance(node, ast.Constant) and type(node.value) is float


@_rule("yield-discipline")
def _check_yield_discipline(mod: _Module) -> Iterator[Finding]:
    """sim processes must not yield bare non-float literal values"""
    for fn in _functions(mod.tree):
        for node in _own_nodes(fn):
            if not isinstance(node, ast.Yield):
                continue
            v = node.value
            if v is None:
                # Bare ``yield`` after ``return``: the unreachable
                # generator-marker idiom (NullLock.acquire).
                continue
            if _is_literal_value(v) and not _is_float_delay(v):
                yield Finding(
                    mod.path, node.lineno, node.col_offset, "yield-discipline",
                    f"process {fn.name!r} yields a bare literal; sim "
                    "processes may only yield Event/Process values or "
                    "float delays",
                )


_ACQUIRE_ATTRS = frozenset({"acquire", "_cs_acquire"})
_RELEASE_ATTRS = frozenset({"release", "_cs_release"})


def _expr_lock_ops(stmt: ast.stmt) -> List[str]:
    """``"acq"``/``"rel"`` for lock-protocol calls in one *simple*
    statement (no nested statements), in source order."""
    ops = []
    for n in ast.walk(stmt):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            if n.func.attr in _ACQUIRE_ATTRS:
                ops.append((n.lineno, n.col_offset, "acq"))
            elif n.func.attr in _RELEASE_ATTRS:
                ops.append((n.lineno, n.col_offset, "rel"))
    ops.sort()
    return [k for _, _, k in ops]


class _PairScan:
    """Branch-aware acquire/release balance over a function body.

    A structural walk, not real data-flow: ``if``/``elif`` branches are
    evaluated independently and the *maximum* resulting balance
    survives (both arms of ``if p: acquire(...) else: acquire(...)``
    count once); a ``try`` whose ``finally`` releases covers returns in
    its body.  Good enough for this codebase's straight-line lock
    usage; anything cleverer belongs under a suppression comment.
    """

    def __init__(self, mod: _Module, fn_name: str):
        self.mod = mod
        self.fn_name = fn_name
        self.findings: List[Finding] = []
        self.saw_acquire = False
        self.first_op: Optional[str] = None

    def _note(self, op: str) -> None:
        if self.first_op is None:
            self.first_op = op
        if op == "acq":
            self.saw_acquire = True

    def scan(self, stmts: Sequence[ast.stmt], bal: int,
             guarded: bool = False) -> int:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            elif isinstance(stmt, ast.If):
                b1 = self.scan(stmt.body, bal, guarded)
                b2 = self.scan(stmt.orelse, bal, guarded)
                bal = max(b1, b2)
            elif isinstance(stmt, (ast.For, ast.While)):
                for op in _expr_lock_ops_iterable(stmt):
                    self._note(op)
                    bal = bal + 1 if op == "acq" else max(0, bal - 1)
                bal = self.scan(stmt.body, bal, guarded)
                bal = self.scan(stmt.orelse, bal, guarded)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    for op in _expr_lock_ops(item.context_expr):
                        self._note(op)
                        bal = bal + 1 if op == "acq" else max(0, bal - 1)
                bal = self.scan(stmt.body, bal, guarded)
            elif isinstance(stmt, ast.Try):
                releases_in_finally = any(
                    op == "rel"
                    for s in stmt.finalbody
                    for op in _expr_lock_ops(s)
                )
                b = self.scan(stmt.body, bal,
                              guarded or releases_in_finally)
                for h in stmt.handlers:
                    b = max(b, self.scan(h.body, bal, guarded))
                b = self.scan(stmt.orelse, b, guarded)
                bal = self.scan(stmt.finalbody, b, guarded)
            elif isinstance(stmt, ast.Return):
                if bal > 0 and not guarded:
                    self.findings.append(Finding(
                        self.mod.path, stmt.lineno, stmt.col_offset,
                        "lock-pairing",
                        f"{self.fn_name!r} returns with a lock still held "
                        "(no release between the acquire and this return)",
                    ))
                bal = 0
            else:
                for op in _expr_lock_ops(stmt):
                    self._note(op)
                    bal = bal + 1 if op == "acq" else max(0, bal - 1)
        return bal


def _expr_lock_ops_iterable(stmt) -> List[str]:
    """Lock ops in a loop header (iterable/test expression only)."""
    target = stmt.iter if isinstance(stmt, ast.For) else stmt.test
    return _expr_lock_ops(target)


@_rule("lock-pairing")
def _check_lock_pairing(mod: _Module) -> Iterator[Finding]:
    """lock acquire/release pairing on all paths (incl. try/finally)"""
    for fn in _functions(mod.tree):
        lowered = fn.name.lower()
        if "acquire" in lowered or "release" in lowered:
            # Lock-protocol wrappers legitimately do one half.
            continue
        scan = _PairScan(mod, fn.name)
        bal = scan.scan(fn.body, 0)
        if not scan.saw_acquire:
            continue
        yield from iter(scan.findings)
        if bal > 0 and scan.first_op != "rel":
            # release-first functions are re-entry gap wrappers
            # (release .. work .. acquire); their net +1 is deliberate.
            yield Finding(
                mod.path, fn.lineno, fn.col_offset, "lock-pairing",
                f"{fn.name!r} acquires a lock but never releases it",
            )


def _literal_slots(cls: ast.ClassDef) -> Optional[set]:
    """The class's own ``__slots__`` names, or None if absent/dynamic."""
    for stmt in cls.body:
        targets = []
        value = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in targets
        ):
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return {value.value}
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            names = set()
            for elt in value.elts:
                if not (
                    isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                ):
                    return None  # dynamic slots: not checkable
                names.add(elt.value)
            return names
        return None
    return None


@_rule("slots-complete")
def _check_slots_complete(mod: _Module) -> Iterator[Finding]:
    """every self.X assignment covered by __slots__"""
    classes = {
        n.name: n for n in ast.walk(mod.tree) if isinstance(n, ast.ClassDef)
    }

    def slots_chain(cls: ast.ClassDef, seen: set) -> Optional[set]:
        """Union of slots over the in-module base chain; None when a
        base is unresolvable (can't prove anything then)."""
        if cls.name in seen:
            return set()
        seen.add(cls.name)
        own = _literal_slots(cls)
        if own is None:
            return None
        total = set(own)
        for base in cls.bases:
            if isinstance(base, ast.Name):
                if base.id == "object":
                    continue
                parent = classes.get(base.id)
                if parent is None:
                    return None
                inherited = slots_chain(parent, seen)
                if inherited is None:
                    return None
                total |= inherited
            else:
                return None
        return total

    for cls in classes.values():
        if _literal_slots(cls) is None:
            continue
        allowed = slots_chain(cls, set())
        if allowed is None:
            continue
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not fn.args.args or fn.args.args[0].arg != "self":
                continue
            for node in _own_nodes(fn):
                target = None
                if isinstance(node, ast.Assign):
                    for t in node.targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ):
                            target = t
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    t = node.target
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    ):
                        target = t
                if target is not None and target.attr not in allowed:
                    yield Finding(
                        mod.path, target.lineno, target.col_offset,
                        "slots-complete",
                        f"{cls.name}.{target.attr} is assigned but missing "
                        f"from __slots__",
                    )


_OBS_METHODS = frozenset({
    "span_begin", "span_end", "async_begin", "async_end",
    "counter", "instant", "span", "wants",
})
#: Receiver identifiers that denote the observability bus.
_OBS_RECEIVERS = frozenset({"obs", "bus", "instrument"})


@_rule("obs-category")
def _check_obs_category(mod: _Module) -> Iterator[Finding]:
    """obs emit sites use a category from CATEGORIES"""
    valid = set(CATEGORIES)
    for node in ast.walk(mod.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _OBS_METHODS
        ):
            continue
        recv = node.func.value
        tail = recv.attr if isinstance(recv, ast.Attribute) else (
            recv.id if isinstance(recv, ast.Name) else None
        )
        if tail not in _OBS_RECEIVERS:
            continue
        if not node.args:
            continue
        cat = node.args[0]
        if isinstance(cat, ast.Constant) and isinstance(cat.value, str):
            if cat.value not in valid:
                yield Finding(
                    mod.path, cat.lineno, cat.col_offset, "obs-category",
                    f"unknown obs category {cat.value!r}; valid: "
                    f"{', '.join(CATEGORIES)}",
                )


_BROAD = frozenset({"Exception", "BaseException"})


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    if isinstance(t, ast.Name) and t.id in _BROAD:
        return True
    if isinstance(t, ast.Tuple):
        return any(
            isinstance(e, ast.Name) and e.id in _BROAD for e in t.elts
        )
    return False


@_rule("broad-except")
def _check_broad_except(mod: _Module) -> Iterator[Finding]:
    """broad handlers must re-raise or examine the exception"""
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.ExceptHandler) or not _handler_is_broad(node):
            continue
        reraises = any(
            isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)
        )
        uses_binding = node.name is not None and any(
            isinstance(n, ast.Name) and n.id == node.name
            for stmt in node.body
            for n in ast.walk(stmt)
        )
        if not (reraises or uses_binding):
            what = (
                "bare except" if node.type is None
                else f"except {ast.unparse(node.type)}"
            )
            yield Finding(
                mod.path, node.lineno, node.col_offset, "broad-except",
                f"{what} swallows the exception (neither re-raised nor "
                "examined); catch the specific error or handle it",
            )


#: Files allowed to import heapq / touch the event heap: the engine
#: and the event primitives (whose trigger-time scheduling is
#: deliberately inlined into the push fast path).
_QUEUE_WHITELIST = (
    "repro/sim/engine.py",
    "repro/sim/events.py",
)

#: Narrower per-file grants: exactly the simulator internals a file may
#: read and nothing else (no heapq, no heap array).  A process's float
#: sleep pushes its wake token through the push binding, keyed with
#: the sequence counter.
_QUEUE_GRANTS = {
    "repro/sim/process.py": frozenset({"_push", "_seq"}),
}

#: The simulator's event-heap internals: the heap, its dead count, the
#: push binding and the sequence counter.
_QUEUE_PRIVATE = frozenset({"_heap", "_dead", "_push", "_seq"})


@_rule("queue-encapsulation")
def _check_queue_encapsulation(mod: _Module) -> Iterator[Finding]:
    """event-heap internals stay inside the sim engine"""
    path = mod.path.replace("\\", "/")
    if path.endswith(_QUEUE_WHITELIST):
        return
    granted = next(
        (g for suffix, g in _QUEUE_GRANTS.items() if path.endswith(suffix)),
        frozenset(),
    )
    heapq_msg = (
        "heapq import outside the sim engine: schedule through the "
        "Simulator (timeout/call_after/hand_off/wake) instead"
    )
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "heapq":
                    yield Finding(
                        mod.path, node.lineno, node.col_offset,
                        "queue-encapsulation", heapq_msg,
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "heapq":
                yield Finding(
                    mod.path, node.lineno, node.col_offset,
                    "queue-encapsulation", heapq_msg,
                )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _QUEUE_PRIVATE
            and node.attr not in granted
        ):
            recv = node.value
            tail = (
                recv.attr if isinstance(recv, ast.Attribute)
                else recv.id if isinstance(recv, ast.Name)
                else None
            )
            if tail == "sim":
                yield Finding(
                    mod.path, node.lineno, node.col_offset,
                    "queue-encapsulation",
                    f"direct access to sim.{node.attr}: the event heap "
                    "and its books are private to the sim engine; use "
                    "the Simulator's scheduling methods and its "
                    "queued_events/dead_events/heap_size/skipped counters",
                )


#: Methods a continuation callback must never call: blocking waits and
#: critical-section entry.  (``test*`` are nonblocking but still enter
#: the CS through ``_cs_acquire``, which this set also covers.)
_BLOCKING_ATTRS = frozenset({
    "wait", "waitall", "waitany", "acquire", "_cs_acquire",
})


#: Callback registration points -> positional index of the callback.
#: ``attach_continuation(fn)`` is the completion path; ``call_after(
#: delay, fn, *args)`` is the timer path (retransmits, deadline
#: expiry) -- both dispatch the callback in the same no-blocking
#: callback context.
_CALLBACK_SITES = {
    "attach_continuation": 0,
    "call_after": 1,
}


#: Recursion cap for transitive callback checking: the repo's callback
#: chains are 1-2 calls deep; 6 bounds pathological fixture graphs.
_CALLBACK_DEPTH = 6


@_rule("continuation-discipline")
def _check_continuation_discipline(mod: _Module) -> Iterator[Finding]:
    """continuation/timer callbacks must not call blocking ops"""
    graph = CallGraph.for_module(mod)

    def blocking_calls(roots, scope, seen, depth=0):
        """(call, via-chain) for blocking ops reachable from ``roots``,
        following calls the graph can resolve (``self.method``, locally
        defined ``def``s, module functions)."""
        if depth > _CALLBACK_DEPTH:
            return
        stack = list(roots)
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
                # Nested defs/lambdas only run if called; calls to the
                # resolvable ones are followed at their call sites.
                continue
            stack.extend(ast.iter_child_nodes(n))
            if not isinstance(n, ast.Call):
                continue
            if (
                isinstance(n.func, ast.Attribute)
                and n.func.attr in _BLOCKING_ATTRS
            ):
                yield n, ()  # simlint: disable=yield-discipline
                continue
            callee = graph.resolve_call(n, scope)
            if callee is not None and callee.key not in seen:
                seen.add(callee.key)
                for call, via in blocking_calls(
                    callee.node.body, callee, seen, depth + 1,
                ):
                    yield call, (callee.name,) + via  # simlint: disable=yield-discipline

    def scoped_nodes():
        for node in _own_nodes(mod.tree):
            yield None, node  # simlint: disable=yield-discipline
        for fi in graph.functions_of(mod):
            for node in _own_nodes(fi.node):
                yield fi, node  # simlint: disable=yield-discipline

    for scope, node in scoped_nodes():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _CALLBACK_SITES
        ):
            continue
        idx = _CALLBACK_SITES[node.func.attr]
        cb = node.args[idx] if len(node.args) > idx else None
        if cb is None:
            for kw in node.keywords:
                if kw.arg == "fn":
                    cb = kw.value
                    break
        if isinstance(cb, ast.Lambda):
            roots: Sequence[ast.AST] = (cb.body,)
            cb_scope, seen = scope, set()
        else:
            fi = graph.resolve_callable(cb, scope) if cb is not None else None
            if fi is None:
                # Unresolvable expressions (callables from data
                # structures, externals): nothing to prove.
                continue
            roots = fi.node.body
            cb_scope, seen = fi, {fi.key}
        for call, via in blocking_calls(roots, cb_scope, seen):
            through = f" (via {' -> '.join(via)})" if via else ""
            yield Finding(
                mod.path, call.lineno, call.col_offset,
                "continuation-discipline",
                f"callback registered via {node.func.attr!r} calls "
                f"blocking op {call.func.attr!r}{through}; completion and "
                "timer callbacks run inside the runtime's dispatch and "
                "must not block (no wait*/acquire) -- fire a latch or "
                "wake a real process that does the blocking work",
            )


#: Packages whose modules must hold no run state (``repro.<pkg>``).
_MODEL_PACKAGES = frozenset({
    "sim", "locks", "mpi", "network", "faults", "robust", "machine",
    "workloads",
})

#: Constructors of mutable containers.
_CONTAINER_CALLS = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict", "Counter",
})

#: Methods that change a list, dict, set or deque in place.
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "remove",
    "pop", "popleft", "popitem", "clear", "update", "setdefault", "add",
    "discard", "sort", "reverse", "difference_update",
    "intersection_update", "symmetric_difference_update",
})


def _in_model_package(path: str) -> bool:
    parts = Path(path).parts
    return any(
        a == "repro" and b in _MODEL_PACKAGES for a, b in zip(parts, parts[1:])
    )


def _is_container(value: ast.AST) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and (_dotted(value.func) or "").rsplit(".", 1)[-1] in _CONTAINER_CALLS
    )


@_rule("module-state")
def _check_module_state(mod: _Module) -> Iterator[Finding]:
    """no run state in model modules (count(), mutated containers)"""
    if not _in_model_package(mod.path):
        return
    containers = set()
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if (
            isinstance(value, ast.Call)
            and _dotted(value.func) in ("count", "itertools.count")
        ):
            yield Finding(
                mod.path, stmt.lineno, stmt.col_offset, "module-state",
                f"module-level count() {', '.join(names)} numbers across "
                "every run in the process; draw ids from the run's "
                "simulator (sim.ids)",
            )
        elif _is_container(value):
            containers.update(names)
    for fn in _functions(mod.tree):
        nodes = list(_own_nodes(fn))
        local = {
            a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)
        } | {
            n.id for n in nodes
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        shared = containers - local
        for n in nodes:
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                target, how = n.func.value, f".{n.func.attr}()"
                if n.func.attr not in _MUTATORS:
                    continue
            elif isinstance(n, ast.Subscript) and isinstance(
                n.ctx, (ast.Store, ast.Del)
            ):
                target, how = n.value, "[...]"
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                yield Finding(
                    mod.path, n.lineno, n.col_offset, "module-state",
                    f"{fn.name}() mutates module-level {target.id}{how}: "
                    "the change outlives the run and leaks into the next "
                    "one; keep it on an object the run owns",
                )


# ======================================================================
# Runner
# ======================================================================

def _iter_py_files(
    paths: Iterable[str], exclude: Iterable[str] = ()
) -> Iterator[Path]:
    try:
        yield from iter_py_files(paths, exclude)
    except GraphError as exc:
        raise LintError(str(exc)) from exc


def run_lint(
    paths: Iterable[str],
    select: Optional[Iterable[str]] = None,
    exclude: Iterable[str] = (),
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` with the selected rules
    (default: all).  Directories named in ``exclude`` are skipped during
    directory walks (explicit file arguments always lint).  Returns
    surviving (unsuppressed) findings sorted by location.

    Raises :class:`LintError` -- never a raw traceback -- for a missing
    path, an unreadable file (permissions, non-UTF-8 bytes), or a
    syntax error: all the exit-code-2 paths of ``python -m repro
    lint``."""
    if select is None:
        rules = dict(RULES)
    else:
        rules = {}
        for name in select:
            if name not in RULES:
                raise LintError(
                    f"unknown rule {name!r}; available: {', '.join(sorted(RULES))}"
                )
            rules[name] = RULES[name]
    findings: List[Finding] = []
    for path in _iter_py_files(paths, exclude):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise LintError(f"{path}: cannot read: {exc}") from exc
        mod = _Module(str(path), source)
        for fn in rules.values():
            findings.extend(f for f in fn(mod) if mod.allows(f))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings

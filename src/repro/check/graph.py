"""The shared static-analysis layer: parsed modules and a call graph.

simlint (:mod:`repro.check.lint`) is deliberately intraprocedural -- each
rule looks at one function at a time -- which is exactly why it cannot
see a blocking wait reached two calls deep while a domain lock is held.
This module supplies the missing half: a best-effort **call graph** over
a set of Python sources, built purely from the stdlib :mod:`ast` (no
imports of the analyzed code, no new dependencies), shared by the
continuation-discipline lint rule and the deadcheck analyzer
(:mod:`repro.check.deadcheck`).

What resolves (everything else is silently "unknown", never a guess):

* module-level functions, including names imported from other modules
  *in the analyzed set* (``from ..locks.base import x``, absolute and
  relative forms, aliases);
* locally-defined ``def``s through the lexical scope chain;
* methods called on ``self``, looked up through the class's in-graph
  base chain (cross-module bases resolve through the import table);
* ``ClassName(...)`` constructor calls (to ``__init__``) and
  ``ClassName.method(...)``;
* ``self.attr.method()`` where some method assigns
  ``self.attr = ClassName(...)`` -- one level of attribute-type
  inference over class bodies;
* ``yield from gen(...)`` generator composition -- the ``Call`` node is
  resolved exactly like a plain call, so lock protocols that compose
  generators (``yield from self.lock.acquire(ctx)``) chain through the
  graph.

Suppression comments are parsed here too, because both tools share the
mechanism: ``# simlint: disable=RULE`` and ``# simcheck: disable=RULE``
are interchangeable spellings (comma-separated rules, or ``all``),
line-scoped and rule-scoped.  Unknown rule names in a disable list are
ignored -- they suppress nothing, and must never crash the run.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

__all__ = [
    "GraphError",
    "SourceModule",
    "FunctionInfo",
    "ClassInfo",
    "CallGraph",
    "iter_py_files",
    "module_name_for",
]


class GraphError(RuntimeError):
    """The graph could not be built (bad path, unreadable source)."""


#: Both tool prefixes are accepted everywhere: the suppression mechanism
#: predates deadcheck, and a waiver should not need rewriting when a
#: second tool starts honouring it.
_SUPPRESS_RE = re.compile(r"#\s*sim(?:lint|check):\s*disable=([\w,\- ]+)")


def module_name_for(path: Path) -> str:
    """Dotted module name for ``path``, walking up through packages.

    ``src/repro/mpi/runtime.py`` -> ``repro.mpi.runtime`` (each parent
    with an ``__init__.py`` contributes a segment); a loose file (no
    package) is just its stem.  ``__init__.py`` maps to the package
    itself.
    """
    path = Path(path)
    parts: List[str] = [] if path.name == "__init__.py" else [path.stem]
    d = path.resolve().parent
    while (d / "__init__.py").exists():
        parts.append(d.name)
        d = d.parent
    return ".".join(reversed(parts)) or path.stem


class SourceModule:
    """One parsed source file plus its line-scoped suppression table."""

    def __init__(self, path: str, source: str, modname: Optional[str] = None):
        self.path = path
        self.modname = modname or module_name_for(Path(path))
        self.is_package = Path(path).name == "__init__.py"
        # SyntaxError propagates: callers decide how to diagnose it.
        self.tree = ast.parse(source, filename=path)
        #: line number -> set of suppressed rule names (or {"all"}).
        self.suppressed: Dict[int, set] = {}
        for i, line in enumerate(source.splitlines(), start=1):
            m = _SUPPRESS_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                self.suppressed[i] = rules

    def allows(self, finding) -> bool:
        """True unless ``finding``'s line suppresses its rule."""
        rules = self.suppressed.get(finding.line)
        if not rules:
            return True
        return finding.rule not in rules and "all" not in rules

    @property
    def package(self) -> str:
        """The package relative imports resolve against."""
        if self.is_package:
            return self.modname
        return self.modname.rsplit(".", 1)[0] if "." in self.modname else ""


class FunctionInfo:
    """One function or method in the graph."""

    __slots__ = ("key", "name", "qualname", "node", "module", "cls", "parent",
                 "nested")

    def __init__(self, name, qualname, node, module, cls=None, parent=None):
        self.name = name
        self.qualname = qualname
        self.key = f"{module.modname}.{qualname}"
        self.node = node
        self.module = module
        #: Enclosing :class:`ClassInfo` for methods, else None.
        self.cls = cls
        #: Enclosing FunctionInfo for nested defs, else None.
        self.parent = parent
        #: Directly nested ``def``s by bare name (lexical scope chain).
        self.nested: Dict[str, "FunctionInfo"] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<FunctionInfo {self.key}>"


class ClassInfo:
    """One class: methods, base names, inferred attribute types."""

    __slots__ = ("key", "name", "node", "module", "base_exprs", "base_keys",
                 "methods", "attr_types")

    def __init__(self, name, node, module):
        self.name = name
        self.key = f"{module.modname}.{name}"
        self.node = node
        self.module = module
        #: Base-class expressions as written (resolved in finalize()).
        self.base_exprs: List[ast.expr] = list(node.bases)
        self.base_keys: List[str] = []
        self.methods: Dict[str, FunctionInfo] = {}
        #: attr name -> ClassInfo key, from ``self.attr = ClassName(...)``.
        self.attr_types: Dict[str, str] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ClassInfo {self.key}>"


class CallGraph:
    """Best-effort call graph over a set of :class:`SourceModule`\\ s.

    Build with :meth:`add_module` per file then one :meth:`finalize`;
    query with :meth:`resolve_call` / :meth:`resolve_callable`.
    Resolution returns a single :class:`FunctionInfo` or ``None`` --
    the graph never guesses between candidates.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, SourceModule] = {}
        #: Fully-qualified key -> info, over every module added.
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: modname -> {local alias -> dotted target} import tables.
        self._imports: Dict[str, Dict[str, str]] = {}
        #: modname -> {bare name -> FunctionInfo} (module level only).
        self._mod_funcs: Dict[str, Dict[str, FunctionInfo]] = {}
        self._mod_classes: Dict[str, Dict[str, ClassInfo]] = {}

    @classmethod
    def for_module(cls, mod: SourceModule) -> "CallGraph":
        """A single-module graph (what the lint rules use)."""
        g = cls()
        g.add_module(mod)
        g.finalize()
        return g

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_module(self, mod: SourceModule) -> None:
        self.modules[mod.modname] = mod
        self._imports[mod.modname] = self._collect_imports(mod)
        funcs: Dict[str, FunctionInfo] = {}
        classes: Dict[str, ClassInfo] = {}
        self._mod_funcs[mod.modname] = funcs
        self._mod_classes[mod.modname] = classes
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = FunctionInfo(stmt.name, stmt.name, stmt, mod)
                funcs[stmt.name] = fi
                self.functions[fi.key] = fi
                self._add_nested(fi, mod)
            elif isinstance(stmt, ast.ClassDef):
                ci = ClassInfo(stmt.name, stmt, mod)
                classes[stmt.name] = ci
                self.classes[ci.key] = ci
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fi = FunctionInfo(
                            sub.name, f"{stmt.name}.{sub.name}", sub, mod,
                            cls=ci,
                        )
                        ci.methods[sub.name] = fi
                        self.functions[fi.key] = fi
                        self._add_nested(fi, mod)

    def _add_nested(self, outer: FunctionInfo, mod: SourceModule) -> None:
        """Record directly nested ``def``s (lexical scope chain).

        Iterates every block owned by ``outer`` without descending into
        nested defs -- those are added (recursively) by their parent.
        """
        stack = list(ast.iter_child_nodes(outer.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = FunctionInfo(
                    node.name, f"{outer.qualname}.<locals>.{node.name}",
                    node, mod, cls=outer.cls, parent=outer,
                )
                outer.nested[node.name] = fi
                self.functions[fi.key] = fi
                self._add_nested(fi, mod)
                continue
            if isinstance(node, ast.Lambda):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _collect_imports(self, mod: SourceModule) -> Dict[str, str]:
        table: Dict[str, str] = {}
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.asname:
                        table[a.asname] = a.name
                    else:
                        # ``import a.b.c`` binds ``a``; attribute chains
                        # join the rest back on at lookup time.
                        table[a.name.split(".")[0]] = a.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    pkg_parts = mod.package.split(".") if mod.package else []
                    up = node.level - 1
                    if up:
                        pkg_parts = pkg_parts[:-up] if up <= len(pkg_parts) else []
                    base = ".".join(pkg_parts + ([node.module] if node.module else []))
                for a in node.names:
                    if a.name == "*":
                        continue
                    table[a.asname or a.name] = f"{base}.{a.name}" if base else a.name
        return table

    def finalize(self) -> None:
        """Resolve base-class chains and infer attribute types.

        Call once after every module is added; idempotent.
        """
        for ci in self.classes.values():
            ci.base_keys = []
            for expr in ci.base_exprs:
                target = self._resolve_symbol_expr(expr, ci.module)
                if isinstance(target, ClassInfo):
                    ci.base_keys.append(target.key)
        for ci in self.classes.values():
            for fi in ci.methods.values():
                for node in ast.walk(fi.node):
                    if not isinstance(node, ast.Assign):
                        continue
                    v = node.value
                    if not isinstance(v, ast.Call):
                        continue
                    cls = self._resolve_symbol_expr(v.func, ci.module)
                    if not isinstance(cls, ClassInfo):
                        continue
                    for t in node.targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"
                        ):
                            ci.attr_types.setdefault(t.attr, cls.key)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, call: ast.Call, scope: Optional[FunctionInfo],
        module: Optional[SourceModule] = None,
    ) -> Optional[FunctionInfo]:
        """The function a call lands in, or None if unknowable."""
        return self.resolve_callable(call.func, scope, module)

    def resolve_callable(
        self, expr: ast.expr, scope: Optional[FunctionInfo],
        module: Optional[SourceModule] = None,
    ) -> Optional[FunctionInfo]:
        """Resolve a callable *expression* (a call's ``func``, or a
        callback argument like ``self.method``) to its definition."""
        mod = module or (scope.module if scope is not None else None)
        if mod is None:
            return None
        if isinstance(expr, ast.Name):
            target = self._lookup_name(expr.id, scope, mod)
            if isinstance(target, ClassInfo):
                return self._method(target, "__init__")
            if isinstance(target, FunctionInfo):
                return target
            return None
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name):
                if base.id == "self" and scope is not None and scope.cls is not None:
                    return self._method(scope.cls, expr.attr)
                target = self._lookup_name(base.id, scope, mod)
                if isinstance(target, ClassInfo):
                    return self._method(target, expr.attr)
                if isinstance(target, str):
                    # Module path: ``modalias.fn()`` / ``modalias.Cls()``.
                    fn = self.functions.get(f"{target}.{expr.attr}")
                    if fn is not None:
                        return fn
                    cls = self.classes.get(f"{target}.{expr.attr}")
                    if cls is not None:
                        return self._method(cls, "__init__")
                return None
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and scope is not None
                and scope.cls is not None
            ):
                # ``self.attr.method()`` via inferred attribute type.
                key = self._attr_type(scope.cls, base.attr)
                if key is not None and key in self.classes:
                    return self._method(self.classes[key], expr.attr)
        return None

    # -- internals ------------------------------------------------------
    def _lookup_name(
        self, name: str, scope: Optional[FunctionInfo], mod: SourceModule,
    ) -> Union[FunctionInfo, ClassInfo, str, None]:
        # Lexical scope chain: nested defs of enclosing functions first.
        s = scope
        while s is not None:
            if name in s.nested:
                return s.nested[name]
            s = s.parent
        funcs = self._mod_funcs.get(mod.modname, {})
        if name in funcs:
            return funcs[name]
        classes = self._mod_classes.get(mod.modname, {})
        if name in classes:
            return classes[name]
        dotted = self._imports.get(mod.modname, {}).get(name)
        if dotted is None:
            return None
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.classes:
            return self.classes[dotted]
        if dotted in self.modules:
            return dotted  # module prefix for attribute chaining
        return dotted if dotted else None

    def _method(
        self, cls: ClassInfo, name: str, _seen: Optional[set] = None,
    ) -> Optional[FunctionInfo]:
        """MRO-ish lookup: the class, then bases depth-first in order."""
        seen = _seen if _seen is not None else set()
        if cls.key in seen:
            return None
        seen.add(cls.key)
        if name in cls.methods:
            return cls.methods[name]
        for bk in cls.base_keys:
            base = self.classes.get(bk)
            if base is not None:
                hit = self._method(base, name, seen)
                if hit is not None:
                    return hit
        return None

    def _attr_type(
        self, cls: ClassInfo, attr: str, _seen: Optional[set] = None,
    ) -> Optional[str]:
        seen = _seen if _seen is not None else set()
        if cls.key in seen:
            return None
        seen.add(cls.key)
        if attr in cls.attr_types:
            return cls.attr_types[attr]
        for bk in cls.base_keys:
            base = self.classes.get(bk)
            if base is not None:
                hit = self._attr_type(base, attr, seen)
                if hit is not None:
                    return hit
        return None

    def _resolve_symbol_expr(
        self, expr: ast.expr, mod: SourceModule,
    ) -> Union[FunctionInfo, ClassInfo, str, None]:
        """Resolve a plain symbol expression (base class, constructor)."""
        if isinstance(expr, ast.Name):
            return self._lookup_name(expr.id, None, mod)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            target = self._lookup_name(expr.value.id, None, mod)
            if isinstance(target, str):
                full = f"{target}.{expr.attr}"
                return self.classes.get(full) or self.functions.get(full)
        return None

    def functions_of(self, mod: SourceModule) -> Iterator[FunctionInfo]:
        for fi in self.functions.values():
            if fi.module is mod:
                yield fi


# ----------------------------------------------------------------------
# File walking (shared by lint and deadcheck runners)
# ----------------------------------------------------------------------
def iter_py_files(
    paths: Iterable[str], exclude: Iterable[str] = ()
) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, skipping ``exclude`` dirs
    during directory walks (explicit file arguments always yield).
    Raises :class:`GraphError` for a missing path."""
    skip = [Path(e).resolve() for e in exclude]
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                r = f.resolve()
                if any(s == r or s in r.parents for s in skip):
                    continue
                yield f
        elif p.is_file():
            yield p
        else:
            raise GraphError(f"no such file or directory: {raw}")


def load_module(path: Path) -> SourceModule:
    """Read and parse one file; unreadable or unparseable sources raise
    :class:`GraphError` with a one-line diagnostic (never a traceback
    from deep inside the walker)."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"{path}: cannot read: {exc}") from exc
    try:
        return SourceModule(str(path), source)
    except SyntaxError as exc:
        raise GraphError(f"{path}: cannot parse: {exc}") from exc

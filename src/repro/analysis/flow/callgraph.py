"""Project-wide call graph over the ``repro`` source tree.

:class:`ProjectGraph` parses every module once, derives dotted module
names from the package layout, extends the per-module alias maps of
:func:`repro.analysis.rules.build_alias_map` with *relative* imports
(``from ..bgp import attributes``), and resolves every call site into
one of three edge kinds:

* **project** — the callee is a function or method defined somewhere in
  the analysed tree (``repro.bgp.attributes.decode_attributes``,
  ``repro.sim.engine.Simulator.schedule``);
* **external** — the callee resolves to an imported dotted path outside
  the tree (``time.monotonic``, ``heapq.heappush``) — the taint pass
  matches these against its source/sink tables;
* **virtual** — an attribute call on an object of unknown type
  (``router.process_packet(...)``). Virtual edges link to *every*
  project function with that bare name: a deliberate over-approximation
  that keeps reachability sound for the shared-state census (a worker
  entry point reaches everything it could dispatch to) at the price of
  precision, which the baseline and ``# repro: noqa`` absorb.

Nested ``def``s are attributed to their enclosing top-level function or
method: a call made inside a closure is an edge out of the function
that owns the closure, which is the right granularity for both taint
propagation and worker-path reachability.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.rules import build_alias_map, resolve_dotted

#: Bare names of functions that run on the far side of a process
#: boundary: the grid supervisor's worker entry, the cell runner it
#: serves, the topology cell runner behind ``TopoCell.run``, and the
#: parallel engine's shard process entry. Any module-global mutation
#: reachable from one of these runs once per *worker process*, not once
#: per program — the fork-safety hazard RPR102 polices.
WORKER_ENTRY_NAMES = frozenset(
    {"run_cell", "_worker_main", "run_topo_cell", "_shard_main"}
)


@dataclass(slots=True)
class FunctionInfo:
    """One project function or method, with its owning module."""

    qualname: str
    module: str
    path: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_name: "str | None" = None

    @property
    def bare_name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(slots=True)
class ModuleInfo:
    """One parsed module of the analysed project."""

    name: str
    path: str
    source: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)
    #: Qualnames of functions/methods defined in this module.
    functions: list[str] = field(default_factory=list)
    #: Top-level class names (for ``ClassName.method(...)`` resolution).
    classes: set[str] = field(default_factory=set)


@dataclass(slots=True)
class CallSite:
    """One resolved call site inside a project function."""

    kind: str  # "project" | "external" | "virtual"
    target: str  # qualname, dotted path, or bare method name
    node: ast.Call


def module_name_for(path: Path) -> str:
    """Dotted module name derived from the package layout.

    Walks up while ``__init__.py`` marks the parent as a package, so
    ``src/repro/bgp/attributes.py`` -> ``repro.bgp.attributes`` and a
    loose fixture file is just its stem.
    """
    path = Path(path)
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    if not parts:  # a bare __init__.py outside any package
        parts = [path.parent.name]
    return ".".join(reversed(parts))


def resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> "str | None":
    """Absolute dotted module for a relative ``from ... import``."""
    base = module.split(".") if is_package else module.split(".")[:-1]
    hops = node.level - 1
    if hops > len(base):
        return None
    parent = base[: len(base) - hops] if hops else base
    if node.module:
        parent = parent + node.module.split(".")
    return ".".join(parent) if parent else None


def module_alias_map(tree: ast.Module, module: str, is_package: bool) -> dict[str, str]:
    """The :func:`build_alias_map` table, extended with relative imports
    resolved against *module*'s position in the package."""
    aliases = build_alias_map(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            target = resolve_relative(module, is_package, node)
            if target is None:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{target}.{alias.name}"
    return aliases


def iter_statements(body: "list[ast.stmt]") -> Iterator[ast.stmt]:
    """Every statement under *body* in source order, descending into
    compound statements but not into nested function/class defs."""
    for stmt in body:
        yield stmt
        for child_body in _child_bodies(stmt):
            yield from iter_statements(child_body)


def _child_bodies(stmt: ast.stmt) -> "list[list[ast.stmt]]":
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if value:
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []):
        bodies.append(handler.body)
    for case in getattr(stmt, "cases", []):  # match statements (3.10+)
        bodies.append(case.body)
    return bodies


class ProjectGraph:
    """The whole-program view: modules, functions, and call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: caller qualname -> set of project callee qualnames.
        self.calls: dict[str, set[str]] = {}
        #: caller qualname -> set of external dotted callee paths.
        self.external: dict[str, set[str]] = {}
        #: caller qualname -> set of unresolved bare method names.
        self.virtual: dict[str, set[str]] = {}
        #: bare function name -> qualnames sharing it (virtual dispatch).
        self.by_name: dict[str, set[str]] = {}
        self.parse_errors: list[str] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, files: Iterable[Path]) -> "ProjectGraph":
        graph = cls()
        for path in files:
            path = Path(path)
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                graph.parse_errors.append(
                    f"{path}: {error.msg} (line {error.lineno})"
                )
                continue
            name = module_name_for(path)
            info = ModuleInfo(
                name=name,
                path=str(path),
                source=source,
                tree=tree,
                aliases=module_alias_map(tree, name, path.name == "__init__.py"),
            )
            graph.modules[name] = info
            graph._collect_functions(info)
        for info in graph.modules.values():
            graph._collect_calls(info)
        return graph

    def _collect_functions(self, info: ModuleInfo) -> None:
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                info.classes.add(stmt.name)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(info, item, class_name=stmt.name)

    def _add_function(
        self,
        info: ModuleInfo,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        class_name: "str | None",
    ) -> None:
        scope = f"{info.name}.{class_name}" if class_name else info.name
        qualname = f"{scope}.{node.name}"
        function = FunctionInfo(
            qualname=qualname,
            module=info.name,
            path=info.path,
            node=node,
            class_name=class_name,
        )
        self.functions[qualname] = function
        info.functions.append(qualname)
        self.by_name.setdefault(node.name, set()).add(qualname)

    def _collect_calls(self, info: ModuleInfo) -> None:
        for qualname in info.functions:
            function = self.functions[qualname]
            project: set[str] = set()
            external: set[str] = set()
            virtual: set[str] = set()
            for site in self.call_sites(function):
                if site.kind == "project":
                    project.add(site.target)
                elif site.kind == "external":
                    external.add(site.target)
                else:
                    virtual.add(site.target)
            self.calls[qualname] = project
            self.external[qualname] = external
            self.virtual[qualname] = virtual

    # -- call-site resolution -----------------------------------------------

    def call_sites(self, function: FunctionInfo) -> Iterator[CallSite]:
        """Every call inside *function* (closures included), resolved."""
        info = self.modules[function.module]
        for node in ast.walk(function.node):
            if isinstance(node, ast.Call):
                yield self.resolve_call(node, info, function.class_name)

    def resolve_call(
        self, node: ast.Call, info: ModuleInfo, class_name: "str | None"
    ) -> CallSite:
        func = node.func
        if isinstance(func, ast.Name):
            local = f"{info.name}.{func.id}"
            if local in self.functions:
                return CallSite("project", local, node)
            dotted = info.aliases.get(func.id)
            if dotted is not None:
                if dotted in self.functions:
                    return CallSite("project", dotted, node)
                return CallSite("external", dotted, node)
            return CallSite("virtual", func.id, node)
        if isinstance(func, ast.Attribute):
            dotted = resolve_dotted(func, info.aliases)
            if dotted is not None:
                if dotted in self.functions:
                    return CallSite("project", dotted, node)
                return CallSite("external", dotted, node)
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and class_name is not None:
                    method = f"{info.name}.{class_name}.{func.attr}"
                    if method in self.functions:
                        return CallSite("project", method, node)
                if base.id in info.classes:
                    method = f"{info.name}.{base.id}.{func.attr}"
                    if method in self.functions:
                        return CallSite("project", method, node)
            return CallSite("virtual", func.attr, node)
        return CallSite("virtual", "<dynamic>", node)

    # -- reachability -------------------------------------------------------

    def entry_points(self) -> list[str]:
        """Qualnames of every worker process entry point in the tree."""
        return sorted(
            qualname
            for name in sorted(WORKER_ENTRY_NAMES)
            for qualname in self.by_name.get(name, ())
        )

    def reachable_from(
        self, entries: Iterable[str], virtual_dispatch: bool = True
    ) -> dict[str, str]:
        """``{qualname: entry}`` for every function reachable from any
        of *entries* over project edges (and virtual name-match edges
        when *virtual_dispatch*). The recorded entry is the first one
        that reached the function, entries processed in sorted order."""
        reached: dict[str, str] = {}
        for entry in sorted(set(entries)):
            if entry not in self.functions or entry in reached:
                continue
            stack = [entry]
            while stack:
                current = stack.pop()
                if current in reached:
                    continue
                reached[current] = entry
                targets = set(self.calls.get(current, ()))
                if virtual_dispatch:
                    for bare in self.virtual.get(current, ()):
                        targets.update(self.by_name.get(bare, ()))
                stack.extend(t for t in sorted(targets) if t not in reached)
        return reached

    def call_chain(self, entry: str, target: str) -> "list[str] | None":
        """A shortest entry->target qualname chain (virtual edges
        included), for human-readable diagnostics; None when unreachable."""
        if entry not in self.functions:
            return None
        previous: dict[str, str] = {entry: ""}
        frontier = [entry]
        while frontier:
            next_frontier: list[str] = []
            for current in frontier:
                if current == target:
                    chain = [current]
                    while previous[chain[-1]]:
                        chain.append(previous[chain[-1]])
                    return list(reversed(chain))
                targets = set(self.calls.get(current, ()))
                for bare in self.virtual.get(current, ()):
                    targets.update(self.by_name.get(bare, ()))
                for callee in sorted(targets):
                    if callee not in previous:
                        previous[callee] = current
                        next_frontier.append(callee)
            frontier = next_frontier
        return None

"""The determinism-rule registry.

Every rule is a class deriving from :class:`Rule`, registered under a
stable id (``RPR001``…). A rule receives a parsed
:class:`ModuleContext` and yields :class:`Finding` diagnostics; the
engine in :mod:`repro.analysis.linter` handles file discovery, ``#
repro: noqa[...]`` suppression, and rendering. Rules are *tuned to this
codebase*: they encode the specific reproducibility contract the grid
cache and the golden-baseline gate rely on (see docs/ANALYSIS.md),
not generic style policy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and why."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_jsonable(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule_id": self.rule_id,
            "message": self.message,
            "severity": self.severity,
        }


class ModuleContext:
    """One parsed module, shared by every rule that checks it."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.aliases = build_alias_map(tree)

    @classmethod
    def parse(cls, path: str, source: str) -> "ModuleContext":
        return cls(path, source, ast.parse(source, filename=path))


class Rule:
    """Base class: subclasses set the id/title/severity and implement
    :meth:`check`. The docstring of each subclass is the rule's
    rationale, rendered by ``bgpbench lint --list-rules``."""

    rule_id: str = ""
    title: str = ""
    severity: str = "error"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
            severity=self.severity,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator: add *rule_class* to the registry by its id."""
    if not rule_class.rule_id:
        raise ValueError(f"{rule_class.__name__} has no rule_id")
    if rule_class.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.rule_id}")
    _REGISTRY[rule_class.rule_id] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """One instance of every registered rule, in id order."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]()


def rule_ids() -> list[str]:
    return sorted(_REGISTRY)


# -- shared AST helpers ------------------------------------------------------


def build_alias_map(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import time`` -> {"time": "time"}; ``import numpy as np`` ->
    {"np": "numpy"}; ``from datetime import datetime as dt`` ->
    {"dt": "datetime.datetime"}.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve an expression like ``dt.now`` to its imported dotted path
    (``datetime.datetime.now``); None when the base is not an import."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


# Import the rule modules last so their ``@register`` decorators run
# against a fully initialised registry.
from repro.analysis.rules import boundary, determinism, hygiene, ordering  # noqa: E402,F401

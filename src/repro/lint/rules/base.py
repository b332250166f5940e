"""Rule framework: per-file context, the rule base classes, the registry."""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence

from ...errors import LintError
from ..findings import Finding


def dotted_name(node: ast.AST) -> str | None:
    """Render a ``Name``/``Attribute`` chain as ``"a.b.c"``, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FileContext:
    """Everything a rule needs to know about one parsed file."""

    path: str
    source: str
    tree: ast.Module
    #: POSIX-style path used for role matching (exemptions, scoping).
    posix: str = field(init=False)

    def __post_init__(self) -> None:
        self.posix = self.path.replace("\\", "/")

    def matches_module(self, *tails: str) -> bool:
        """Whether this file *is* one of the named library modules.

        Matching is suffix-based so it works from any invocation
        directory: ``repro/rng.py`` matches ``src/repro/rng.py`` and a
        bare ``rng.py`` linted from inside the package.
        """
        for tail in tails:
            if (
                self.posix == tail
                or self.posix.endswith("/" + tail)
                or tail.endswith("/" + self.posix)
            ):
                return True
        return False

    def in_dir(self, name: str) -> bool:
        """Whether the file lives under a directory called ``name``."""
        return f"/{name}/" in f"/{self.posix}"

    def locate(self, node: ast.AST) -> tuple[str, int, int]:
        """``(path, line, 1-based column)`` of ``node`` in this file."""
        return (
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
        )


class _RuleBase(ABC):
    """What every rule has: a stable id, metadata, and its findings."""

    id: ClassVar[str]
    name: ClassVar[str]
    severity: ClassVar[str] = "error"
    description: ClassVar[str]

    def finding(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        """Build a finding of this rule at an explicit location."""
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.id,
            severity=self.severity,
            message=message,
            hint=hint,
        )


class Rule(_RuleBase):
    """One per-file lint rule: an AST check over a single module.

    Subclasses set the class attributes and implement :meth:`visit`;
    :meth:`exempt` opts whole files out (the quarantine files a rule
    itself sanctions, e.g. ``rng.py`` for the determinism rule).
    """

    def exempt(self, ctx: FileContext) -> bool:
        """Whether this rule skips ``ctx``'s file entirely."""
        return False

    @abstractmethod
    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Run the rule unless the file is exempt."""
        if not self.exempt(ctx):
            yield from self.visit(ctx)


class FlowRule(_RuleBase):
    """One project-wide rule: checks a linked :class:`ProjectModel`.

    Flow rules only run under ``repro-lint --project`` — they need the
    whole module graph, so there is no per-file ``visit``.  Subclasses
    implement :meth:`check_project` and yield findings pinned to the
    file/line of the offending event.
    """

    @abstractmethod
    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings for one linked project model."""


#: Every rule, per-file and project-wide, by id.
_REGISTRY: dict[str, Rule | FlowRule] = {}


def register(cls: type[_RuleBase]) -> type[_RuleBase]:
    """Class decorator adding a rule (by instance) to the registry."""
    _REGISTRY[cls.id] = cls()
    return cls


def resolve_rules(
    ids: Sequence[str] | None = None,
) -> tuple[tuple[Rule, ...], tuple[FlowRule, ...]]:
    """Resolve rule ids to ``(per-file rules, flow rules)``, by id.

    No ids selects every rule.  Ids are case-insensitive; an unknown
    one raises :class:`LintError` naming the known rules.
    """
    keys = set(_REGISTRY)
    if ids:
        for rule_id in ids:
            if rule_id.upper() not in _REGISTRY:
                known = ", ".join(sorted(_REGISTRY))
                raise LintError(
                    f"unknown rule {rule_id!r} (known rules: {known})"
                )
        keys = {rule_id.upper() for rule_id in ids}
    chosen = [rule for key, rule in sorted(_REGISTRY.items()) if key in keys]
    return (
        tuple(rule for rule in chosen if isinstance(rule, Rule)),
        tuple(rule for rule in chosen if isinstance(rule, FlowRule)),
    )


def all_rules() -> tuple[Rule, ...]:
    """Every registered per-file rule, ordered by id."""
    return resolve_rules()[0]


def all_flow_rules() -> tuple[FlowRule, ...]:
    """Every registered project-wide flow rule, ordered by id."""
    return resolve_rules()[1]

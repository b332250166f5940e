"""RL003 — error taxonomy: failures surface as :class:`repro.errors.ReproError`.

Callers catch ``ReproError`` to separate library failures from
programming errors (the PR 1 CLI contract), so raising a bare builtin
from library code punches a hole in that contract.  This rule flags

* ``raise Exception/ValueError/RuntimeError(...)`` (called or bare);
* exception swallowing: an ``except`` clause catching ``Exception`` /
  ``BaseException`` / everything whose body is only ``pass``/``...``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule, register

_BANNED_RAISES = {"Exception", "ValueError", "RuntimeError"}
_BROAD_CATCHES = {"Exception", "BaseException"}

_HINT = "raise a ReproError subclass from repro.errors instead"


def _exception_name(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_noop_body(body: list[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or bare `...`
        return False
    return True


@register
class ErrorTaxonomyRule(Rule):
    id = "RL003"
    name = "error-taxonomy"
    description = (
        "library failures must raise ReproError subclasses; broad "
        "except clauses must not swallow silently"
    )

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                name = _exception_name(node.exc)
                if name in _BANNED_RAISES:
                    yield self.finding(
                        *ctx.locate(node),
                        f"raise of bare builtin {name}",
                        hint=_HINT,
                    )
            elif isinstance(node, ast.ExceptHandler):
                name = _exception_name(node.type)
                is_broad = node.type is None or name in _BROAD_CATCHES
                if is_broad and _is_noop_body(node.body):
                    caught = name or "everything"
                    yield self.finding(
                        *ctx.locate(node),
                        f"except clause catching {caught} swallows the error",
                        hint=(
                            "narrow the exception type or handle/re-raise "
                            "the failure"
                        ),
                    )

"""RL004 — float equality: no ``==``/``!=`` against float literals.

The physics paths (``circuits/``, ``power/``, ``analysis/``) compute
voltages, durations and fractions with ordinary float arithmetic, where
exact equality silently turns into "never true" the moment a model adds
noise or a term.  This rule flags any ``==`` or ``!=`` comparison with a
float literal operand; use an explicit tolerance (``math.isclose``), an
ordered comparison against a bound, or compare the underlying integer
counts.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule, register

_HINT = (
    "compare with an explicit tolerance (math.isclose), an ordered "
    "bound (<=), or the underlying integer counts"
)


def _is_float_literal(node: ast.AST) -> bool:
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
    ):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEqualityRule(Rule):
    id = "RL004"
    name = "float-equality"
    description = "no ==/!= comparisons against float literals"

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_float_literal(left) or _is_float_literal(right):
                    yield self.finding(
                        *ctx.locate(node),
                        "exact ==/!= comparison against a float literal",
                        hint=_HINT,
                    )
                    break

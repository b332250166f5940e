"""RL002 — unit hygiene: quantities are SI, call sites say their unit.

The simulation stores every quantity in SI base units (``units.py``),
and sub-unit magnitudes written as bare literals are where silent
scaling bugs hide (``0.004`` — milliseconds or millivolts?).  This rule
flags a bare float literal bound to a unit-suffixed name (keyword
argument, parameter default, assignment, or tuple element) when its
magnitude is small enough that a ``units.py`` converter would document
it, plus any inline ``± 273.15`` Celsius/kelvin arithmetic outside
``units.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule, register

#: suffix -> (magnitude threshold, converter suggestion).  A literal
#: ``0 < |x| < threshold`` bound to a matching name is flagged.
_SUFFIXES: dict[str, tuple[float, str]] = {
    "_s": (0.1, "units.milliseconds() / units.microseconds()"),
    "_v": (0.1, "units.millivolts()"),
    "_a": (0.1, "units.milliamps()"),
    "_ohm": (0.1, "units.milliohms()"),
    "_f": (1e-4, "units.microfarads() / units.nanofarads()"),
}

_ABS_ZERO = 273.15


def _suffix_for(name: str | None) -> tuple[str, float, str] | None:
    if not name:
        return None
    lowered = name.lower()
    for suffix, (threshold, converter) in _SUFFIXES.items():
        if lowered.endswith(suffix):
            return suffix, threshold, converter
    return None


def _bare_floats(node: ast.AST) -> Iterator[ast.Constant]:
    """Float literals in ``node`` (a literal, or a literal tuple/list)."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, float):
            yield node
    elif isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from _bare_floats(element)
    elif (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
    ):
        yield from _bare_floats(node.operand)


@register
class UnitHygieneRule(Rule):
    id = "RL002"
    name = "unit-hygiene"
    description = (
        "sub-unit magnitudes bound to unit-suffixed names must use a "
        "units.py converter; no inline Celsius/kelvin arithmetic"
    )

    def exempt(self, ctx: FileContext) -> bool:
        return ctx.matches_module("repro/units.py")

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    yield from self._check_binding(ctx, keyword.arg, keyword.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(ctx, node.args)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    yield from self._check_binding(
                        ctx, node.target.id, node.value
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield from self._check_binding(
                            ctx, target.id, node.value
                        )
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                for side in (node.left, node.right):
                    if (
                        isinstance(side, ast.Constant)
                        and isinstance(side.value, float)
                        and abs(abs(side.value) - _ABS_ZERO) < 1e-9
                    ):
                        yield self.finding(
                            *ctx.locate(node),
                            "inline Celsius/kelvin offset arithmetic",
                            hint=(
                                "use units.celsius_to_kelvin / "
                                "units.kelvin_to_celsius"
                            ),
                        )

    def _check_defaults(
        self, ctx: FileContext, args: ast.arguments
    ) -> Iterator[Finding]:
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional) - len(args.defaults):],
                                args.defaults):
            yield from self._check_binding(ctx, arg.arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield from self._check_binding(ctx, arg.arg, default)

    def _check_binding(
        self, ctx: FileContext, name: str | None, value: ast.AST
    ) -> Iterator[Finding]:
        matched = _suffix_for(name)
        if matched is None:
            return
        suffix, threshold, converter = matched
        for literal in _bare_floats(value):
            magnitude = abs(literal.value)
            if 0.0 < magnitude < threshold:
                yield self.finding(
                    *ctx.locate(literal),
                    (
                        f"bare literal {literal.value!r} bound to "
                        f"unit-suffixed name {name!r}"
                    ),
                    hint=f"spell the scale out with {converter}",
                )

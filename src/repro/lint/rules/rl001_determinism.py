"""RL001 — determinism: all entropy and clocks flow through sanctioned modules.

The paper's figures are only credible if a whole board is reproducible
from one integer, so stochastic state must come from
:mod:`repro.rng` (``derive_seed``/``generator``/``from_entropy``/
``spawn``) and wall-clock readings from :mod:`repro.obs.timing`.  This
rule bans the ambient entropy and clock sources everywhere else:

* ``import random`` / ``import time`` / ``import secrets`` (any form);
* calls to ``os.urandom``, ``uuid.uuid4``;
* ``datetime.now`` / ``utcnow`` / ``today`` calls;
* any ``np.random.*`` / ``numpy.random.*`` call — including
  ``default_rng`` — outside the quarantine modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from .base import FileContext, Rule, dotted_name, register

#: Files allowed to touch numpy RNG construction and the wall clock.
_EXEMPT = ("repro/rng.py", "repro/obs/timing.py")

#: Modules that must not be imported outside the quarantine files.
_BANNED_MODULES = {"random", "time", "secrets"}

#: Fully-dotted call names that are always nondeterministic.
_BANNED_CALLS = {"os.urandom", "uuid.uuid4", "uuid.uuid1"}

#: ``<something>.now()``-style clock reads on datetime objects.
_CLOCK_ATTRS = {"now", "utcnow", "today"}
_CLOCK_BASES = {"datetime", "date"}

_HINT_RNG = (
    "derive the generator through repro.rng "
    "(derive_seed / generator / from_entropy / spawn)"
)
_HINT_CLOCK = "read the wall clock through repro.obs.timing.wall_clock"


@register
class DeterminismRule(Rule):
    id = "RL001"
    name = "determinism"
    description = (
        "entropy must flow through repro.rng and wall-clock reads "
        "through repro.obs.timing"
    )

    def exempt(self, ctx: FileContext) -> bool:
        return ctx.matches_module(*_EXEMPT)

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        yield self._import_finding(ctx, node, root)
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES and node.level == 0:
                    yield self._import_finding(ctx, node, root)
                if root == "os" and any(
                    alias.name == "urandom" for alias in node.names
                ):
                    yield self.finding(
                        *ctx.locate(node),
                        "os.urandom is nondeterministic",
                        hint=_HINT_RNG,
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)

    def _import_finding(
        self, ctx: FileContext, node: ast.AST, module: str
    ) -> Finding:
        hint = _HINT_CLOCK if module == "time" else _HINT_RNG
        return self.finding(
            *ctx.locate(node),
            f"import of nondeterministic module {module!r}",
            hint=hint,
        )

    def _check_call(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        if name in _BANNED_CALLS:
            yield self.finding(
                *ctx.locate(node),
                f"call to nondeterministic {name}",
                hint=_HINT_RNG,
            )
            return
        parts = name.split(".")
        if (
            len(parts) >= 2
            and parts[-1] in _CLOCK_ATTRS
            and parts[-2] in _CLOCK_BASES
        ):
            yield self.finding(
                *ctx.locate(node),
                f"wall-clock read via {name}",
                hint=_HINT_CLOCK,
            )
            return
        if len(parts) >= 3 and parts[-3] in {"np", "numpy"} and parts[-2] == "random":
            yield self.finding(
                *ctx.locate(node),
                f"direct numpy RNG construction/use via {name}",
                hint=_HINT_RNG,
            )

"""RL007 — shard-race: shard units must not write shared module state.

``repro.exec`` promises that ``--jobs N`` is byte-identical to serial
execution.  That holds only because work units are pure functions of
their arguments: a unit that mutates module-level or class-level state
sees that state *shared* on the serial path but *fork-isolated* on the
``ProcessPoolExecutor`` path, so the two diverge silently — exactly
the class of bug the runtime jobs-equivalence tests exist to catch,
caught here at lint time instead.

The rule walks the project call graph from every shard-unit entry
point — functions passed to ``WorkUnit(fn=...)`` or
``ShardPlan.enumerate(...)``, or marked ``@shard_unit`` — and flags
any reachable function that writes module/class-level state: ``global``
assignments, item/attribute stores through module bindings, or
mutating method calls (``append``/``update``/...) on them.

Two destinations are whitelisted because the engine itself owns their
process semantics: :mod:`repro.exec.runtime` (the checkpoint policy,
installed per-process by design) and the :data:`repro.obs.OBS`
singleton (workers quarantine and re-merge it explicitly).
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from .base import FlowRule, register

#: State the exec/obs layers own and reconcile across processes.
_WHITELIST_PREFIXES = ("repro.exec.runtime", "repro.obs.OBS")

_HINT = (
    "pass state in through the unit's arguments and out through its "
    "return value; only repro.exec.runtime and the repro.obs.OBS "
    "registries may hold cross-unit process state"
)


@register
class ShardRaceRule(FlowRule):
    id = "RL007"
    name = "shard-race"
    description = (
        "functions reachable from shard-unit entry points must not "
        "write module-level or class-level state (serial and --jobs "
        "runs would diverge)"
    )

    def check_project(self, project) -> Iterator[Finding]:
        entries = project.entry_points()
        if not entries:
            return
        origin = project.reachable_from(entries)
        for key in sorted(origin):
            if key not in project.functions:
                continue
            summary, fn = project.functions[key]
            entry = origin[key]
            via = "" if entry == key else f", reachable from {entry}"
            for write in fn.writes:
                if write.target.startswith(_WHITELIST_PREFIXES):
                    continue
                yield self.finding(
                    summary.path, write.line, write.col,
                    f"shard unit {key}{via} writes shared state "
                    f"{write.target} ({write.detail}); serial and "
                    f"pool-sharded runs would diverge",
                    hint=_HINT,
                )

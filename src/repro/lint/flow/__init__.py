"""Project-wide flow analysis for ``repro-lint --project``.

Where the per-file rules (RL001–RL006) police one AST at a time, this
package links every module of the tree into a :class:`ProjectModel` —
module/symbol tables, import resolution, a call graph — and runs
reachability and taint engines over it.  The interprocedural rules
RL007 (shard-race), RL008 (iteration order), and RL009
(fingerprint-purity taint) are built on top, in
:mod:`repro.lint.rules`.

Everything here is ``ast``-plus-stdlib only: the analysed code is
never imported, so linting cannot perturb the simulation it audits.
"""

from __future__ import annotations

from .cache import DEFAULT_CACHE_PATH, SummaryCache
from .project import ProjectModel, build_project, module_name_for
from .summarize import summarize_source

__all__ = [
    "DEFAULT_CACHE_PATH",
    "ProjectModel",
    "SummaryCache",
    "build_project",
    "module_name_for",
    "summarize_source",
]

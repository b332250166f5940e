"""``repro.lint`` — AST-based static analysis for the reproduction.

The simulation's credibility rests on invariants Python cannot enforce
at runtime: all entropy derives from one seed (RL001), quantities stay
in SI units (RL002), failures surface through the ``ReproError``
taxonomy (RL003), physics paths never compare floats exactly (RL004),
observability names come from one taxonomy (RL005), and wall-clock
reads go through ``repro.obs.timing`` (RL006).  This package checks
them statically, with a small rule framework, a ``repro-lint`` console
script, and per-line ``# repro-lint: ignore[RULE]`` suppressions.

RL001 and RL006 overlap on purpose.  Inside ``src/`` RL001 bans
``import time`` outright, which is strictly stronger than RL006's ban
on clock reads.  RL006 is the only clock rule for ``tools/``,
``benchmarks/`` and ``tests/``, where ``import time`` is legitimate for
``time.sleep``; folding the two would loosen ``src/`` or break that
harness sweep.

On top of the per-file rules sits a project-wide *flow* layer
(:mod:`repro.lint.flow`): every module is distilled into a
JSON-serializable summary (imports, call sites, shared-state writes,
unordered iterations, timing taint), the summaries are linked into a
:class:`~repro.lint.flow.ProjectModel` with a cross-module call graph,
and interprocedural rules check it — shard-race freedom (RL007),
iteration-order determinism (RL008), and fingerprint purity (RL009).

One pipeline runs both families — files → per-file rules → (with
``project``) flow rules → sorted findings::

    from repro.lint import lint_paths

    findings = lint_paths(["src"])                  # [] when clean
    findings = lint_paths(["src"], project=True)    # + RL007/RL008/RL009
"""

from __future__ import annotations

from .engine import flow_findings, iter_python_files, lint_paths, lint_source
from .rules import all_flow_rules, all_rules

__all__ = [
    "all_flow_rules",
    "all_rules",
    "flow_findings",
    "iter_python_files",
    "lint_paths",
    "lint_source",
]

"""The lint pipeline: files → per-file rules → flow rules → findings.

:func:`lint_paths` is the one pipeline behind ``repro-lint``,
``repro-verify`` and the test gate: it expands paths into files, runs
the per-file rules over each, with ``project`` adds the project-wide
flow rules (RL007+) over the whole file set, and returns the sorted,
unsuppressed findings.

The engine is deliberately import-light (ast + stdlib only) so the
linter itself never perturbs the simulation it polices.  Parse failures
are reported as rule ``RL000`` findings rather than crashing the run;
unreadable paths raise :class:`~repro.errors.LintError`, which the CLI
maps to exit code 2.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import LintError
from .findings import Finding
from .flow import DEFAULT_CACHE_PATH, SummaryCache, build_project
from .rules import FileContext, Rule, resolve_rules
from .suppress import is_suppressed, parse_suppressions

#: Pseudo-rule id for files that do not parse.
PARSE_ERROR_RULE = "RL000"


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into the ordered list of files to lint.

    Explicitly named files are always included; directories are walked
    for ``*.py``.  A path that does not exist raises :class:`LintError`.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise LintError(f"path does not exist: {path}")
    return list(dict.fromkeys(files))


def lint_source(
    source: str, path: str, rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one in-memory module; returns sorted, unsuppressed findings."""
    if rules is None:
        rules, _ = resolve_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1),
                rule=PARSE_ERROR_RULE,
                severity="error",
                message=f"file does not parse: {error.msg}",
            )
        ]
    context = FileContext(path=path, source=source, tree=tree)
    suppressions = parse_suppressions(source)
    findings = [
        finding
        for rule in rules
        for finding in rule.check(context)
        if not is_suppressed(suppressions, finding.line, finding.rule)
    ]
    return sorted(findings)


def lint_file(path: Path, rules: Sequence[Rule]) -> list[Finding]:
    """Lint one file on disk; unreadable files raise :class:`LintError`."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}")
    except UnicodeDecodeError as error:
        raise LintError(f"cannot decode {path}: {error}")
    return lint_source(source, str(path), rules)


def flow_findings(
    files: Sequence[Path],
    select: Sequence[str] | None = None,
    cache: SummaryCache | None = None,
) -> list[Finding]:
    """Run the project-wide flow rules (RL007+) over ``files``.

    Builds one linked :class:`~repro.lint.flow.ProjectModel` (through
    the summary ``cache`` when given) and checks every selected flow
    rule against it.  Suppression comments apply exactly as for
    per-file rules — the summaries carry each file's suppression map,
    so cached files never need re-reading.
    """
    _, rules = resolve_rules(select)
    if not rules:
        return []
    project = build_project(files, cache)
    suppressions = {
        summary.path: summary.suppression_map()
        for summary in project.modules.values()
    }
    findings = [
        finding
        for rule in rules
        for finding in rule.check_project(project)
        if not is_suppressed(
            suppressions.get(finding.path, {}), finding.line, finding.rule
        )
    ]
    return sorted(findings)


def lint_paths(
    paths: Iterable[str | Path],
    select: Sequence[str] | None = None,
    project: bool = False,
) -> list[Finding]:
    """The lint pipeline over files and directory trees.

    ``select`` restricts both rule families to the named ids (all rules
    when empty).  With ``project`` the flow rules run too, reusing
    per-module summaries through the cache at :data:`DEFAULT_CACHE_PATH`.
    """
    rules, _ = resolve_rules(select)
    files = iter_python_files(paths)
    findings = [finding for path in files for finding in lint_file(path, rules)]
    if project:
        cache = SummaryCache(DEFAULT_CACHE_PATH)
        findings.extend(flow_findings(files, select, cache))
        cache.save()
    return sorted(findings)

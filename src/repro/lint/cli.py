"""The ``repro-lint`` console script.

Exit codes follow the ``repro`` CLI convention: 0 for a clean tree, 1
when findings are reported, 2 for usage/IO failures (a missing path,
an unknown rule id) — the latter always as a one-line error on
stderr, never a traceback.

Five options: the paths to lint (default ``src/`` when it exists, else
``.``), ``--format``, ``--rule``, ``--project`` and ``--list-rules``.
``--project`` adds the whole-program flow rules (RL007 shard-race,
RL008 iteration-order, RL009 fingerprint-purity) on top of the
per-file checks, linking every module into one call graph and reusing
per-module summaries through an mtime+sha256 cache at
``.repro-lint-cache.json`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from ..errors import LintError
from .engine import iter_python_files, lint_paths
from .rules import all_flow_rules, all_rules

#: Version of the ``--format json`` document layout.
JSON_SCHEMA_VERSION = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based checks for the simulation's physics, determinism "
            "and error contracts"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/ if it exists, "
        "else .)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rule", action="append", default=[], metavar="ID",
        help="run only this rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--project", action="store_true",
        help="also run the project-wide flow rules (RL007+): call-graph "
        "shard-race, iteration-order, and fingerprint-taint analysis",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id}  {rule.name}: {rule.description}")
    for flow_rule in all_flow_rules():
        print(
            f"{flow_rule.id}  {flow_rule.name} (project-wide): "
            f"{flow_rule.description}"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-lint``; returns the exit code."""
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    paths = args.paths or ["src" if Path("src").is_dir() else "."]
    try:
        files = iter_python_files(paths)
        findings = lint_paths(files, args.rule, project=args.project)
    except LintError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        document = {
            "schema_version": JSON_SCHEMA_VERSION,
            "checked": len(files),
            "findings": [finding.to_dict() for finding in findings],
        }
        print(json.dumps(document, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        summary = (
            f"repro-lint: {len(findings)} finding(s) in "
            f"{len(files)} file(s) checked"
            if findings
            else f"repro-lint: clean ({len(files)} file(s) checked)"
        )
        print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())

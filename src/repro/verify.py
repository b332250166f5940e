"""Repository health check: ``repro-verify`` / ``python -m repro.verify``.

One command that answers "is this checkout good?":

1. runs the tier-1 pytest suite (``tests/``);
2. smoke-runs ``attack --device rpi4 --trace ... --json`` in-process and
   checks the JSON document parses;
3. validates the emitted run manifest against the schema
   (:func:`repro.obs.validate_manifest`);
4. checks the JSONL trace carries a header record plus one span per
   attack step of paper §6.1;
5. runs the ``repro-lint --project`` static-analysis suite (per-file and
   flow rules) over ``src/``.

Exit code 0 means every stage passed; the first failing stage is
reported and sets a non-zero exit code.  Pass ``--skip-tests`` to run
only the (fast) smoke + schema + lint stages.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from collections.abc import Sequence
from pathlib import Path

from .obs import names as _taxonomy

#: Span names the smoke trace must contain — the §6.1 attack steps.
#: Derived from the shared taxonomy; the cold-boot spans are optional
#: because the smoke attack is a Volt Boot run.
REQUIRED_SPANS = tuple(
    name for name in _taxonomy.ATTACK_SPANS
    if name not in ("attack.coldboot", "attack.chill")
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _stage(name: str) -> None:
    print(f"[verify] {name}...", flush=True)


def run_tier1_tests() -> int:
    """Run the repo's tier-1 pytest suite in a subprocess."""
    _stage("tier-1 pytest suite")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
        cwd=REPO_ROOT,
    )
    return result.returncode


def run_smoke_attack(trace_path: Path) -> dict[str, object] | None:
    """Run ``attack --json`` in-process; returns the parsed document."""
    _stage("smoke attack --json")
    from . import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(
            [
                "attack",
                "--device", "rpi4",
                "--trace", str(trace_path),
                "--json",
            ]
        )
    if code != 0:
        print(f"[verify] FAIL: attack exited {code}", file=sys.stderr)
        return None
    try:
        doc = json.loads(stdout.getvalue())
    except json.JSONDecodeError as error:
        print(f"[verify] FAIL: attack stdout is not JSON: {error}",
              file=sys.stderr)
        return None
    if not doc.get("recovered"):
        print("[verify] FAIL: attack did not recover the demo secret",
              file=sys.stderr)
        return None
    return doc


def check_manifest(doc: dict[str, object]) -> bool:
    """Validate the run manifest embedded in the smoke document."""
    _stage("manifest schema")
    from .obs import SchemaError, validate_manifest

    manifest = doc.get("manifest")
    if not isinstance(manifest, dict):
        print("[verify] FAIL: smoke document carries no manifest",
              file=sys.stderr)
        return False
    try:
        validate_manifest(manifest)
    except SchemaError as error:
        print(f"[verify] FAIL: manifest invalid: {error}", file=sys.stderr)
        return False
    return True


def check_trace(trace_path: Path) -> bool:
    """Check the smoke trace has a header and every §6.1 span."""
    _stage("trace spans")
    from .obs import read_jsonl

    records = read_jsonl(trace_path)
    if not records or records[0].get("type") != "header":
        print("[verify] FAIL: trace missing header record", file=sys.stderr)
        return False
    span_names = {
        r.get("name") for r in records if r.get("type") == "span"
    }
    missing = [name for name in REQUIRED_SPANS if name not in span_names]
    if missing:
        print(f"[verify] FAIL: trace missing spans: {', '.join(missing)}",
              file=sys.stderr)
        return False
    return True


def run_lint() -> bool:
    """Run ``repro-lint --project`` over ``src/``; True if it is clean."""
    _stage("repro-lint --project src/")
    from .errors import LintError
    from .lint import lint_paths

    src = REPO_ROOT / "src"
    try:
        findings = lint_paths([src], project=True)
    except LintError as error:
        print(f"[verify] FAIL: repro-lint: {error}", file=sys.stderr)
        return False
    if findings:
        for finding in findings:
            print(finding.render(), file=sys.stderr)
        print(f"[verify] FAIL: repro-lint found {len(findings)} finding(s)",
              file=sys.stderr)
        return False
    return True


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-verify``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="tier-1 tests + smoke attack + manifest/trace/lint checks",
    )
    parser.add_argument(
        "--skip-tests", action="store_true",
        help="skip the pytest stage; run only smoke + schema + lint checks",
    )
    args = parser.parse_args(argv)

    if not args.skip_tests:
        code = run_tier1_tests()
        if code != 0:
            print(f"[verify] FAIL: pytest exited {code}", file=sys.stderr)
            return code

    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        trace_path = Path(tmp) / "trace.jsonl"
        doc = run_smoke_attack(trace_path)
        if doc is None:
            return 1
        if not check_manifest(doc):
            return 1
        if not check_trace(trace_path):
            return 1

    if not run_lint():
        return 1

    print("[verify] OK: tests, smoke attack, manifest, trace and lint all pass")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    raise SystemExit(main())

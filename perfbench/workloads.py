"""The benchmark's workloads: what runs, what it returns, how it is checked.

Each workload is one registered experiment called through its public
entry point, ``repro.experiments.<module>.run(seed=...)``, at
``jobs=1`` in the benchmark's own process.  The benchmark never hands
the program anything but the experiment seed.

The result of every run is reduced to a SHA-256 digest over every field
of every row (``Table4Cell``, ``Table1Row``) or ``GlitchAttempt``, and
compared with the digest pinned in ``pinned.json``.  The pinned digests
were computed once, from an unmodified source tree; they are never
regenerated to make a run pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent

#: Experiment seeds with pinned result digests.  ``--seed n`` selects
#: ``PINNED_SEEDS[n % len(PINNED_SEEDS)]``: index 0 is the program's
#: default seed, index 1 the held-out seed.
PINNED_SEEDS = (2022, 4242)


def experiment_seed(seed: int) -> int:
    """The experiment seed a benchmark ``--seed`` selects."""
    return PINNED_SEEDS[seed % len(PINNED_SEEDS)]


def _plain(value: Any) -> Any:
    """JSON-ready form of a result; floats keep every digit via repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        return _plain(value.item())
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(rows: Any) -> str:
    """SHA-256 over the canonical JSON of a workload's full result."""
    text = json.dumps(_plain(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digest(workload: str, exp_seed: int) -> str | None:
    """The pinned digest for a workload at an experiment seed."""
    table = json.loads((HERE / "pinned.json").read_text())
    return table.get(workload, {}).get(str(exp_seed))


@dataclass
class Workload:
    """One named workload.

    ``trials`` counts fresh boards attacked per run, ``attempts`` the
    classified attack attempts per run; both come from the inputs, so
    they are known before the first run.
    """

    name: str
    run: Callable[[], Any]
    rows: Callable[[Any], Any]
    trials: int
    attempts: int
    reference: Callable[[Any], dict[str, Any]]


def _table4(exp_seed: int) -> Workload:
    module = importlib.import_module("repro.experiments.table4")
    trials = len(module.TABLE4_ARRAY_KIB) * module.TRIALS

    def reference(cells: Any) -> dict[str, Any]:
        full = [c.percent_extracted for c in cells if c.array_kib == 32]
        return {
            "headline": "32 KiB union extraction, mean over cores (%)",
            "model": sum(full) / len(full),
            "paper": "86-92",
            "validated": True,
        }

    return Workload(
        name="table4",
        run=lambda: module.run(seed=exp_seed),
        rows=lambda cells: cells,
        trials=trials,
        attempts=trials,
        reference=reference,
    )


def _table1(exp_seed: int) -> Workload:
    module = importlib.import_module("repro.experiments.table1")
    trials = len(module.shard_plan(exp_seed))

    def reference(rows: Any) -> dict[str, Any]:
        return {
            "headline": "mean d-cache error after cold boot (%)",
            "model": sum(r.mean_error_percent for r in rows) / len(rows),
            "paper": "~50",
            "validated": True,
        }

    return Workload(
        name="table1",
        run=lambda: module.run(seed=exp_seed, jobs=1),
        rows=lambda rows: rows,
        trials=trials,
        attempts=trials,
        reference=reference,
    )


def _glitch_campaign(exp_seed: int) -> Workload:
    module = importlib.import_module("repro.experiments.glitch_campaign")
    plan = module.shard_plan(exp_seed)
    spec = module.DEFAULT_SPEC
    attempts = len(spec.legs) * (
        len(spec.grid_points()) * spec.repeats + spec.random_points
    )

    def reference(result: Any) -> dict[str, Any]:
        return {
            "headline": "exploitable rate, unprotected leg",
            "model": result.exploitable_rate("unprotected"),
            "paper": None,
            "validated": False,
        }

    return Workload(
        name="glitch-campaign",
        run=lambda: module.run(seed=exp_seed, jobs=1),
        rows=lambda result: result.attempts,
        trials=len(plan),
        attempts=attempts,
        reference=reference,
    )


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "table4": _table4,
    "glitch-campaign": _glitch_campaign,
    "table1": _table1,
}


def build(name: str, exp_seed: int) -> Workload:
    """Import the workload's module and build its inputs."""
    return BUILDERS[name](exp_seed)

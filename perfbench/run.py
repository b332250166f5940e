#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a repository checkout)::

    python3 perfbench/run.py --workload table4 --seed 0 --seconds 20 --trace 0

``--seed n`` picks the experiment seed ``PINNED_SEEDS[n % 2]`` (see
``workloads.py``).  The workload runs back to back, one complete
experiment after another in this process (a closed loop, no pool),
until ``--seconds`` have passed, and always at least once.  Every
result is checked against its pinned digest; a run that raises or
whose digest differs counts as failed.

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` spends half the time on untraced runs and the rest on
traced runs (see ``tracing.py``), and reports the per-layer metrics,
including ``trace.overhead_s``, the traced minus the untraced median
run time.  It also checks that every count repeats exactly, both
between the traced runs of this process and against the counts an
earlier traced run of the same source tree and seed wrote to
``perfbench/out/``, and that traced results equal untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (times, digests, model reference, and for a traced run the spans)
is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import workloads
from tracing import Tracer, instrumented

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh interpreters timed from start to "inputs built"; the median is
#: ``setup_s``.
SETUP_PROBES = 5

#: A traced process adds a second traced run (for the in-process count
#: check) only while its projected wall time stays under this.
TRACE_WALL_LIMIT_S = 120.0

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
    "attempts_per_s": "1/s",
}


def import_program() -> None:
    """Put the checkout's ``src/`` on the path, or stop with an error."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {src / 'repro'}; "
            "run from the root of a repository checkout"
        )
    sys.path.insert(0, str(src))


def source_hash() -> str:
    """SHA-256 over every Python file of the program, by relative path."""
    src = ROOT / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported
    the program and built the workload's inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line != "ready" or code != 0:
        raise SystemExit(f"perfbench: setup probe failed (exit {code})")
    return elapsed


class Bench:
    """Runs one workload and keeps every run's time and verdict."""

    def __init__(self, workload: Any, pinned: str | None) -> None:
        self.workload = workload
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.runs: list[dict[str, Any]] = []
        self.last_result: Any = None

    def run_once(self, traced: bool) -> tuple[float, str | None]:
        """One complete workload run; returns (seconds, result digest)."""
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = self.workload.run()
        except Exception:
            seconds = time.perf_counter() - start
            traceback.print_exc()
            result_digest = None
        else:
            seconds = time.perf_counter() - start
            result_digest = workloads.digest(self.workload.rows(result))
            self.last_result = result
        ok = result_digest is not None and result_digest == self.pinned
        if not ok:
            self.failed += 1
            print(f"perfbench: run {self.attempted} failed: digest "
                  f"{result_digest} != pinned {self.pinned}", file=sys.stderr)
        self.runs.append({"traced": traced, "seconds": seconds,
                          "digest": result_digest, "ok": ok})
        return seconds, result_digest

    def reject(self, index: int, why: str) -> None:
        """Count run ``index`` as failed for a reason found after it ran."""
        print(f"perfbench: {why}", file=sys.stderr)
        run = self.runs[index]
        if run["ok"]:
            run["ok"] = False
            self.failed += 1

    def untraced(self, budget_s: float) -> list[float]:
        """Untraced runs until ``budget_s`` has passed (at least one)."""
        times: list[float] = []
        while not times or sum(times) < budget_s:
            times.append(self.run_once(traced=False)[0])
        return times


def end_to_end(bench: Bench, times: list[float], setup_s: float) -> dict[str, float]:
    run_s = statistics.median(times)
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trials_per_s": bench.workload.trials / run_s,
        "attempts_per_s": bench.workload.attempts / run_s,
    }


def traced_runs(bench: Bench, budget_s: float, started: float) -> list[Tracer]:
    """Traced runs until ``budget_s`` (two if they fit the wall limit).

    A traced run whose result differs from the untraced runs', or whose
    counts differ from the first traced run's, is counted as failed.
    """
    untraced_digests = {run["digest"] for run in bench.runs}
    tracers: list[Tracer] = []
    while True:
        tracer = Tracer()
        with instrumented(tracer), tracer.root():
            _seconds, result_digest = bench.run_once(traced=True)
        tracers.append(tracer)
        if result_digest not in untraced_digests:
            bench.reject(-1, "traced result differs from untraced")
        if tracer.count_metrics() != tracers[0].count_metrics():
            bench.reject(-1, "counts differ between traced runs")
        elapsed = time.perf_counter() - started
        if elapsed >= budget_s and (
            len(tracers) >= 2 or elapsed + tracer.run_s > TRACE_WALL_LIMIT_S
        ):
            return tracers


def check_counts_file(bench: Bench, path: Path, counts: dict[str, int]) -> None:
    """Compare with the counts an earlier process recorded, or record them."""
    if not path.exists():
        path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    elif json.loads(path.read_text()) != counts:
        first_traced = next(i for i, run in enumerate(bench.runs) if run["traced"])
        bench.reject(first_traced, f"counts differ from {path.name}")


def layer_report(tracers: list[Tracer], untraced_times: list[float]) -> dict[str, float]:
    """Median per-layer times, counts of the first traced run, overhead."""
    per_run = [tracer.layer_metrics() for tracer in tracers]
    metrics = {
        name: statistics.median(run[name] for run in per_run)
        if name.endswith("_s") else per_run[0][name]
        for name in per_run[0]
    }
    # Recomputed from the medians so the reported layer times and the
    # remainder add up to the reported traced run time.
    metrics["trace.other_s"] = metrics["trace.run_s"] - sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith("trace."))
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(
        untraced_times)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.BUILDERS)}")
    exp_seed = workloads.experiment_seed(args.seed)
    if args.setup_probe:
        import_program()
        workloads.build(args.workload, exp_seed)
        print("ready", flush=True)
        return 0

    import_program()
    if not args.trace:
        setup_s = statistics.median(
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES))
    started = time.perf_counter()
    workload = workloads.build(args.workload, exp_seed)
    bench = Bench(workload, workloads.pinned_digest(args.workload, exp_seed))

    budget = args.seconds / 2 if args.trace else args.seconds
    times = bench.untraced(budget)
    record: dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "experiment_seed": exp_seed, "pinned_digest": bench.pinned,
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracers = traced_runs(bench, args.seconds, started)
        counts = tracers[0].count_metrics()
        check_counts_file(bench, OUT / (
            f"counts-{args.workload}-{exp_seed}-{source_hash()[:16]}.json"),
            counts)
        values = layer_report(tracers, times)
        units = {name: "s" if name.endswith("_s") else "count" for name in values}
        record.update(counts=counts, spans=tracers[-1].span_records())
    else:
        values = end_to_end(bench, times, setup_s)
        units = END_TO_END_UNITS
    if bench.last_result is not None:
        record["reference"] = workload.reference(bench.last_result)
        print(f"model reference: {json.dumps(record['reference'])}")
    record.update(runs=bench.runs, metrics=values)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"error_rate: {bench.failed}/{bench.attempted}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

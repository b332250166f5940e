#!/usr/bin/env python3
"""Self-test: the benchmark catches a planted slowdown and a wrong result.

Usage (from the root of a repository checkout, ~1.5 min)::

    python3 perfbench/selftest.py

Works on the ``glitch-campaign`` workload at the default seed and
changes nothing under ``src/``; every fault is planted by wrapping a
public name from here, exactly as the tracer does.

1. **Slowdown.**  ``repro.glitch.campaign.glitch_rig`` (the ``devices``
   layer) is wrapped to busy-wait after every build, for 30 % of a clean
   run in total.  Clean and slowed runs alternate, so that drift in host
   speed cancels.  The median ``run_s`` must worsen by more than the
   ``run_s`` bound in ``BENCHMARK.json``, and the traced run must put
   the planted time in ``devices.build_s`` self time.
2. **Wrong result.**  One ``GlitchAttempt`` field is altered on the way
   out of ``run``; then ``run`` raises.  Each must count as a failed run.
3. **Consistency.**  Two traced runs must give identical counts, and a
   traced result must equal the pinned digest.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import run as bench_run
import workloads
from tracing import Tracer, instrumented

HERE = Path(__file__).resolve().parent

WORKLOAD = "glitch-campaign"

#: Clean/slowed run pairs.
PAIRS = 4

#: Planted slowdown, as a share of a clean run.
SLOWDOWN = 0.30


@contextmanager
def planted_slowdown(spin_s: float) -> Iterator[list[float]]:
    """Wrap the rig builder to busy-wait ``spin_s`` after every build.

    Yields the list the wrapper appends each planted delay to.
    """
    import repro.glitch.campaign as campaign

    original = campaign.glitch_rig
    planted: list[float] = []

    def slowed(*args: Any, **kwargs: Any) -> Any:
        board = original(*args, **kwargs)
        spin_start = time.perf_counter()
        while time.perf_counter() < spin_start + spin_s:
            pass
        planted.append(time.perf_counter() - spin_start)
        return board

    campaign.glitch_rig = slowed
    try:
        yield planted
    finally:
        campaign.glitch_rig = original


def traced(bench: Any) -> Tracer:
    tracer = Tracer()
    with instrumented(tracer), tracer.root():
        bench.run_once(traced=True)
    return tracer


def main() -> int:
    bench_run.import_program()
    exp_seed = workloads.experiment_seed(0)
    pinned = workloads.pinned_digest(WORKLOAD, exp_seed)
    workload = workloads.build(WORKLOAD, exp_seed)
    bound = {m["name"]: m["bound"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}["run_s"]
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    # 1. Planted slowdown, untraced then traced.  After a warm-up run, a
    # clean run sizes the per-build delay: one rig is built per trial.
    bench = bench_run.Bench(workload, pinned)
    bench.run_once(traced=False)
    spin_s = SLOWDOWN * bench.run_once(traced=False)[0] / workload.trials
    clean_s: list[float] = []
    slowed_s: list[float] = []
    for pair in range(PAIRS):
        for with_delay in ((True, False) if pair % 2 == 0 else (False, True)):
            if with_delay:
                with planted_slowdown(spin_s):
                    slowed_s.append(bench.run_once(traced=False)[0])
            else:
                clean_s.append(bench.run_once(traced=False)[0])
    base = statistics.median(clean_s)
    slow = statistics.median(slowed_s)
    change = slow / base - 1
    check(change > bound,
          f"planted slowdown flagged on run_s: {base:.3f}s -> {slow:.3f}s "
          f"(+{change:.1%}, bound {bound:.0%})")

    clean = traced(bench)
    with planted_slowdown(spin_s) as planted:
        slowed = traced(bench)
    before = clean.layer_metrics()
    after = slowed.layer_metrics()
    moved = after["devices.build_s"] - before["devices.build_s"]
    check(abs(moved - sum(planted)) < 0.25 * sum(planted),
          f"planted {sum(planted):.3f}s shows in devices.build_s self time "
          f"(+{moved:.3f}s)")
    others = max(
        (abs(after[name] - before[name]), name) for name in before
        if name.endswith("_s") and not name.startswith(("devices.", "trace."))
    )
    check(others[0] < 0.25 * sum(planted),
          f"no other layer absorbs it (largest change {others[1]} "
          f"{others[0]:+.3f}s)")

    # 3. Consistency of counts and traced results.
    check(clean.count_metrics() == slowed.count_metrics(),
          "counts repeat exactly between traced runs")
    check(all(run["ok"] for run in bench.runs),
          f"every run so far matches the pinned digest ({len(bench.runs)} runs)")

    # 2. Wrong results raise the error rate.
    def corrupt(result: Any) -> Any:
        first = result.attempts[0]
        result.attempts[0] = dataclasses.replace(
            first, instructions=first.instructions + 1)
        return result

    def explode(result: Any) -> Any:
        raise RuntimeError("planted failure")

    for label, fault in (("altered GlitchAttempt field", corrupt),
                         ("exception from run", explode)):
        broken = dataclasses.replace(workload, run=_then(workload.run, fault))
        faulty = bench_run.Bench(broken, pinned)
        faulty.run_once(traced=False)
        check(faulty.failed == 1 and faulty.attempted == 1,
              f"{label} counts as a failed run "
              f"(error_rate {faulty.failed}/{faulty.attempted})")

    print(f"selftest: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def _then(run: Callable[[], Any], fault: Callable[[Any], Any]) -> Callable[[], Any]:
    return lambda: fault(run())


if __name__ == "__main__":
    sys.exit(main())

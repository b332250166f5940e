"""Layer-attributed tracing from outside the program.

The tracer wraps the public functions and methods each layer exposes,
patching each name where its caller looks it up (a module attribute for
an imported function, the class attribute for a method).  Nothing under
``src/`` changes.  Every wrapped call is a span with a name, start, end
and parent; a span's self time is its duration minus the time its child
spans cover.

Per-call spans of the hot word-level points (SRAM ``read_bytes`` /
``write_bytes`` and cache ``read`` / ``write``, millions per run) are
folded into one aggregate record per (parent span, point) so the span
list stays small; every other call keeps its own span record.  The
spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Layer groups, in report order: (group, self-time metric, count metric).
GROUPS = (
    ("devices.build", "devices.build_s", "devices.boards"),
    ("circuits.build", "circuits.build_s", "circuits.arrays_built"),
    ("circuits.word", "circuits.word_s", None),
    ("soc.cache.access", "soc.cache.access_s", None),
    ("soc.cache.maint", "soc.cache.maint_s", "soc.cache.maint_calls"),
    ("circuits.power", "circuits.power_s", "circuits.power_events"),
    ("soc.boot", "soc.boot_s", None),
    ("osim.run", "osim.run_s", None),
    ("core.attack", "core.attack_s", None),
    ("analysis.search", "analysis.search_s", None),
    ("glitch.attempt", "glitch.attempt_s", "glitch.attempts"),
    ("exec.dispatch", "exec.dispatch_s", None),
    ("exec.unit", None, "exec.units"),
)

GROUP_COUNTS = {group: count for group, _, count in GROUPS}

#: Counts taken per wrapped point rather than per group.
POINT_COUNTS = {
    ("repro.circuits.sram:SramArray", "read_bytes"): "circuits.word_reads",
    ("repro.circuits.sram:SramArray", "write_bytes"): "circuits.word_writes",
    ("repro.soc.cache:SetAssociativeCache", "read"): "soc.cache.reads",
    ("repro.soc.cache:SetAssociativeCache", "write"): "soc.cache.writes",
}


def _n_bits(args: tuple, result: Any) -> int:
    return args[0].n_bits


def _instructions(args: tuple, result: Any) -> int:
    return result.instructions


#: Amounts summed from a call's arguments or result.
POINT_AMOUNTS: dict[tuple[str, str], tuple[str, Callable[[tuple, Any], int]]] = {
    ("repro.circuits.sram:SramArray", "__init__"): ("circuits.bits_built", _n_bits),
    ("repro.circuits.dram:DramArray", "__init__"): ("circuits.bits_built", _n_bits),
    ("repro.circuits.sram:SramArray", "restore_power"): ("circuits.bits_restored", _n_bits),
    ("repro.circuits.dram:DramArray", "restore_power"): ("circuits.bits_restored", _n_bits),
    ("repro.glitch.injector:GlitchInjector", "run"): ("cpu.instructions", _instructions),
}

#: Every instrumented point: (group, owner, attribute names, hot).  An
#: owner ``module:Class`` patches a method on the class; a bare module
#: patches a function where that module looks it up.
POINTS = (
    ("devices.build", "repro.experiments.table4", ("raspberry_pi_4",), False),
    ("devices.build", "repro.experiments.table1", ("raspberry_pi_4",), False),
    ("devices.build", "repro.glitch.campaign", ("glitch_rig",), False),
    ("circuits.build", "repro.circuits.sram:SramArray", ("__init__",), False),
    ("circuits.build", "repro.circuits.dram:DramArray", ("__init__",), False),
    ("circuits.word", "repro.circuits.sram:SramArray",
     ("read_bytes", "write_bytes"), True),
    ("soc.cache.access", "repro.soc.cache:SetAssociativeCache",
     ("read", "write"), True),
    ("soc.cache.maint", "repro.soc.cache:SetAssociativeCache",
     ("invalidate_all", "clean_invalidate_all", "zero_all_lines"), False),
    ("circuits.power", "repro.circuits.sram:SramArray",
     ("power_up", "restore_power", "set_supply_voltage"), False),
    ("circuits.power", "repro.circuits.dram:DramArray",
     ("restore_power", "set_supply_voltage"), False),
    ("soc.boot", "repro.soc.board:Board", ("boot",), False),
    ("osim.run", "repro.osim.kernel:SimKernel", ("warm_caches", "run"), False),
    ("core.attack", "repro.core.voltboot:VoltBootAttack", ("execute",), False),
    ("core.attack", "repro.core.coldboot:ColdBootAttack", ("execute",), False),
    ("analysis.search", "repro.experiments.table4", ("elements_present",), False),
    ("analysis.search", "repro.experiments.table1",
     ("bit_error_percent", "fractional_hamming_distance"), False),
    ("glitch.attempt", "repro.glitch.injector:GlitchInjector", ("run",), False),
    ("exec.dispatch", "repro.experiments.table1", ("execute",), False),
    ("exec.dispatch", "repro.experiments.glitch_campaign", ("execute",), False),
    ("exec.unit", "repro.exec.plan:WorkUnit", ("run",), False),
)


def resolve(owner: str) -> Any:
    """The module or class an owner string names."""
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


@dataclass
class Span:
    """One traced call, or (with ``total_s`` set) every call of one hot
    point under one parent, folded into a single record."""

    id: int
    name: str
    parent: int
    start: float
    end: float
    calls: int = 1
    total_s: float | None = None

    def as_dict(self) -> dict[str, Any]:
        record = {
            "id": self.id, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end,
        }
        if self.total_s is not None:
            record.update(calls=self.calls, total_s=self.total_s)
        return record


class Tracer:
    """Span stack, per-group self time and per-metric counts for one run.

    Span 0 is the root: the whole workload run.  Self time not claimed
    by any layer group is the explicit remainder, ``trace.other_s``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.self_s: dict[str, float] = {group: 0.0 for group, _, _ in GROUPS}
        self.counts: dict[str, int] = {}
        # Per open span: [span id, time covered by children].
        self._stack: list[list] = []
        self._folded: dict[tuple[int, str], Span] = {}
        self._ids = itertools.count(1)
        self.run_s = 0.0

    @contextmanager
    def root(self) -> Iterator[None]:
        """Open span 0 around one complete workload run."""
        start = time.perf_counter()
        self._stack.append([0, 0.0])
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.run_s = end - start
            self.spans.insert(0, Span(0, "workload.run", -1, start, end))

    def wrap(self, fn: Callable, group: str, name: str, hot: bool,
             count: str | None, amount: tuple | None) -> Callable:
        """A traced stand-in for ``fn``."""
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        counts = self.counts
        folded = self._folded
        next_id = self._ids.__next__
        counts.setdefault(name, 0)
        if count is not None:
            counts.setdefault(count, 0)
        amount_metric, amount_fn = amount if amount else (None, None)
        if amount_metric is not None:
            counts.setdefault(amount_metric, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1]
            if hot:
                record = folded.get((parent[0], name))
                if record is None:
                    record = Span(next_id(), name, parent[0], 0.0, 0.0, 0, 0.0)
                    folded[(parent[0], name)] = record
                frame = [record.id, 0.0]
            else:
                frame = [next_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[group] += duration - frame[1]
                parent[1] += duration
                counts[name] += 1
                if count is not None:
                    counts[count] += 1
                if hot:
                    if not record.calls:
                        record.start = start
                    record.calls += 1
                    record.end = end
                    record.total_s += duration
                else:
                    spans.append(Span(frame[0], name, parent[0], start, end))
            if amount_metric is not None:
                counts[amount_metric] += amount_fn(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of this run."""
        metrics: dict[str, float] = {}
        for group, time_metric, count_metric in GROUPS:
            if time_metric is not None:
                metrics[time_metric] = self.self_s[group]
            if count_metric is not None:
                metrics[count_metric] = self.counts.get(count_metric, 0)
        for metric in dict.fromkeys(
                [*POINT_COUNTS.values(), *(m for m, _ in POINT_AMOUNTS.values())]):
            metrics[metric] = self.counts.get(metric, 0)
        metrics["trace.run_s"] = self.run_s
        metrics["trace.other_s"] = self.run_s - sum(
            self.self_s[group] for group, time_metric, _ in GROUPS
            if time_metric is not None
        )
        return metrics

    def count_metrics(self) -> dict[str, int]:
        """Every count this run recorded (per point and per metric)."""
        return dict(sorted(self.counts.items()))

    def span_records(self) -> list[dict[str, Any]]:
        """All spans, folded hot-point records included, by id."""
        records = self.spans + list(self._folded.values())
        return [span.as_dict() for span in sorted(records, key=lambda s: s.id)]


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every point for the block's duration, then restore it.

    Whatever a name holds when the block starts is what gets traced, so
    a wrapper installed before (the self-test's planted slowdown) runs
    inside the span.
    """
    patched: list[tuple[Any, str, Any]] = []
    try:
        for group, owner, attributes, hot in POINTS:
            target = resolve(owner)
            for attribute in attributes:
                original = getattr(target, attribute)
                point = f"{owner.rpartition(':')[2] or owner}.{attribute}"
                wrapped = tracer.wrap(
                    original, group, point, hot,
                    POINT_COUNTS.get((owner, attribute), GROUP_COUNTS[group]),
                    POINT_AMOUNTS.get((owner, attribute)),
                )
                patched.append((target, attribute, original))
                setattr(target, attribute, wrapped)
        yield tracer
    finally:
        for target, attribute, original in reversed(patched):
            setattr(target, attribute, original)

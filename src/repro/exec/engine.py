"""Deterministic dispatch of a :class:`~repro.exec.plan.ShardPlan`.

:func:`execute` is one pipeline, whatever the ``jobs`` count and
whether a checkpoint policy is installed:

1. **remaining units** — every unit of the plan, or, on ``--resume``,
   the units the checkpoint journal is missing;
2. **dispatch** — serially in-process (``jobs=1``, a single remaining
   unit, or no worker could be spawned at all), or chunked into shards
   on the supervised worker pool (:mod:`repro.exec.supervise`);
3. **records** — each finished unit becomes a
   :class:`~repro.exec.journal.UnitRecord` (or a quarantine record);
4. **sink** — each record is banked in memory and, under a checkpoint
   policy, appended to the fsync'd
   :class:`~repro.exec.journal.CheckpointJournal` (a journal write
   failure degrades the sink to the in-memory bank alone);
5. **merge** — results, pool observability, and quarantine incidents
   fold back **in unit order**, so ``jobs=N`` is byte-identical to
   ``jobs=1`` (the jobs-equivalence tests assert this).

Observability is captured where the merge needs it and nowhere else.
An unjournalled serial run writes straight into the live registry
(no per-unit registry swap, no clock read when observability is off).
A pool worker captures its whole shard — one ``exec.shard`` span and
one ``exec.shard_wall_s`` sample per shard — and the parent merges the
shard dumps in shard order.  A journalled unit is captured on its own
(:func:`_capture_unit`), so a resumed campaign folds banked and fresh
units into the metrics state an uninterrupted run produces.

**One retry rule** (:func:`_run_units`): each unit gets at most
``retries + 1`` runs on every path.  A failed pool shard counts as one
failure of the unit that raised (the worker ships back the units it
finished before it); a crash, hang, or timeout cannot name its unit and
counts against the shard's first unfinished unit.  Every failure is
classified (:func:`repro.errors.failure_class`, counted under
``exec.failures{failure_class=...}``) and every re-attempt records a
*simulated* backoff (``exec.backoff_s`` — nothing sleeps).  An
exhausted unit raises :class:`~repro.errors.ShardError`, or — under a
quarantine-enabled supervision policy — becomes a quarantine record so
the campaign completes with a structured partial result.  Re-attempts
run serially in the parent, where a deterministic unit cannot fail
differently for transient reasons.

Workers quarantine the observability state they inherit across the
process fork (:meth:`~repro.obs.Observability.quarantine_fork`), so a
parent's open trace file is never written from a child.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import (
    CampaignInterrupted,
    ExecError,
    JournalWriteError,
    PoolUnavailable,
    ShardError,
    SimulatedFailure,
    WorkerCrash,
    WorkerHang,
    failure_class,
)
from ..obs import OBS, MetricsRegistry, Tracer
from ..obs.timing import observe_rate, wall_clock
from . import runtime, supervise
from .journal import CheckpointJournal, UnitRecord, plan_fingerprint
from .plan import ShardPlan, WorkUnit
from .runtime import SupervisionPolicy

#: Runs one unit and returns its record (bare or captured).
UnitRunner = Callable[[WorkUnit], UnitRecord]


@dataclass
class _ShardTask:
    """What ships to a worker: one shard of units and how to run each."""

    shard_index: int
    units: tuple[WorkUnit, ...]
    capture: bool
    run: UnitRunner

    def describe(self) -> str:
        """Label for errors/events: the shard and its unit labels."""
        inner = ", ".join(unit.describe() for unit in self.units)
        return f"shard[{self.shard_index}]({inner})"


@dataclass
class _ShardOutcome:
    """What a worker ships back: the records it finished, the shard's
    observability, and the unit failure that stopped it, if any."""

    records: list[UnitRecord]
    wall_s: float
    metrics: dict[str, Any] | None = None
    spans: list[dict[str, Any]] = field(default_factory=list)
    failure: BaseException | None = None


def _run_bare(unit: WorkUnit) -> UnitRecord:
    """Run one unit straight into the live observability state."""
    return UnitRecord(index=unit.index, result=runtime.run_unit(unit))


def _capture_unit(unit: WorkUnit) -> UnitRecord:
    """Run one unit with its own metrics registry and tracer.

    The journalled runner, in the parent and in pool workers alike, so
    a unit's captured observability is identical however it was
    dispatched.  Units always capture — even when the parent runs
    unobserved — so a later *observed* resume can still merge the
    banked units into a complete manifest.  The live registry/tracer
    are swapped out for the duration (never reset: the parent keeps
    its open trace writer and collected state).
    """
    start = wall_clock()
    saved_enabled = OBS.enabled
    saved_metrics, saved_tracer = OBS.metrics, OBS.tracer
    OBS.metrics = MetricsRegistry()
    OBS.tracer = Tracer()
    OBS.enabled = True
    try:
        result = runtime.run_unit(unit)
    finally:
        metrics = OBS.metrics.dump()
        spans = [span.to_record() for span in OBS.tracer.finished]
        OBS.metrics, OBS.tracer = saved_metrics, saved_tracer
        OBS.enabled = saved_enabled
    return UnitRecord(
        index=unit.index,
        result=result,
        metrics=metrics,
        spans=spans,
        wall_s=wall_clock() - start,
    )


def _shard_worker(
    task: _ShardTask, heartbeat: Callable[[], None] | None = None
) -> _ShardOutcome:
    """Run one shard in a worker process.

    Module-level so the pool can pickle it by reference.  ``heartbeat``
    is the supervisor's per-unit progress tick, called after every
    completed unit so the parent can tell a busy worker from a hung
    one.  A unit that raises stops the shard; the outcome still ships,
    carrying the units finished before it and the failure, so the
    parent re-attempts only from the unit that raised.
    """
    OBS.quarantine_fork()
    if task.capture:
        OBS.configure()
    records: list[UnitRecord] = []
    failure = None
    start = wall_clock()
    with OBS.span(
        "exec.shard", shard=task.shard_index, units=len(task.units)
    ) as span:
        span.set_attribute(
            "labels", [unit.describe() for unit in task.units]
        )
        for unit in task.units:
            try:
                records.append(task.run(unit))
            except Exception as error:
                failure = error
                break
            if heartbeat is not None:
                heartbeat()
    outcome = _ShardOutcome(
        records=records,
        wall_s=wall_clock() - start,
        metrics=OBS.metrics.dump() if task.capture else None,
        spans=[s.to_record() for s in OBS.tracer.finished]
        if task.capture
        else [],
        failure=failure,
    )
    OBS.quarantine_fork()
    return outcome


def execute(
    plan: ShardPlan,
    jobs: int = 1,
    *,
    timeout_s: float | None = None,
    retries: int = 1,
    chunk_size: int | None = None,
) -> list[Any]:
    """Run every unit of ``plan``; returns results in unit order.

    ``jobs=1`` runs serially in-process with no pool at all;
    ``jobs>1`` dispatches chunked shards to supervised worker
    processes.  Both paths return the same bytes.  ``timeout_s``
    bounds each shard's time on the pool (serial re-attempts are not
    timed — the parent cannot interrupt itself); ``retries`` bounds
    re-attempts per unit before :class:`~repro.errors.ShardError` is
    raised — or, when the installed
    :class:`~repro.exec.runtime.SupervisionPolicy` enables
    ``quarantine``, before the failing unit is quarantined (result
    ``None`` plus an incident in the runtime ledger) and the campaign
    completes partially.

    When a checkpoint policy is installed
    (:mod:`repro.exec.runtime`), the call journals every completed
    unit to an append-only file and, on resume, runs only the units
    the journal is missing — with a final metrics state identical to
    an uninterrupted run.  A :class:`~repro.errors.SimulatedFailure`
    (chaos hard-crash) or SIGINT then closes the journal and raises
    :class:`~repro.errors.CampaignInterrupted`, which points at
    ``--resume``.
    """
    jobs = int(jobs)
    if jobs < 1:
        raise ExecError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ExecError(f"retries must be >= 0, got {retries}")
    if not len(plan):
        return []
    capture = OBS.enabled
    policy = runtime.checkpoint_policy()
    with OBS.span("exec.run", jobs=jobs, units=len(plan)):
        if capture:
            OBS.counter_inc("exec.units", len(plan))
            OBS.gauge_set("exec.jobs", jobs)
        # Profiling hook: the engine's end-to-end dispatch throughput
        # (units/s).  Lands under the "perf." prefix, which manifest
        # fingerprints strip, so jobs-equivalence is untouched.  The
        # disabled path reads no clock at all.
        start = wall_clock() if capture else 0.0
        records: dict[int, UnitRecord] = {}
        journal = None
        if policy is not None:
            journal = CheckpointJournal(
                runtime.claim_journal_path(), plan_fingerprint(plan), len(plan)
            )
            if policy.resume:
                records.update(journal.load_resume())
            journal.start(fresh=not records)
            if capture and records:
                OBS.counter_inc("exec.resumed_units", len(records))
                OBS.event(
                    "exec.resume",
                    journal=journal.path,
                    resumed=len(records),
                    total=len(plan),
                )

        def sink(record: UnitRecord) -> None:
            if journal is not None:
                _journal(journal, record, capture)
            records[record.index] = record

        remaining = [unit for unit in plan.units if unit.index not in records]
        try:
            shard_outcomes = _dispatch(
                plan,
                remaining,
                jobs,
                chunk_size=chunk_size,
                timeout_s=timeout_s,
                retries=retries,
                capture=capture,
                run=_run_bare if journal is None else _capture_unit,
                sink=sink,
            )
        except (KeyboardInterrupt, SimulatedFailure) as error:
            if journal is None:
                raise
            raise CampaignInterrupted(
                journal.path, len(records), len(plan)
            ) from error
        finally:
            if journal is not None:
                journal.close()
            if capture:
                observe_rate("exec.units", len(plan), wall_clock() - start)
        if capture and journal is not None:
            OBS.counter_inc("exec.checkpointed_units", journal.units_written)
            OBS.gauge_set("exec.journal_bytes", journal.bytes_written)
        return _merge(plan, records, shard_outcomes, capture)


def _journal(
    journal: CheckpointJournal, record: UnitRecord, capture: bool
) -> None:
    """Append one record; a write failure degrades to the memory bank.

    A disk accident (ENOSPC, I/O error) does not abort the campaign:
    the run completes from the in-memory bank, and the degradation
    lands in the runtime incident ledger so the CLI can exit with its
    documented degraded code.
    """
    try:
        journal.append(record)
    except JournalWriteError as error:
        journal.degrade(error)
        runtime.note_incident(
            runtime.Incident(
                kind="journal-degraded",
                failure_class=error.failure_class,
                detail={
                    "journal": journal.path,
                    "failure_class": error.failure_class,
                    "error": str(error),
                },
            )
        )
        if capture:
            OBS.counter_inc(
                "exec.journal_failures", failure_class=error.failure_class
            )
            OBS.event(
                "exec.journal-degraded",
                journal=journal.path,
                failure_class=error.failure_class,
            )


def _dispatch(
    plan: ShardPlan,
    units: Sequence[WorkUnit],
    jobs: int,
    *,
    chunk_size: int | None,
    timeout_s: float | None,
    retries: int,
    capture: bool,
    run: UnitRunner,
    sink: Callable[[UnitRecord], None],
) -> list[_ShardOutcome]:
    """Run ``units`` serially or on the pool; returns shard outcomes.

    Every finished unit goes to ``sink`` — pool records the moment
    their shard lands, so a journal banks progress throughout the
    campaign.  The returned outcomes (in shard order) carry the
    workers' captured observability for the merge; the serial path
    returns none.
    """
    supervision = runtime.supervision_policy()

    def run_serially(
        units: Sequence[WorkUnit],
        charged: int = 0,
        cause: BaseException | None = None,
    ) -> None:
        _run_units(units, charged, cause, retries, supervision, run, sink)

    if jobs == 1 or len(units) <= 1:
        run_serially(units)
        return []
    size = plan.chunk_size(jobs, chunk_size)
    tasks = [
        _ShardTask(
            shard_index=i,
            units=tuple(units[start : start + size]),
            capture=capture,
            run=run,
        )
        for i, start in enumerate(range(0, len(units), size))
    ]
    if capture:
        OBS.counter_inc("exec.shards", len(tasks))

    def on_outcome(outcome: _ShardOutcome) -> None:
        for record in outcome.records:
            sink(record)

    try:
        outcomes, failures = supervise.run_supervised(
            tasks,
            jobs=min(jobs, len(tasks)),
            timeout_s=timeout_s,
            policy=supervision,
            worker_fn=_shard_worker,
            on_outcome=on_outcome,
        )
    except PoolUnavailable as error:
        # No pool at all: run everything serially in-process.  The
        # downgrade itself is not a unit failure, so it does not count
        # against the retry budget.
        _note_fallback(error)
        run_serially(units)
        return []
    # Each failed shard resumes from its first unfinished unit, with
    # the pool attempt charged to it; shards replay in shard order.
    failed = {
        task.shard_index: (task, task.units, cause)
        for task, cause in failures
    }
    for index, outcome in outcomes.items():
        if outcome.failure is not None:
            rest = tasks[index].units[len(outcome.records) :]
            failed[index] = (rest[0], rest, outcome.failure)
    for index in sorted(failed):
        culprit, rest, cause = failed[index]
        _note_failure(culprit, cause, timeout_s)
        run_serially(rest, charged=1, cause=cause)
    return [outcomes[index] for index in sorted(outcomes)]


def _run_units(
    units: Sequence[WorkUnit],
    charged: int,
    cause: BaseException | None,
    retries: int,
    supervision: SupervisionPolicy,
    run: UnitRunner,
    sink: Callable[[UnitRecord], None],
) -> None:
    """The engine's one retry loop: run ``units`` in order, in-process.

    Each unit runs until it succeeds or has failed ``retries + 1``
    times.  The first unit starts with ``charged`` failures already
    counted (``cause`` the last of them) — zero on a serial run, one
    when re-attempting a failed pool shard — so a unit gets the same
    number of runs on every path.  Each failure is classified, each
    re-attempt records its simulated backoff, and exhaustion raises
    :class:`~repro.errors.ShardError` or, under a quarantine policy,
    sinks a quarantine record and moves on to the next unit.
    """
    for unit in units:
        failures, charged = charged, 0
        while True:
            if failures > retries:
                if not supervision.quarantine:
                    raise ShardError(
                        unit.describe(), failures, repr(cause)
                    ) from cause
                sink(_quarantine_record(unit, cause))
                break
            if failures:
                _note_retry(unit.describe(), failures, supervision)
            try:
                record = run(unit)
            except Exception as error:
                _note_failure(unit, error, None)
                failures += 1
                cause = error
                continue
            sink(record)
            break


# ----------------------------------------------------------------------
# Failure accounting (the typed taxonomy's metrics surface)
# ----------------------------------------------------------------------


def _note_failure(
    subject: Any, cause: BaseException, timeout_s: float | None
) -> None:
    """Classify and count one failure the engine is about to survive.

    ``subject`` is the unit or shard that failed.  Each failure
    increments ``exec.failures`` labelled with its
    :func:`repro.errors.failure_class`; timeouts, hangs, and crashes
    additionally keep their dedicated counters and trace events so
    existing dashboards stay meaningful.
    """
    if not OBS.enabled:
        return
    OBS.counter_inc("exec.failures", failure_class=failure_class(cause))
    if isinstance(cause, TimeoutError):
        OBS.counter_inc("exec.timeouts")
        OBS.event(
            "exec.timeout", shard=subject.describe(), timeout_s=timeout_s
        )
    elif isinstance(cause, WorkerHang):
        OBS.counter_inc("exec.hangs")
        OBS.event("exec.hang", shard=subject.describe())
    elif isinstance(cause, WorkerCrash):
        OBS.counter_inc("exec.crashes")
        OBS.event(
            "exec.crash", shard=subject.describe(), exitcode=cause.exitcode
        )


def _note_retry(
    label: str, failures_so_far: int, supervision: SupervisionPolicy
) -> None:
    """Record one re-attempt round and its *simulated* backoff.

    The backoff value comes from the resilience layer's bounded
    exponential schedule — it is recorded (``exec.backoff_s``), never
    slept, so retry pacing is byte-reproducible and free.
    """
    if not OBS.enabled:
        return
    backoff = supervision.backoff.backoff_s(failures_so_far)
    OBS.counter_inc("exec.retries")
    OBS.histogram_record("exec.backoff_s", backoff)
    OBS.event(
        "exec.retry",
        shard=label,
        attempt=failures_so_far + 1,
        backoff_s=backoff,
    )


def _quarantine_record(unit: WorkUnit, cause: BaseException) -> UnitRecord:
    """The structured partial-result record for one poisoned unit.

    Deliberately free of attempt counts and timings so the record —
    and the manifest partial section built from it — is identical
    whether the unit was quarantined serially, on the pool, or on a
    resumed run.
    """
    cls = failure_class(cause)
    return UnitRecord(
        index=unit.index,
        result=None,
        failure={
            "unit": unit.index,
            "label": unit.describe(),
            "failure_class": cls,
            "error": repr(cause),
        },
    )


def _note_quarantine(failure: dict[str, Any]) -> None:
    """Ledger one quarantined unit (incident + counter + event)."""
    runtime.note_incident(
        runtime.Incident(
            kind="quarantined-unit",
            failure_class=failure["failure_class"],
            detail=dict(failure),
        )
    )
    if OBS.enabled:
        OBS.counter_inc("exec.quarantined_units")
        OBS.event(
            "exec.quarantine",
            unit=failure["label"],
            failure_class=failure["failure_class"],
        )


def _note_fallback(error: BaseException) -> None:
    """Record the pool-unavailable downgrade in the trace/metrics."""
    if OBS.enabled:
        OBS.counter_inc("exec.fallbacks")
        OBS.event("exec.fallback", reason=repr(error))


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------


def _merge(
    plan: ShardPlan,
    records: dict[int, UnitRecord],
    shard_outcomes: list[_ShardOutcome],
    capture: bool,
) -> list[Any]:
    """Fold records and worker observability back in unit order.

    Shard outcomes merge in shard order (= unit order), then captured
    unit records in index order, so last-write-wins gauges resolve
    exactly as a serial run would.  Quarantined units surface from the
    *records* (not at quarantine time) so a resume that banked a
    quarantine record re-reports it, and every path reports them in
    the same order.
    """
    missing = [u.describe() for u in plan.units if u.index not in records]
    if missing:
        raise ExecError(
            f"outcomes missing {len(missing)} unit(s): " + ", ".join(missing)
        )
    ordered = [records[index] for index in range(len(plan))]
    if capture:
        for outcome in shard_outcomes:
            OBS.histogram_record("exec.shard_wall_s", outcome.wall_s)
        for part in [*shard_outcomes, *ordered]:
            if part.metrics is not None:
                OBS.metrics.merge(part.metrics)
            for span_record in part.spans:
                OBS.tracer.adopt_record(span_record)
    for record in ordered:
        if record.failure is not None:
            _note_quarantine(record.failure)
    return [record.result for record in ordered]

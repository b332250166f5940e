"""Tests for the parallel execution engine: dispatch, timeout, retry,
fallback, and observability merging.

Worker functions are module-level so the pool can pickle them by
reference.  Failure injection uses marker files on disk: a unit that
fails (or stalls) only while its marker is absent fails on the pool
attempt and succeeds on the serial re-attempt, exercising the bounded
retry path deterministically.
"""

import time
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ExecError, ShardError
from repro.exec import (
    ShardPlan,
    SupervisionPolicy,
    checkpointing,
    clear_incidents,
    execute,
    incidents,
    supervised,
)
from repro.exec import engine, supervise


def _square(x):
    return x * x


def _fail_once(marker: str, value: int):
    """Raise on the first call (marker absent), succeed afterwards."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("injected first-attempt failure")
    return value


def _stall_once(marker: str, value: int):
    """Stall past any reasonable timeout on the first call only."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        time.sleep(5.0)
    return value


def _fail_n_times(workdir: str, value: int, times: int):
    """Fail on the first ``times`` calls, then succeed; logs every call."""
    log = Path(workdir) / f"calls-{value}"
    with open(log, "a") as handle:
        handle.write(".")
    calls = len(log.read_text())
    if calls <= times:
        raise RuntimeError(f"injected failure {calls} of {times}")
    return value


def _always_fail(value: int):
    raise RuntimeError("injected permanent failure")


def _squares(n):
    return ShardPlan.enumerate(
        _square, [(i,) for i in range(n)], labels=[f"sq[{i}]" for i in range(n)]
    )


@pytest.fixture
def observed():
    obs.OBS.configure()
    yield obs.OBS
    obs.OBS.reset()


class TestSerialPath:
    def test_jobs_one_runs_in_process(self):
        assert execute(_squares(5), jobs=1) == [0, 1, 4, 9, 16]

    def test_empty_plan(self):
        assert execute(ShardPlan([]), jobs=4) == []

    def test_single_unit_skips_the_pool(self):
        assert execute(_squares(1), jobs=8) == [0]

    def test_unobserved_serial_run_reads_no_clock(self, monkeypatch):
        # The cheap path: no observability, no journal, one job.
        def _no_clock():
            raise AssertionError("the unobserved serial path read a clock")

        monkeypatch.setattr(engine, "wall_clock", _no_clock)
        assert not obs.OBS.enabled
        assert execute(_squares(5), jobs=1) == [0, 1, 4, 9, 16]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ExecError):
            execute(_squares(2), jobs=0)
        with pytest.raises(ExecError):
            execute(_squares(2), jobs=2, retries=-1)


class TestParallelPath:
    def test_results_merge_in_unit_order(self):
        assert execute(_squares(13), jobs=4) == [i * i for i in range(13)]

    def test_parallel_equals_serial(self):
        assert execute(_squares(13), jobs=4) == execute(_squares(13), jobs=1)

    def test_explicit_chunk_size(self):
        assert execute(_squares(7), jobs=2, chunk_size=1) == [
            i * i for i in range(7)
        ]


class TestRetry:
    def test_failed_shard_is_retried_serially(self, tmp_path, observed):
        marker = str(tmp_path / "fail-once")
        # Two units so the plan actually shards (one unit short-circuits
        # to the serial path).
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (str(tmp_path / "other"), 7)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        assert execute(plan, jobs=2, chunk_size=1, retries=1) == [42, 7]
        assert observed.metrics.snapshot()["exec.retries"] == 1

    def test_retries_exhausted_raises_shard_error(self):
        plan = ShardPlan.enumerate(
            _always_fail, [(1,), (2,)], labels=["bad[1]", "bad[2]"]
        )
        with pytest.raises(ShardError) as excinfo:
            execute(plan, jobs=2, chunk_size=1, retries=1)
        assert excinfo.value.attempts == 2
        assert "bad[" in excinfo.value.label
        assert "RuntimeError" in excinfo.value.cause

    def test_zero_retries_fails_after_pool_attempt(self, tmp_path):
        marker = str(tmp_path / "fail-once")
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (marker, 42)]
        )
        with pytest.raises(ShardError) as excinfo:
            execute(plan, jobs=2, chunk_size=1, retries=0)
        assert excinfo.value.attempts == 1

    def test_shard_error_is_in_the_repro_taxonomy(self):
        from repro.errors import ReproError

        assert issubclass(ShardError, ExecError)
        assert issubclass(ExecError, ReproError)


class TestSerialRetryParity:
    """``jobs=1`` honours the same retry contract (and emits the same
    metrics) as the pool path — manifests stay jobs-invariant even for
    flaky plans."""

    def test_serial_failure_is_retried_with_metrics(self, tmp_path, observed):
        marker = str(tmp_path / "fail-once")
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (str(tmp_path / "other"), 7)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        assert execute(plan, jobs=1, retries=1) == [42, 7]
        assert observed.metrics.snapshot()["exec.retries"] == 1

    def test_serial_exhaustion_raises_shard_error(self):
        plan = ShardPlan.enumerate(
            _always_fail, [(1,)], labels=["bad[1]"]
        )
        with pytest.raises(ShardError) as excinfo:
            execute(plan, jobs=1, retries=1)
        assert excinfo.value.attempts == 2
        assert excinfo.value.label == "bad[1]"
        assert "RuntimeError" in excinfo.value.cause

    def test_serial_and_pool_paths_emit_equal_retry_counts(
        self, tmp_path, observed
    ):
        def run(jobs, sub):
            workdir = tmp_path / sub
            workdir.mkdir()
            marker = str(workdir / "fail-once")
            plan = ShardPlan.enumerate(
                _fail_once, [(marker, 42), (str(workdir / "other"), 7)]
            )
            Path(workdir / "other").write_text("pre-satisfied")
            execute(plan, jobs=jobs, chunk_size=1, retries=1)
            return observed.metrics.snapshot()["exec.retries"]

        serial = run(1, "serial")
        pooled = run(2, "pooled") - serial  # counter accumulates
        assert serial == pooled == 1

    def test_fallback_retries_a_flaky_unit(
        self, tmp_path, monkeypatch, observed
    ):
        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(supervise, "_start_worker", _no_pool)
        marker = str(tmp_path / "fail-once")
        plan = ShardPlan.enumerate(
            _fail_once, [(marker, 42), (str(tmp_path / "other"), 7)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        assert execute(plan, jobs=4, retries=1) == [42, 7]
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.fallbacks"] == 1
        assert snapshot["exec.retries"] == 1


class TestQuarantineParity:
    """A unit that fails exactly ``retries + 1`` times is quarantined
    after the same number of runs on every dispatch path — including
    when it shares a pool shard with a unit that already succeeded."""

    RETRIES = 2

    def _run(self, workdir: Path, jobs: int, chunk_size, checkpoint: bool):
        workdir.mkdir()
        plan = ShardPlan.enumerate(
            _fail_n_times,
            [(str(workdir), 7, 0), (str(workdir), 42, self.RETRIES + 1)],
            labels=["steady[7]", "flaky[42]"],
        )
        obs.OBS.reset()
        obs.OBS.configure()
        clear_incidents()
        try:
            with supervised(SupervisionPolicy(quarantine=True)):
                if checkpoint:
                    with checkpointing(str(workdir / "ckpt")):
                        results = execute(
                            plan, jobs=jobs, retries=self.RETRIES,
                            chunk_size=chunk_size,
                        )
                else:
                    results = execute(
                        plan, jobs=jobs, retries=self.RETRIES,
                        chunk_size=chunk_size,
                    )
            snapshot = obs.OBS.metrics.snapshot()
            return {
                "results": results,
                "calls": {
                    value: len((workdir / f"calls-{value}").read_text())
                    for value in (7, 42)
                },
                "incidents": incidents(),
                "accounting": {
                    key: value
                    for key, value in snapshot.items()
                    if key.startswith(("exec.retries", "exec.failures"))
                },
            }
        finally:
            clear_incidents()
            obs.OBS.reset()

    @pytest.mark.parametrize("chunk_size", [None, 2])
    def test_every_path_quarantines_after_the_same_runs(
        self, tmp_path, chunk_size
    ):
        outcomes = {
            (jobs, checkpoint): self._run(
                tmp_path / f"jobs{jobs}-ckpt{int(checkpoint)}",
                jobs, chunk_size, checkpoint,
            )
            for jobs in (1, 2)
            for checkpoint in (False, True)
        }
        reference = outcomes[(1, False)]
        assert reference["results"] == [7, None]
        assert reference["calls"] == {7: 1, 42: self.RETRIES + 1}
        assert [i.kind for i in reference["incidents"]] == ["quarantined-unit"]
        assert reference["accounting"]["exec.retries"] == self.RETRIES
        for key, outcome in outcomes.items():
            assert outcome == reference, key


class TestTimeout:
    def test_timed_out_shard_is_reattempted(self, tmp_path, observed):
        marker = str(tmp_path / "stall-once")
        plan = ShardPlan.enumerate(
            _stall_once, [(marker, 11), (str(tmp_path / "other"), 22)]
        )
        Path(tmp_path / "other").write_text("pre-satisfied")
        result = execute(
            plan, jobs=2, chunk_size=1, timeout_s=0.25, retries=1
        )
        assert result == [11, 22]
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.timeouts"] >= 1
        assert snapshot["exec.retries"] >= 1


class TestSerialFallback:
    def test_pool_unavailable_falls_back_to_serial(self, monkeypatch, observed):
        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(supervise, "_start_worker", _no_pool)
        assert execute(_squares(6), jobs=4) == [i * i for i in range(6)]
        assert observed.metrics.snapshot()["exec.fallbacks"] == 1

    def test_fallback_ignores_retry_budget(self, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(supervise, "_start_worker", _no_pool)
        # Even with retries=0 the downgrade completes the run.
        assert execute(_squares(6), jobs=4, retries=0) == [
            i * i for i in range(6)
        ]


class TestObservabilityMerge:
    def test_shard_spans_are_adopted(self, observed):
        execute(_squares(8), jobs=2, chunk_size=4)
        names = [span.name for span in observed.tracer.finished]
        assert names.count("exec.shard") == 2
        assert "exec.run" in names

    def test_engine_metrics_are_recorded(self, observed):
        execute(_squares(8), jobs=2, chunk_size=4)
        snapshot = observed.metrics.snapshot()
        assert snapshot["exec.units"] == 8
        assert snapshot["exec.shards"] == 2
        assert snapshot["exec.jobs"] == 2.0
        assert snapshot["exec.shard_wall_s"]["count"] == 2

    def test_disabled_obs_stays_silent(self):
        execute(_squares(8), jobs=2, chunk_size=4)
        assert obs.OBS.metrics.snapshot() == {}
        assert obs.OBS.tracer.finished == []

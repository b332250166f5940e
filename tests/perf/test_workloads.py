"""The quick workload suite behind ``repro bench --quick``."""

from repro.perf import QUICK_WORKLOADS, run_quick_suite


class TestQuickSuite:
    def test_every_workload_reports_work_and_time(self):
        entries = run_quick_suite(seed=13)
        assert [e.name for e in entries] == [w.name for w in QUICK_WORKLOADS]
        for entry in entries:
            assert entry.source == "quick"
            assert entry.seed == 13
            assert entry.wall_s > 0.0
            assert entry.rates, f"{entry.name} reported no rates"
            assert all(rate > 0.0 for rate in entry.rates.values())

    def test_suite_covers_every_trajectory_rate(self):
        rate_keys = {w.rate_key for w in QUICK_WORKLOADS}
        assert rate_keys == {
            "cells_decayed_per_s", "attempts_per_s", "units_per_s",
            "files_per_s",
        }

    def test_lint_project_workload_counts_the_package_files(self):
        from repro.perf.workloads import _lint_project

        files = _lint_project(seed=13)
        # The repro package itself: comfortably past the seed's size,
        # and seed-independent by construction.
        assert files >= 100.0
        assert _lint_project(seed=14) == files

    def test_physics_pair_measures_the_engine_speedup(self):
        entries = {e.name: e for e in run_quick_suite(seed=13)}
        vector = entries["quick.physics-vector"]
        scalar = entries["quick.physics-scalar"]
        # Identical cell counts: the pair runs the same workload.
        assert vector.rates and scalar.rates
        # The vector entry carries the measured engine-vs-engine ratio.
        assert vector.speedup is not None
        assert vector.speedup["vs_scalar_engine"] > 1.0
        assert vector.speedup["scalar_wall_s"] == scalar.wall_s
        assert scalar.speedup is None

    def test_overhead_ratio_divides_minima_of_interleaved_pairs(
        self, monkeypatch
    ):
        from repro.perf import workloads

        # Scripted wall times (exact in binary): the slow outliers must
        # not count.
        durations = {
            "bare": iter([4.0, 2.0, 2.5, 16.0, 3.0]),
            "supervised": iter([2.5, 16.0, 2.0625, 2.25, 3.0]),
        }
        clock = [0.0]
        calls = []

        def leg(name):
            def run(seed):
                calls.append(name)
                clock[0] += next(durations[name])
                return 4.0

            return run

        monkeypatch.setattr(workloads, "wall_clock", lambda: clock[0])
        monkeypatch.setattr(
            workloads,
            "QUICK_WORKLOADS",
            (
                workloads.QuickWorkload(
                    "quick.chaos-overhead", "units_per_s", leg("supervised")
                ),
                workloads.QuickWorkload(
                    "quick.exec-engine", "units_per_s", leg("bare")
                ),
            ),
        )
        supervised, bare = workloads.run_quick_suite(seed=13)
        assert calls == ["bare", "supervised"] * 5
        assert (bare.wall_s, supervised.wall_s) == (2.0, 2.0625)
        assert supervised.speedup == {
            "supervised_overhead_ratio": 1.03125,
            "bare_wall_s": 2.0,
        }
        assert bare.rates == {"units_per_s": 2.0}

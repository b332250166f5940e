"""The quick-workload suite: small, seeded hot-path timings.

The full bench suite regenerates whole paper tables and takes minutes;
CI needs a trajectory data point in seconds.  Each quick workload here
drives exactly one hot path the ROADMAP targets for optimisation — the
SRAM/DRAM bulk decay kernels, the glitch campaign loop, the exec
engine's dispatch overhead — on a deliberately small, fixed-seed
configuration, and reports how many units of work it processed.  The
runner times each workload with :func:`repro.obs.timing.wall_clock`
and folds the result into ``source: "quick"`` trajectory entries
(:mod:`repro.perf.bench`), which the regression gate then compares
across ``BENCH_<n>.json`` documents.

Work **counts** are deterministic (same seed ⇒ same units); only the
wall time varies run to run — exactly the split the trajectory schema
encodes as ``rates`` versus entry identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..circuits.dram import DramArray
from ..circuits.engine import forced_engine
from ..circuits.sram import SramArray
from ..errors import PerfError
from ..exec import ShardPlan, WorkUnit, execute, shard_unit
from ..glitch.campaign import CampaignSpec, shard_plan
from ..obs.timing import wall_clock
from ..rng import generator
from ..units import nanoseconds
from .bench import BenchEntry

#: Sizes kept small so the whole suite runs in a few seconds even on a
#: single-CPU container.
_SRAM_BITS = 64 * 1024 * 8  # one 64 KiB macro
_DRAM_BITS = 512 * 1024 * 8  # one 512 KiB module
_RETENTION_STEPS = 8
_EXEC_UNITS = 64

#: The engine-differential macro: small enough that even the per-cell
#: scalar reference engine finishes in about a second.
_PHYSICS_BITS = 16 * 1024 * 8  # one 16 KiB macro
_PHYSICS_CYCLES = 4

#: The glitch quick campaign: 2x1x2 grid around the PIN guard, one
#: repeat, both legs — every outcome class stays reachable.
_GLITCH_SPEC = CampaignSpec(
    offsets_s=(0.0, nanoseconds(350)),
    widths_s=(nanoseconds(40),),
    depths_v=(0.4, 0.55),
    repeats=1,
    random_points=2,
)


@dataclass(frozen=True)
class QuickWorkload:
    """One named quick workload and how to rate it."""

    name: str
    rate_key: str  # which trajectory rate its unit count feeds
    fn: Callable[[int], float]  # seed -> units processed


def _sram_decay(seed: int) -> float:
    """One full power-cycle decay of an SRAM macro (cells processed)."""
    array = SramArray(
        _SRAM_BITS, rng=generator(seed, "perf", "sram"), name="perf.sram"
    )
    array.power_up()
    array.fill_bytes(0xAA)
    array.power_down()
    array.elapse_unpowered(20e-6)
    array.restore_power()
    return float(_SRAM_BITS)


def _sram_retention(seed: int) -> float:
    """A miniature retention sweep: repeated decay/restore cycles."""
    array = SramArray(
        _SRAM_BITS, rng=generator(seed, "perf", "sram-sweep"),
        name="perf.sram-sweep",
    )
    array.power_up()
    for step in range(_RETENTION_STEPS):
        array.power_down()
        array.elapse_unpowered((step + 1) * 5e-6)
        array.restore_power()
    return float(_SRAM_BITS * _RETENTION_STEPS)


def _dram_decay(seed: int) -> float:
    """One unpowered decay interval of a DRAM module (cells processed)."""
    module = DramArray(
        _DRAM_BITS, rng=generator(seed, "perf", "dram"), name="perf.dram"
    )
    module.restore_power()
    module.power_down()
    module.elapse_unpowered(1.0)
    module.restore_power()
    return float(_DRAM_BITS)


def _physics_cells(seed: int, engine: str) -> float:
    """The decay-heavy engine-differential workload on one engine.

    One SRAM macro through ``_PHYSICS_CYCLES`` power-cycle/decay/restore
    rounds plus one DRAM module through a full unpowered decay —
    touching every bulk kernel the cell-physics engine defines.  The
    unit counts are deterministic and identical for both engines (same
    seeds, same RNG-stream contract), so the two entries' wall times
    divide into an honest vector-vs-scalar speedup.
    """
    with forced_engine(engine):
        array = SramArray(
            _PHYSICS_BITS,
            rng=generator(seed, "perf", "physics-sram"),
            name=f"perf.physics-{engine}",
        )
        array.power_up()
        array.fill_bytes(0x5A)
        for step in range(_PHYSICS_CYCLES):
            array.power_down()
            array.elapse_unpowered((step + 1) * 5e-6)
            array.restore_power()
        module = DramArray(
            _PHYSICS_BITS,
            rng=generator(seed, "perf", "physics-dram"),
            name=f"perf.physics-dram-{engine}",
        )
        module.restore_power()
        module.power_down()
        module.elapse_unpowered(1.0)
        module.restore_power()
    return float(_PHYSICS_BITS * _PHYSICS_CYCLES + _PHYSICS_BITS)


def _physics_vector(seed: int) -> float:
    """Engine differential, vectorized numpy leg (cells processed)."""
    return _physics_cells(seed, "vector")


def _physics_scalar(seed: int) -> float:
    """Engine differential, per-cell scalar reference leg."""
    return _physics_cells(seed, "scalar")


def _glitch_campaign(seed: int) -> float:
    """A small glitch parameter search (attempts classified)."""
    results = execute(shard_plan(seed, _GLITCH_SPEC), jobs=1)
    return float(sum(len(attempts) for attempts in results))


@shard_unit
def _exec_spin(token: int) -> int:
    """Module-level work unit (pool pickling requires it)."""
    total = 0
    for i in range(2000):
        total = (total + (token + i) * (token ^ i)) & 0xFFFFFFFF
    return total


def _exec_plan(seed: int) -> ShardPlan:
    """The trivial-unit dispatch plan shared by the exec workloads."""
    return ShardPlan(
        [
            WorkUnit(index=i, fn=_exec_spin, args=(seed + i,),
                     label=f"spin[{i}]")
            for i in range(_EXEC_UNITS)
        ]
    )


def _exec_engine(seed: int) -> float:
    """Engine dispatch overhead over a plan of trivial units."""
    execute(_exec_plan(seed), jobs=1)
    return float(_EXEC_UNITS)


def _chaos_overhead(seed: int) -> float:
    """The supervised dispatch path with a (no-fault) injector installed.

    Exactly the ``quick.exec-engine`` plan, but with an empty
    :class:`~repro.chaos.inject.ChaosInjector` held on the runtime
    hook — so every unit pays the full supervision tax: the
    ``runtime.run_unit`` choke point plus a fault-table scan that
    matches nothing.  Dividing this entry's fastest of k interleaved
    runs by the bare entry's gives the supervision overhead ratio the
    robustness acceptance gate bounds at 1.05 (see
    ``docs/robustness.md``).
    """
    from ..chaos.inject import ChaosInjector
    from ..exec import runtime

    injector = ChaosInjector((), state_dir="")
    with runtime.injected(injector):
        execute(_exec_plan(seed), jobs=1)
    return float(_EXEC_UNITS)


def _lint_project(seed: int) -> float:
    """Flow-analysis throughput: summarize + link + check the src tree.

    Cold analysis (no summary cache) so the rate tracks the extractor
    and linker themselves, not disk-cache hits; ``seed`` is unused —
    the linter is deterministic by construction — but the signature
    matches the suite.  Returns files analysed.
    """
    del seed
    from pathlib import Path

    from ..lint.engine import flow_findings, iter_python_files

    package_root = Path(__file__).resolve().parents[1]
    files = iter_python_files([package_root])
    if not files:
        raise PerfError(f"quick.lint-project found no files under {package_root}")
    flow_findings(files)
    return float(len(files))


#: The suite, in trajectory-entry order.
QUICK_WORKLOADS: tuple[QuickWorkload, ...] = (
    QuickWorkload("quick.chaos-overhead", "units_per_s", _chaos_overhead),
    QuickWorkload("quick.dram-decay", "cells_decayed_per_s", _dram_decay),
    QuickWorkload("quick.exec-engine", "units_per_s", _exec_engine),
    QuickWorkload("quick.glitch-campaign", "attempts_per_s", _glitch_campaign),
    QuickWorkload("quick.lint-project", "files_per_s", _lint_project),
    QuickWorkload("quick.physics-scalar", "cells_decayed_per_s",
                  _physics_scalar),
    QuickWorkload("quick.physics-vector", "cells_decayed_per_s",
                  _physics_vector),
    QuickWorkload("quick.sram-decay", "cells_decayed_per_s", _sram_decay),
    QuickWorkload("quick.sram-retention", "cells_decayed_per_s",
                  _sram_retention),
)


#: The supervision-overhead pair: (bare, supervised) workload names.
_OVERHEAD_PAIR = ("quick.exec-engine", "quick.chaos-overhead")

#: Interleaved (bare, supervised) runs behind the overhead ratio; the
#: ratio divides the minima, so one noisy run cannot cross the bound.
_OVERHEAD_PAIRS = 5


def _timed(workload: QuickWorkload, seed: int) -> tuple[float, float]:
    """Run ``workload`` once; returns ``(units, wall seconds)``."""
    start = wall_clock()
    units = workload.fn(seed)
    return units, wall_clock() - start


def run_quick_suite(seed: int) -> list[BenchEntry]:
    """Time every quick workload; returns ``source: "quick"`` entries.

    The ``quick.physics-vector`` entry additionally carries a
    ``speedup`` block dividing the scalar leg's wall time by its own —
    the honest, same-host, same-work vector-vs-scalar engine ratio the
    acceptance gate reads.  ``quick.chaos-overhead`` likewise carries
    the supervision-overhead ratio bounded by the robustness gate:
    both legs run as ``_OVERHEAD_PAIRS`` interleaved (bare, supervised)
    pairs, both entries report their fastest run, and the ratio is
    min(supervised) / min(bare).
    """
    by_workload = {workload.name: workload for workload in QUICK_WORKLOADS}
    runs: dict[str, list[tuple[float, float]]] = {
        name: [] for name in _OVERHEAD_PAIR
    }
    for _ in range(_OVERHEAD_PAIRS):
        for name in _OVERHEAD_PAIR:
            runs[name].append(_timed(by_workload[name], seed))
    entries = []
    for workload in QUICK_WORKLOADS:
        timings = runs.get(workload.name) or [_timed(workload, seed)]
        units = timings[0][0]
        wall_s = min(wall for _, wall in timings)
        if units <= 0.0:
            raise PerfError(
                f"quick workload {workload.name} processed no units"
            )
        rates = {workload.rate_key: units / wall_s} if wall_s > 0.0 else {}
        entries.append(
            BenchEntry(
                name=workload.name,
                source="quick",
                wall_s=wall_s,
                rates=rates,
                seed=seed,
            )
        )
    by_name = {entry.name: entry for entry in entries}
    vector = by_name.get("quick.physics-vector")
    scalar = by_name.get("quick.physics-scalar")
    if vector is not None and scalar is not None and vector.wall_s > 0.0:
        vector.speedup = {
            "vs_scalar_engine": scalar.wall_s / vector.wall_s,
            "scalar_wall_s": scalar.wall_s,
        }
    bare = by_name.get(_OVERHEAD_PAIR[0])
    supervised = by_name.get(_OVERHEAD_PAIR[1])
    if supervised is not None and bare is not None and bare.wall_s > 0.0:
        supervised.speedup = {
            "supervised_overhead_ratio": supervised.wall_s / bare.wall_s,
            "bare_wall_s": bare.wall_s,
        }
    return entries

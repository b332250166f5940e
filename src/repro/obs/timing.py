"""Wall-clock section timers and a deterministic profiling hook.

Wall-clock time is the one observability input that is *not*
deterministic, so it is quarantined here: phase durations land in
manifests under ``wall_s`` keys, the profiling hook emits only ``perf.*``
metrics, and both are excluded from
:meth:`~repro.obs.manifest.RunManifest.fingerprint` when comparing runs
— so instrumented hot paths stay byte-equivalent across ``--jobs``.

The profiling hook :func:`observe_rate` is how the hot paths — the
exec engine, the glitch campaign loop, the circuits decay paths —
report throughput without perturbing physics: it reads no RNG,
allocates nothing when observability is disabled, and every metric it
emits lives under the fingerprint-stripped ``perf.`` namespace.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


def wall_clock() -> float:
    """Monotonic wall-clock reading, in seconds.

    The one sanctioned clock source: everything outside this module
    (spans, timers) takes its wall-clock readings from here, so the
    RL001 determinism lint can quarantine ``time`` imports to this file.
    """
    return time.perf_counter()


class SectionTimer:
    """Accumulates named, ordered wall-clock sections."""

    def __init__(self) -> None:
        self._sections: list[tuple[str, float]] = []

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time the enclosed block and record it under ``name``."""
        start = wall_clock()
        try:
            yield
        finally:
            self._sections.append((name, wall_clock() - start))

    def add(self, name: str, wall_s: float) -> None:
        """Record an externally measured section."""
        self._sections.append((name, float(wall_s)))

    def phases(self) -> list[dict[str, object]]:
        """The sections in manifest-phase shape."""
        return [
            {"name": name, "wall_s": wall_s} for name, wall_s in self._sections
        ]

    @property
    def total_s(self) -> float:
        """Sum of all recorded section durations."""
        return sum(wall_s for _, wall_s in self._sections)


# ----------------------------------------------------------------------
# Profiling hook (the repro.perf measurement point)
# ----------------------------------------------------------------------
#
# ``OBS`` is imported lazily inside the hook: this module is imported by
# ``repro.obs.__init__`` before ``OBS`` exists, so a module-level import
# would be circular.


def observe_rate(
    name: str, units: float, wall_s: float, **labels: object
) -> None:
    """Record a hot-path throughput gauge ``perf.<name>.per_s``.

    ``units`` is whatever the path processes (cells, attempts, work
    units); the gauge holds the latest observed rate and a paired
    ``perf.phase_wall_s`` histogram observation keeps the distribution.
    No-op when observability is disabled or the interval is degenerate.
    """
    from . import OBS

    if not OBS.enabled or wall_s <= 0.0:
        return
    OBS.gauge_set(f"perf.{name}.per_s", units / wall_s, **labels)
    OBS.histogram_record("perf.phase_wall_s", wall_s, phase=name, **labels)

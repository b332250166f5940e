"""RL009 — fingerprint purity: no wall-clock taint in fingerprinted fields.

Run-manifest fingerprints are the repo's reproducibility currency:
``--jobs`` equivalence, kill-9 ``--resume`` identity, and the chaos
harness all compare them.  The fingerprint survives wall-clock jitter
only because the stripping logic in :mod:`repro.obs.manifest` removes
``phases[].wall_s`` and the ``perf.*``/``exec.*`` metric namespaces —
a *runtime* convention.  Any timing value that reaches a field the
fingerprint keeps (``parameters``, ``headline``, ``metrics`` outside
the stripped prefixes) silently breaks every one of those guarantees.

This rule proves the convention statically: values originating in
:mod:`repro.obs.timing` (``wall_clock()``, ``SectionTimer.total_s``)
are tainted; taint propagates through local assignments and across
function returns project-wide (:mod:`repro.lint.flow.taint`); a
tainted value reaching a fingerprinted ``RunManifest`` kwarg, a
``manifest.headline[...] =`` store, or an ``OBS`` metric whose name is
not ``perf.``/``exec.``-prefixed is a finding.
"""

from __future__ import annotations

from typing import Iterator

from ..findings import Finding
from ..flow import taint
from .base import FlowRule, register

_HINT = (
    "emit timing through perf.*/exec.* metrics or phases[].wall_s "
    "(all stripped from fingerprints); fingerprinted manifest fields "
    "must stay wall-clock-free"
)


def _describe(sink) -> str:
    if sink.kind == "manifest":
        return f"fingerprinted RunManifest field {sink.field!r}"
    if sink.kind == "manifest-item":
        return f"item store into manifest field {sink.field!r}"
    return f"fingerprinted metric {sink.field!r}"


@register
class FingerprintPurityRule(FlowRule):
    id = "RL009"
    name = "fingerprint-purity"
    description = (
        "wall-clock-derived values must not flow into fingerprinted "
        "manifest fields or non-perf./exec. metrics"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for tainted in taint.solve(project):
            sink = tainted.sink
            yield self.finding(
                tainted.path, sink.line, sink.col,
                f"wall-clock taint ({tainted.reason}) reaches "
                f"{_describe(sink)} in {tainted.function}; the "
                f"manifest fingerprint would vary run to run",
                hint=_HINT,
            )

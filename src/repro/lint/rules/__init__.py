"""The rule registry.

Importing this package imports every rule module, which registers its
rule class — per-file or project-wide — via the
:func:`~repro.lint.rules.base.register` decorator.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for registration side effects)
    rl001_determinism,
    rl002_units,
    rl003_errors,
    rl004_float_eq,
    rl005_obs,
    rl006_timing,
    rl007_shard_race,
    rl008_iter_order,
    rl009_fingerprint_purity,
)
from .base import (
    FileContext,
    Rule,
    all_flow_rules,
    all_rules,
    resolve_rules,
)

__all__ = [
    "FileContext",
    "Rule",
    "all_flow_rules",
    "all_rules",
    "resolve_rules",
]

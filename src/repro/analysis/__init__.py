"""Static analysis + runtime sanitizer guarding the repo's determinism.

Every reproduced result depends on the claim that a ``Simulator`` run is
bit-for-bit reproducible from its seed, and the paper's §III security
claims on the guard holding against an adversary who picks the inputs.
This package enforces both:

* :mod:`repro.analysis.engine` — the one driver: :data:`RULES` (every
  rule's :class:`Rule` record), :func:`analyze` (file discovery, one
  parse, rule selection, inline ``# repro: allow[RULE]`` suppression,
  U001 hygiene, ordering) and :func:`lint_source` for a single string;
* six rule families, each only a rule list plus its checks —
  :mod:`.rules` (lint D/W: wall clock, global randomness, unordered
  scheduling, mutable defaults, float time equality, swallowed
  exceptions, observe-only obs), :mod:`.flow` (T taint over the guard
  trust boundaries, S TCP FSM conformance), :mod:`.races` (R
  simultaneity), :mod:`.perf` (P hot-path cost), :mod:`.memory` (M state
  exhaustion) and :mod:`.layers` (L transport purity);
* :mod:`.baseline` — the checked-in accepted-findings baseline
  (``scripts/analysis_baseline.json``); :mod:`.sarif` — SARIF 2.1.0
  export for code scanning;
* :mod:`repro.analysis.sanitizer` — runtime dual-run trace comparison;
  :func:`run_sanitized` plus ``python -m repro <cmd> --sanitize``;
* :mod:`repro.analysis.cli` — ``python -m repro.analysis [--rules IDS]
  [--baseline FILE] [--sarif OUT] [paths...]``, nonzero exit on findings
  for CI.
"""

from .engine import (
    RULES,
    SuppressionTracker,
    analyze,
    lint_source,
    suppressed_rules,
)
from .findings import Finding, Rule
from .sanitizer import (
    Divergence,
    SanitizeReport,
    TraceCollector,
    capture_traces,
    run_sanitized,
)

__all__ = [
    "Divergence",
    "Finding",
    "RULES",
    "Rule",
    "SanitizeReport",
    "SuppressionTracker",
    "TraceCollector",
    "analyze",
    "capture_traces",
    "lint_source",
    "run_sanitized",
    "suppressed_rules",
]

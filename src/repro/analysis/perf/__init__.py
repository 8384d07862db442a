"""Profile-guided hot-path cost analysis (the P-rules).

The perf layer is the cost counterpart of the T/S (flow) and R (races)
layers: it computes the hot-path call graph from schedule-site callbacks
and ``Node.receive`` reachability, optionally weights it with the handler
timings in ``scripts/BENCH_profile.json``, and reports per-event cost patterns —
unslotted allocations, redundant wire encodings, closure churn, unguarded
formatting, O(n) scans and constant-delay heap pushes — so the ROADMAP-1
optimization arc has both a worklist and a regression gate.

See DESIGN.md ("Hot-path cost model") for the hot-path definition and the
rule-to-optimization map.
"""

from .engine import PERF_RULES, check_perf
from .hotpath import (
    HotFunction,
    HotPaths,
    PerfProfile,
    compute_hot_paths,
    load_profile,
    module_dotted,
)

__all__ = [
    "PERF_RULES",
    "check_perf",
    "HotFunction",
    "HotPaths",
    "PerfProfile",
    "compute_hot_paths",
    "load_profile",
    "module_dotted",
]

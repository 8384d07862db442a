"""State-exhaustion analysis (the M-rules).

The memory layer proves the guard cannot be memory-DoSed: every
long-lived collection an attacker can grow is declared in a module-level
``__state_bounds__`` (capacity + eviction mechanism + key provenance),
a static pass composes the taint surface from ``__trust_boundary__``
with the perf layer's hot-set inference to verify the declarations are
complete (M001), enforced at every insert site (M002), swept from a
reachable scheduled callback (M003), bypass-proof on early-return paths
(M004) and growth-free under self-reschedule (M005), and a runtime
high-water-mark monitor (M006) witnesses the declared bounds under the
flood scenarios.

See DESIGN.md ("State-exhaustion model") for the mapping to the paper's
§III soft-state design.
"""

from .declarations import (
    DECL_NAME,
    EVICTION_MECHANISMS,
    KEY_PROVENANCE,
    StateBound,
    declarations_for_module,
    find_declaration,
    parse_declaration,
)
from .engine import MEMORY_RULES, check_memory
from .runtime import (
    HighWaterMonitor,
    MemoryReport,
    discover_bounded_classes,
    run_bounds_monitored,
)

__all__ = [
    "DECL_NAME",
    "EVICTION_MECHANISMS",
    "KEY_PROVENANCE",
    "StateBound",
    "declarations_for_module",
    "find_declaration",
    "parse_declaration",
    "MEMORY_RULES",
    "check_memory",
    "HighWaterMonitor",
    "MemoryReport",
    "discover_bounded_classes",
    "run_bounds_monitored",
]

"""The memory family: state-exhaustion rules M001–M005 (M006 is runtime).

:func:`check_memory` reads every module's ``__state_bounds__``
declaration against the hot set (so M001/M003 know which functions run
per attacker packet and which sweeps a scheduler actually reaches) and
runs the selected M-rules.  M006 is the runtime high-water witness
(``python -m repro <cmd> --memory``); it is registered here for the rule
table, SARIF and ``--rules``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding, Rule
from .rules import MEMORY_CHECKS, build_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Context


MEMORY_RULES = (
    Rule(
        "M001",
        "memory",
        "attacker-keyed collection written on an attacker-driven path "
        "with no declared bound",
        "a spoofed flood chooses the keys, so an undeclared table is a "
        "one-line memory DoS; declare it in __state_bounds__ with an "
        "enforced bound (the paper's §III soft state is bounded by "
        "construction)",
    ),
    Rule(
        "M002",
        "memory",
        "declared cap/lru bound with an insert site that performs no "
        "cap check or eviction",
        "a bound that is not enforced wherever the collection grows is "
        "documentation, not a defense; every insert site must carry a "
        "len() check or an eviction on the same table",
    ),
    Rule(
        "M003",
        "memory",
        "sweep-declared soft state with no eviction reachable from a "
        "scheduled callback",
        "TIME_WAIT entries, pending challenges and cookie generations "
        "expire only if a sweep actually runs; an unreachable sweep "
        "means entries inserted under flood live forever",
    ),
    Rule(
        "M004",
        "memory",
        "early return/raise between an insert and its cap enforcement",
        "an exception or early-return path that skips the cap lets an "
        "attacker grow the table past its bound by triggering that "
        "path; evict-then-insert is bypass-proof",
    ),
    Rule(
        "M005",
        "memory",
        "unbudgeted self-reschedule that also grows a collection",
        "a callback that unconditionally reschedules itself while "
        "inserting accumulates state every firing with no budget; "
        "sweeps must be evict-only and retries must be bounded",
    ),
    Rule(
        "M006",
        "memory-runtime",
        "observed collection size exceeded its declared bound "
        "(runtime high-water mark)",
        "the dynamic witness for the static claim: the monitor samples "
        "declared collections under flood and fails if any high-water "
        "mark crosses the declared capacity",
    ),
)


def check_memory(ctx: "Context", selected: frozenset[str]) -> list[Finding]:
    """The selected M-rules over every module's declarations."""
    hot_by_path: dict[str, set[str]] = {}
    for path, qualname in ctx.hot_paths.functions:
        hot_by_path.setdefault(path, set()).add(qualname)

    findings: list[Finding] = []
    for module in ctx.modules:
        view = build_view(module, frozenset(hot_by_path.get(module.path, ())))
        for rule_id, check in MEMORY_CHECKS.items():
            if rule_id in selected:
                findings.extend(check(view))
    return findings

"""The races family: the static simultaneity rules R001/R002.

:func:`check_races` computes effect sets for every scheduled callback and
reports write overlaps (R001) and undeclared shared state (R002).

R003/R004 are *runtime* rules: they are registered here so the SARIF
export, the README rule table, and ``--rules`` selection know them, but
their findings come from the dynamic interference monitor
(:mod:`.runtime`, ``python -m repro <cmd> --races``), which also consumes
their ``allow`` markers — so the static driver never judges those.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding, Rule
from .effects import check_declarations, check_write_overlaps, collect_schedule_sites

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Context


RACE_RULES = (
    Rule(
        "R001",
        "race-static",
        "same-instant handlers have statically overlapping write sets "
        "over declared shared state",
        "two events at equal virtual time run in heap insertion order; "
        "results that depend on that order are scheduling artifacts, "
        "not properties of the modelled system",
    ),
    Rule(
        "R002",
        "race-static",
        "scheduler-visible shared state accessed without a "
        "__shared_state__ declaration",
        "the race rules can only watch cells that are declared; an "
        "undeclared table is an unwatched table",
    ),
    Rule(
        "R003",
        "race-runtime",
        "write/write conflict observed inside a tie group at runtime",
        "both orders of the colliding writes were schedulable; the run's "
        "answer picked one silently",
    ),
    Rule(
        "R004",
        "race-runtime",
        "read/write conflict observed inside a tie group at runtime",
        "a same-instant reader saw either the pre- or post-write value "
        "depending on insertion order alone",
    ),
)

#: Rules whose ``allow`` markers the runtime interference monitor consumes.
MONITOR_RULES = frozenset(
    rule.id for rule in RACE_RULES if rule.family == "race-runtime"
)


def check_races(ctx: "Context", selected: frozenset[str]) -> list[Finding]:
    """The selected static race rules over the shared parse."""
    findings: list[Finding] = []
    if "R001" in selected:
        sites, commutative = collect_schedule_sites(ctx.modules, ctx.index)
        findings.extend(check_write_overlaps(sites, commutative))
    if "R002" in selected:
        findings.extend(check_declarations(ctx.modules))
    return findings

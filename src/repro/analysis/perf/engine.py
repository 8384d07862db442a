"""The perf family: profile-guided hot-path cost rules P001–P006.

:func:`check_perf` runs every selected P-rule over every function in the
hot set (schedule-site callbacks, ``Node.receive`` reachability, and —
when a ``BENCH_profile.json`` is supplied — the profiled handler roots).
Accepted findings live in ``scripts/analysis_baseline.json`` and
self-shrink through U001.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding, Rule
from .rules import PERF_CHECKS, PerfContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Context


PERF_RULES = (
    Rule(
        "P001",
        "perf",
        "unslotted class instantiated per event on a hot path",
        "a per-event __dict__ allocation at 250K pkt/s is pure "
        "allocator churn; __slots__ or a flyweight removes it "
        "(ROADMAP item 1)",
    ),
    Rule(
        "P002",
        "perf",
        "DNS wire message re-encoded on a hot path though its bytes "
        "cannot have changed",
        "most attack packets differ only in id/source; a memoized "
        "encoding or cached size turns an O(message) encode into a "
        "lookup",
    ),
    Rule(
        "P003",
        "perf",
        "per-event closure/lambda allocated at a schedule site on a "
        "hot path",
        "every lambda scheduled per packet allocates a fresh closure "
        "and cell objects; scheduling the bound method with its "
        "arguments is allocation-free",
    ),
    Rule(
        "P004",
        "perf",
        "unguarded string formatting or logging on a hot path",
        "f-strings and log calls pay their cost once per event even "
        "when no one reads the result; error paths are exempt",
    ),
    Rule(
        "P005",
        "perf",
        "O(n) scan (membership, sorted(), linear table walk) inside a "
        "per-packet handler",
        "a linear scan in the per-packet path multiplies n into the "
        "packet rate; dicts, buckets, or precomputed tables keep "
        "dispatch O(1)",
    ),
    Rule(
        "P006",
        "perf",
        "constant-delay heap push on a hot path — calendar-queue/"
        "bucket candidate",
        "fixed-offset schedule() calls dominate event-loop time in "
        "the profile; a calendar-queue lane makes them O(1) and is "
        "the core of the ROADMAP-1 rebuild",
    ),
)


def check_perf(ctx: "Context", selected: frozenset[str]) -> list[Finding]:
    """The selected P-rules over every hot function.

    The profile adds handler roots the static pass cannot see and marks
    their findings as profiled; it never suppresses static findings.
    """
    perf = PerfContext(ctx.modules, ctx.hot_paths)
    findings: list[Finding] = []
    for entry in ctx.hot_paths.functions.values():
        for rule_id, check in PERF_CHECKS.items():
            if rule_id in selected:
                findings.extend(check(perf, entry))
    return findings

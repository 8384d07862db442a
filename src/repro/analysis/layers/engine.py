"""The layers family: transport-purity layering rules L001–L006.

:func:`check_layers` resolves each module's layer from the
import-layering manifest and runs the static L-rules.  L006 — importing
the declared pure core in a fresh interpreter with the platform layers
blocked (:mod:`.runtime`) — runs whenever it is selected; it checks the
*installed* ``repro`` package whatever paths are analysed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..findings import Finding, Rule
from .rules import (
    check_l001,
    check_l002,
    check_l003,
    check_l004,
    check_l005,
    classify_modules,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Context


LAYER_RULES = (
    Rule(
        "L001",
        "layering",
        "pure-core module imports a forbidden layer (simulator, "
        "observability, asyncio, sockets, clocks, OS entropy)",
        "the paper's guard is a separable module; one upward import "
        "couples every decision to the simulator and kills the "
        "real-socket port (ROADMAP item 4) — inject capabilities "
        "through repro.guard.core.ports instead",
    ),
    Rule(
        "L002",
        "layering",
        "pure-core function reaches a transport/scheduling API "
        "through the call graph",
        "even without an import, calling schedule()/send()/submit() "
        "on a duck-typed argument makes the decision logic drive the "
        "transport; pure functions return decisions and let the "
        "adapter act on them",
    ),
    Rule(
        "L003",
        "layering",
        "purity escape in the core: wall clock, OS entropy, blocking "
        "I/O or global mutable module state",
        "hidden inputs make replay and the sanitizer's bit-identical "
        "traces impossible; time and randomness arrive through the "
        "injected Clock/Rng seams, state lives in instances the "
        "adapter owns",
    ),
    Rule(
        "L004",
        "layering",
        "admission/verification decision logic living in an adapter "
        "instead of behind the core seam",
        "an adapter computing hash digests is re-growing decision "
        "logic outside the audited core — the exact drift the "
        "guard-core extraction removed; add the decision to "
        "repro.guard.core and call through the seam",
    ),
    Rule(
        "L005",
        "layering",
        "layer-manifest drift: undeclared module or stale "
        "declaration",
        "the manifest and the per-package __layer__ declarations are "
        "two views of one architecture; when they disagree the "
        "layering analysis is checking a world that no longer "
        "exists",
    ),
    Rule(
        "L006",
        "layering-runtime",
        "pure core fails to import with the platform layers blocked "
        "(runtime import-isolation witness)",
        "the dynamic proof of L001's static claim: a fresh "
        "interpreter imports the declared pure core with "
        "netsim/obs/asyncio/sockets blocked by a meta-path finder, "
        "so no transitive platform dependency can hide behind a "
        "re-export or a lazy import",
    ),
)


def check_layers(ctx: "Context", selected: frozenset[str]) -> list[Finding]:
    """The selected L-rules against the run's layer manifest."""
    layered = classify_modules(ctx.modules, ctx.manifest)
    findings: list[Finding] = []
    if "L001" in selected:
        findings.extend(check_l001(layered, ctx.manifest))
    if "L002" in selected:
        findings.extend(check_l002(layered))
    if "L003" in selected:
        findings.extend(check_l003(layered))
    if "L004" in selected:
        findings.extend(check_l004(layered))
    if "L005" in selected:
        findings.extend(check_l005(layered, ctx.manifest))
    if "L006" in selected:
        from .runtime import verify_import_isolation

        findings.extend(verify_import_isolation(manifest=ctx.manifest).findings)
    return findings

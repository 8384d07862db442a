"""The flow family: T-rules (taint) and S-rules (FSM conformance).

:func:`check_flow` builds call summaries to a fixpoint and runs the
T-rules over every function, and runs the S-rules over every module a
spec targets.  Selection, inline suppression (``# repro: allow[T001]``)
and U001 bookkeeping are the driver's (:func:`repro.analysis.engine.analyze`).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..findings import Finding, Rule
from .core import ModuleInfo, build_summaries
from .fsm import (
    check_conformance,
    check_isn_paths,
    check_model_walk,
    check_reachability,
    check_retry_escapes,
    check_syn_cookie_order,
    extract_fsm,
)
from .fsm_spec import TCP_SPEC, FsmSpec
from .taint import check_taint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import Context


FLOW_RULES = (
    Rule(
        "T001",
        "taint",
        "guard admission depends on attacker-controlled input without "
        "a dominating sanitizer",
        "the paper's §III invariant: forged packet fields may influence "
        "admission only through the cookie verify / SYN-cookie validate "
        "/ ISN echo check",
    ),
    Rule(
        "T002",
        "taint",
        "cookie key material flows into a log, repr, or obs exporter",
        "spoof detection is exactly as strong as key secrecy; keys "
        "leave the process only via explicit state export",
    ),
    Rule(
        "S001",
        "fsm",
        "implemented state transition not declared in the FSM spec",
        "an undeclared edge bypasses the spec's security obligations "
        "(ISN checks, retry budgets) without review",
    ),
    Rule(
        "S002",
        "fsm",
        "declared state transition has no implementation",
        "a lost edge silently drops protocol behaviour the paper's "
        "handshake argument relies on",
    ),
    Rule(
        "S003",
        "fsm",
        "spec state unreachable from the initial states",
        "dead states hide missing transitions and rot the model the "
        "security argument is checked against",
    ),
    Rule(
        "S004",
        "fsm",
        "a spec path reaches ESTABLISHED without crossing a verified "
        "ISN-checked edge",
        "the exhaustive small-model walk: every way to complete the "
        "handshake must prove the peer echoed the server's ISN",
    ),
    Rule(
        "S005",
        "fsm",
        "an ISN-checked edge is reachable through a call path with no "
        "dominating ISN comparison",
        "the spec label is verified against the code, not trusted: a "
        "declared check that is not actually performed is the exact "
        "bug class spoof detection exists to prevent",
    ),
    Rule(
        "S006",
        "fsm",
        "retry-obligated state lacks a retransmit escape or the abort "
        "path is not budget-bounded",
        "a silent peer must cost bounded retransmissions and bounded "
        "time — otherwise the guard itself becomes a DoS amplifier",
    ),
    Rule(
        "S007",
        "fsm",
        "segment processed in the SYN-cookie path before the cookie "
        "ISN is validated",
        "stateless SYN-cookie handling is only sound if nothing "
        "connection-shaped happens before the cookie round-trips",
    ),
)

_TAINT_RULES = frozenset(rule.id for rule in FLOW_RULES if rule.family == "taint")
_FSM_RULES = frozenset(rule.id for rule in FLOW_RULES if rule.family == "fsm")

#: Path suffix -> the FSM spec that module must conform to.
_SPEC_TARGETS: tuple[tuple[str, FsmSpec], ...] = (
    (str(Path("netsim") / "tcp.py"), TCP_SPEC),
)


def _spec_for(path: str) -> FsmSpec | None:
    for suffix, spec in _SPEC_TARGETS:
        if path.endswith(suffix):
            return spec
    return None


def _fsm_findings(
    module: ModuleInfo, spec: FsmSpec, selected: frozenset[str]
) -> list[Finding]:
    findings: list[Finding] = []
    extraction = extract_fsm(module.tree, module.path)
    if extraction is None:
        if "S002" in selected:
            findings.append(
                Finding(
                    path=module.path,
                    line=1,
                    col=0,
                    rule="S002",
                    message=(
                        f"expected the {spec.name} state machine here but "
                        "no state-enum assignments were found"
                    ),
                )
            )
        return findings
    if selected & {"S001", "S002"}:
        for finding in check_conformance(extraction, spec):
            if finding.rule in selected:
                findings.append(finding)
    if "S003" in selected:
        findings.extend(check_reachability(extraction, spec))
    if selected & {"S004", "S005"}:
        s005, verified = check_isn_paths(extraction, spec)
        if "S005" in selected:
            findings.extend(s005)
        if "S004" in selected:
            findings.extend(check_model_walk(extraction, spec, verified))
    if "S006" in selected:
        findings.extend(check_retry_escapes(extraction, spec))
    if "S007" in selected:
        findings.extend(check_syn_cookie_order(extraction))
    return findings


def check_flow(ctx: "Context", selected: frozenset[str]) -> list[Finding]:
    """The selected T-rules over every function, S-rules over spec targets."""
    findings: list[Finding] = []
    taint_selected = selected & _TAINT_RULES
    if taint_selected:
        summaries = build_summaries(ctx.modules, ctx.index)
        findings.extend(
            check_taint(ctx.modules, summaries, ctx.index, rules=taint_selected)
        )
    if selected & _FSM_RULES:
        for module in ctx.modules:
            spec = _spec_for(module.path)
            if spec is not None:
                findings.extend(_fsm_findings(module, spec, selected))
    return findings

"""``python -m repro.analysis [--rules IDS] [--baseline FILE] [paths...]``.

Runs every rule family over the given paths (default: ``src``) through
the one driver, :func:`repro.analysis.engine.analyze`: the determinism
lint (D/W), taint dataflow and TCP FSM conformance (T/S), the static
simultaneity rules (R001/R002), the hot-path cost rules (P001–P006,
weighted by ``--perf-profile``, default ``scripts/BENCH_profile.json``),
the state-exhaustion rules (M001–M005), the transport-purity layering
rules (L001–L006, including the L006 import-isolation witness), parse
failures (E999) and suppression hygiene (U001).  Each file is parsed
exactly once.  ``--rules`` narrows the run.  The exit code follows the
``--fail-on`` severity contract — by default any finding exits nonzero
— so it slots directly into CI and pre-commit.
``--baseline`` subtracts the accepted-findings file; ``--sarif``
additionally writes the findings as a SARIF 2.1.0 document for
code-scanning upload; ``--rules-md`` / ``--rules-md-check`` generate and
drift-check the README rule table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import apply_baseline, load_baseline
from .engine import RULES, UNUSED_SUPPRESSION_RULE, analyze, severity_of
from .sarif import to_sarif

#: Markers delimiting the generated rule table in README.md.
RULES_MD_BEGIN = "<!-- rules:begin (generated: python -m repro.analysis --rules-md) -->"
RULES_MD_END = "<!-- rules:end -->"


def rules_markdown() -> str:
    """The generated README rule table, including the guard markers."""
    lines = [
        RULES_MD_BEGIN,
        "| Rule | Family | Summary | Why |",
        "| --- | --- | --- | --- |",
    ]
    for rule in RULES.values():
        lines.append(
            f"| `{rule.id}` | {rule.family} | {rule.summary} | {rule.rationale} |"
        )
    lines.append(RULES_MD_END)
    return "\n".join(lines)


def _replace_rules_block(text: str, block: str) -> str | None:
    """``text`` with the marked block replaced, or None if markers missing."""
    begin = text.find(RULES_MD_BEGIN)
    end = text.find(RULES_MD_END)
    if begin == -1 or end == -1 or end < begin:
        return None
    return text[:begin] + block + text[end + len(RULES_MD_END):]


#: Severity ordering for the ``--fail-on`` exit-code contract.
_SEVERITY_RANK = {"note": 0, "warning": 1, "error": 2}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static analysis for the reproduction: every rule family — "
            "determinism lint, taint dataflow and FSM conformance, "
            "simultaneity races, hot-path cost, state exhaustion and "
            "transport-purity layering — in one run."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--fail-on",
        choices=("error", "warning", "note"),
        default="note",
        help=(
            "lowest severity that makes the exit code nonzero (default: "
            "note — any finding fails, the historical behaviour)"
        ),
    )
    parser.add_argument(
        "--perf-profile",
        metavar="FILE",
        default="scripts/BENCH_profile.json",
        help=(
            "handler-timing profile weighting the perf rules (default: "
            "scripts/BENCH_profile.json; a missing file just disables "
            "weighting)"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="OUT",
        default=None,
        help="write findings as SARIF 2.1.0 to OUT ('-' for stdout)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "subtract the accepted-findings baseline; stale entries are "
            "reported as U001"
        ),
    )
    parser.add_argument(
        "--rules-md",
        action="store_true",
        help="print the generated markdown rule table and exit",
    )
    parser.add_argument(
        "--rules-md-check",
        metavar="FILE",
        default=None,
        help="exit 1 if FILE's generated rule-table block is out of date",
    )
    parser.add_argument(
        "--rules-md-update",
        metavar="FILE",
        default=None,
        help="rewrite FILE's generated rule-table block in place and exit",
    )
    args = parser.parse_args(argv)

    if args.rules_md:
        print(rules_markdown())
        return 0
    if args.rules_md_check or args.rules_md_update:
        target = Path(args.rules_md_check or args.rules_md_update)
        try:
            text = target.read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        updated = _replace_rules_block(text, rules_markdown())
        if updated is None:
            print(
                f"error: {target} has no {RULES_MD_BEGIN!r} block",
                file=sys.stderr,
            )
            return 2
        if args.rules_md_update:
            if updated != text:
                target.write_text(updated, encoding="utf-8")
            return 0
        if updated != text:
            print(
                f"{target}: rule table is out of date — run "
                "python -m repro.analysis --rules-md-update "
                f"{target}",
                file=sys.stderr,
            )
            return 1
        return 0

    rule_ids = None
    if args.rules:
        # a narrowed run still judges the markers of the rules it ran
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
        rule_ids.append(UNUSED_SUPPRESSION_RULE)
    try:
        findings = analyze(args.paths, rule_ids=rule_ids, profile=args.perf_profile)
        if args.baseline:
            findings = apply_baseline(
                findings, load_baseline(args.baseline), baseline_path=args.baseline
            )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.sarif:
        document = json.dumps(to_sarif(findings), indent=2)
        if args.sarif == "-":
            print(document)
        else:
            Path(args.sarif).write_text(document + "\n", encoding="utf-8")

    try:
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "findings": [finding.to_dict() for finding in findings],
                        "count": len(findings),
                    },
                    indent=2,
                )
            )
        else:
            for finding in findings:
                print(finding.format_text())
            noun = "finding" if len(findings) == 1 else "findings"
            print(f"{len(findings)} {noun}")
    except BrokenPipeError:
        # reader (e.g. `| head`) closed the pipe — the verdict still stands
        sys.stderr.close()
    threshold = _SEVERITY_RANK[args.fail_on]
    failing = [
        f for f in findings if _SEVERITY_RANK.get(severity_of(f.rule), 2) >= threshold
    ]
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

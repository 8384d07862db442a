"""Checked-in findings baseline: accepted debt, tracked and self-cleaning.

A baseline file is a JSON list of entries, each identifying one accepted
finding by ``(path, rule, message)`` — deliberately *not* by line number,
so unrelated edits do not churn the file.  Applying a baseline:

* drops findings the baseline accepts, and
* reports every baseline entry that matched nothing as a **U001** finding
  (stale accepted debt must be deleted, for the same reason unused inline
  suppressions must be) — the baseline can only shrink, never silently
  rot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .findings import Finding

_KEY_FIELDS = ("path", "rule", "message")


def baseline_entry(finding: Finding) -> dict[str, str]:
    """The baseline representation of one finding."""
    return {
        "path": Path(finding.path).as_posix(),
        "rule": finding.rule,
        "message": finding.message,
    }


def _key(entry: dict) -> tuple[str, str, str]:
    return tuple(str(entry.get(field, "")) for field in _KEY_FIELDS)  # type: ignore[return-value]


def load_baseline(path: str | Path) -> list[dict]:
    """Parse a baseline file; raises ValueError on a malformed document."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(raw, dict):
        raw = raw.get("findings", [])
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise ValueError(f"baseline {path}: expected a JSON list of objects")
    return raw


def apply_baseline(
    findings: Iterable[Finding], entries: list[dict], *, baseline_path: str
) -> list[Finding]:
    """Findings minus accepted entries, plus U001 for stale entries."""
    entries_by_key: dict[tuple[str, str, str], dict] = {
        _key(entry): entry for entry in entries
    }
    matched: set[tuple[str, str, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        key = _key(baseline_entry(finding))
        if key in entries_by_key:
            matched.add(key)
        else:
            kept.append(finding)
    for key, entry in entries_by_key.items():
        if key in matched:
            continue
        kept.append(
            Finding(
                path=baseline_path,
                line=1,
                col=0,
                rule="U001",
                message=(
                    f"stale baseline entry: {entry.get('rule', '?')} at "
                    f"{entry.get('path', '?')} no longer fires — delete it"
                ),
            )
        )
    return sorted(kept, key=Finding.sort_key)

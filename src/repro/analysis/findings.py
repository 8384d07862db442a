"""The finding schema: one :class:`Rule` record per registered rule and one
:class:`Finding` per diagnostic, file/line/column precise."""

from __future__ import annotations

import dataclasses
from typing import Any


@dataclasses.dataclass(frozen=True, slots=True)
class Finding:
    """A single rule violation at a precise source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclasses.dataclass(frozen=True, slots=True)
class Rule:
    """Registry metadata for one rule of any family (checks live elsewhere)."""

    id: str
    #: display family in the README rule table (``lint``, ``taint``, ...)
    family: str
    summary: str
    rationale: str
    #: ``error`` | ``warning`` | ``note`` — drives the SARIF level and the
    #: ``--fail-on`` exit-code contract.
    severity: str = "error"

"""The repo-clean gate, shared by every family's repo-level assertions.

One full CLI run over ``src`` with the checked-in baseline, exactly as
``make lint`` and ``scripts/check.sh`` run it, computed once per session.
"""

import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclasses.dataclass(frozen=True)
class RepoRun:
    exit_code: int
    findings: list[dict]
    sarif: dict

    def findings_of(self, rule_ids) -> list[dict]:
        return [f for f in self.findings if f["rule"] in set(rule_ids)]


@pytest.fixture(scope="session")
def repo_run(tmp_path_factory) -> RepoRun:
    sarif = tmp_path_factory.mktemp("repo_run") / "repo.sarif"
    out = io.StringIO()
    with contextlib.chdir(REPO_ROOT), contextlib.redirect_stdout(out):
        exit_code = main(
            [
                "--baseline",
                "scripts/analysis_baseline.json",
                "--fail-on",
                "warning",
                "--format",
                "json",
                "--sarif",
                str(sarif),
                "src",
            ]
        )
    return RepoRun(
        exit_code,
        json.loads(out.getvalue())["findings"],
        json.loads(sarif.read_text(encoding="utf-8")),
    )

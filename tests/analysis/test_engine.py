"""Engine behaviour: suppressions, discovery, CLI formats, repo cleanliness."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze, lint_source, suppressed_rules
from repro.analysis.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSuppression:
    def test_allow_marker_suppresses_named_rule(self):
        source = "import random  # repro: allow[D002]\n"
        assert not lint_source(source)

    def test_allow_marker_is_rule_specific(self):
        source = "import random  # repro: allow[D001]\n"
        found = lint_source(source)
        assert [f.rule for f in found] == ["D002"]

    def test_allow_marker_multiple_rules(self):
        source = textwrap.dedent(
            """
            import random  # repro: allow[D001, D002]
            """
        )
        assert not lint_source(source)

    def test_allow_marker_only_applies_to_its_line(self):
        source = textwrap.dedent(
            """
            # repro: allow[D002]
            import random
            """
        )
        assert [f.rule for f in lint_source(source)] == ["D002"]

    def test_suppressed_rules_map(self):
        source = "x = 1  # repro: allow[D003,W001]\ny = 2\n"
        assert suppressed_rules(source) == {1: {"D003", "W001"}}


class TestEngine:
    def test_syntax_error_reported_as_finding(self):
        found = lint_source("def broken(:\n", path="bad.py")
        assert len(found) == 1
        assert found[0].rule == "E999"
        assert found[0].path == "bad.py"

    def test_rule_selection(self):
        source = "import random\nx = {1} == {2}\n"
        only_d002 = lint_source(source, rule_ids=["D002"])
        assert [f.rule for f in only_d002] == ["D002"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(KeyError):
            lint_source("x = 1\n", rule_ids=["D999"])

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "bad.py").write_text("import random\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("import random\n")
        found = analyze([tmp_path])
        assert [Path(f.path).name for f in found] == ["bad.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            analyze(["/no/such/path/anywhere"])


class TestRepoIsClean:
    def test_src_passes_all_rules(self, repo_run):
        """The repo's central invariant: the simulation tree lints clean."""
        assert repo_run.findings == []


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        assert cli_main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_nonzero_text(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\n")
        assert cli_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "D002" in out and "bad.py:1:" in out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import random\n")
        assert cli_main(["--format=json", str(target)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "D002"
        assert payload["findings"][0]["line"] == 1

    def test_list_rules(self, capsys):
        assert cli_main(["--rules-md"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D001", "D002", "D003", "D004", "D005", "W001"):
            assert rule_id in out

    def test_module_entrypoint_runs(self, tmp_path):
        """``python -m repro.analysis <clean file>`` exits 0."""
        target = tmp_path / "ok.py"
        target.write_text("x = 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(target)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr

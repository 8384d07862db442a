"""The shared single-parse path: the driver's one parse feeds every family."""

import textwrap

from repro.analysis import analyze, lint_source


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestParsedEquivalence:
    def test_lint_with_shared_parse_matches_cold_parse(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """
            import time


            def stamp():
                return time.time()
            """,
        )
        cold = lint_source(path.read_text(encoding="utf-8"), str(path))
        warm = analyze([tmp_path])
        assert warm == cold
        assert warm, "fixture should produce at least one finding"

    def test_syntax_error_file_still_reported_with_shared_parse(self, tmp_path):
        write(tmp_path, "broken.py", "def oops(:\n")
        findings = analyze([tmp_path])
        assert [f.rule for f in findings] == ["E999"]

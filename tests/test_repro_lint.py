"""Tests for the ``tools.repro_lint`` static analyzer.

The fixture corpus under ``tests/lint_fixtures/`` is self-describing:
each file carries a ``# repro-lint-fixture: path=...`` header giving the
virtual repo path it should be linted as, and bad fixtures add an
``# expect: REPxxx:LINE ...`` header listing every expected violation.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint import RULES, json_report, lint_paths, lint_source
from tools.repro_lint.__main__ import main
from tools.repro_lint.report import REPORT_SCHEMA

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = Path(__file__).resolve().parent / "lint_fixtures"

_FIXTURE_PATH_RE = re.compile(r"#\s*repro-lint-fixture:\s*path=(\S+)")
_EXPECT_RE = re.compile(r"#\s*expect:\s*(.+)")


def _load_fixture(fixture: Path):
    """Return (source, virtual_path, expected [(rule, line), ...])."""
    source = fixture.read_text(encoding="utf-8")
    path_match = _FIXTURE_PATH_RE.search(source)
    assert path_match, f"{fixture.name} lacks a repro-lint-fixture header"
    expected = []
    expect_match = _EXPECT_RE.search(source)
    if expect_match:
        for token in expect_match.group(1).split():
            rule_id, line = token.split(":")
            expected.append((rule_id, int(line)))
    return source, path_match.group(1), sorted(expected)


def _fixture_files():
    files = sorted(FIXTURE_DIR.glob("*.py"))
    assert files, "fixture corpus is empty"
    return files


@pytest.mark.parametrize(
    "fixture", _fixture_files(), ids=lambda p: p.name
)
def test_fixture_matches_expectations(fixture):
    source, virtual_path, expected = _load_fixture(fixture)
    result = lint_source(source, virtual_path)
    assert not result.errors
    got = sorted((v.rule_id, v.line) for v in result.violations)
    assert got == expected


def test_every_rule_has_fixture_coverage():
    """Each registered rule needs a bad and a good fixture, and the bad
    fixture must actually expect at least one violation of that rule."""
    for rule_id in RULES:
        stem = rule_id.lower()
        bad = FIXTURE_DIR / f"{stem}_bad.py"
        good = FIXTURE_DIR / f"{stem}_good.py"
        assert bad.exists(), f"missing bad fixture for {rule_id}"
        assert good.exists(), f"missing good fixture for {rule_id}"
        _, _, expected = _load_fixture(bad)
        assert any(rid == rule_id for rid, _ in expected), (
            f"{bad.name} does not expect any {rule_id} violation"
        )
        _, _, good_expected = _load_fixture(good)
        assert good_expected == [], f"{good.name} must expect no violations"


def test_rule_ids_are_canonical():
    for rule_id, rule in RULES.items():
        assert rule.id == rule_id
        assert re.fullmatch(r"REP\d{3}", rule_id)
        assert rule.title
        assert rule.rationale


class TestSuppression:
    SOURCE = (
        "def f(x: float) -> bool:\n"
        "    return x == 0.0  # repro-lint: disable=REP004\n"
    )

    def test_matching_id_suppresses_and_counts(self):
        result = lint_source(self.SOURCE, "src/repro/ml/demo.py")
        assert result.violations == []
        assert result.suppressed == 1
        assert result.exit_code == 0

    def test_wrong_id_does_not_suppress(self):
        source = self.SOURCE.replace("REP004", "REP001")
        result = lint_source(source, "src/repro/ml/demo.py")
        assert [v.rule_id for v in result.violations] == ["REP004"]
        assert result.suppressed == 0
        assert result.exit_code == 1

    def test_multiple_ids_in_one_comment(self):
        source = (
            "def f(x, acc=[]):  # repro-lint: disable=REP005, REP006\n"
            "    return acc\n"
        )
        result = lint_source(source, "src/repro/ml/demo.py")
        assert result.violations == []
        assert result.suppressed >= 2

    def test_suppression_fixture_round_trip(self):
        source, virtual_path, expected = _load_fixture(
            FIXTURE_DIR / "suppression.py"
        )
        result = lint_source(source, virtual_path)
        assert sorted((v.rule_id, v.line) for v in result.violations) == expected
        assert result.suppressed == 1


class TestScoping:
    def test_wall_clock_allowed_in_telemetry(self):
        source = "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"
        assert lint_source(source, "src/repro/telemetry/core.py").violations == []
        flagged = lint_source(source, "src/repro/dram/cells.py")
        assert [v.rule_id for v in flagged.violations] == ["REP002"]

    def test_annotations_not_required_outside_src_repro(self):
        source = "def helper(x):\n    return x\n"
        assert lint_source(source, "tests/test_demo.py").violations == []
        flagged = lint_source(source, "src/repro/core/config.py")
        assert {v.rule_id for v in flagged.violations} == {"REP006"}

    def test_annotations_required_in_serving(self):
        # The serving package ships typed request/response dataclasses;
        # REP006 must keep covering it as it grows.
        source = "def helper(x):\n    return x\n"
        flagged = lint_source(source, "src/repro/serving/service.py")
        assert {v.rule_id for v in flagged.violations} == {"REP006"}

    def test_syntax_error_is_reported_not_raised(self):
        result = lint_source("def broken(:\n", "src/repro/oops.py")
        assert result.errors and result.errors[0].path == "src/repro/oops.py"
        assert result.exit_code == 2


class TestJsonReport:
    def _report(self):
        source, virtual_path, _ = _load_fixture(FIXTURE_DIR / "rep004_bad.py")
        result = lint_source(source, virtual_path)
        return json_report(result, ["src"])

    def test_schema_and_key_order_are_stable(self):
        report = self._report()
        assert report["schema"] == REPORT_SCHEMA
        assert list(report) == [
            "schema", "tool", "paths", "rules", "summary", "violations",
            "errors",
        ]
        assert report["tool"]["name"] == "repro-lint"
        assert list(report["summary"]) == [
            "files_checked", "violations", "suppressed", "errors", "counts",
            "exit_code",
        ]

    def test_counts_cover_every_rule(self):
        report = self._report()
        assert list(report["summary"]["counts"]) == sorted(RULES)
        assert report["summary"]["counts"]["REP004"] == 3
        assert report["summary"]["counts"]["REP001"] == 0

    def test_report_is_deterministic_and_serializable(self):
        first = json.dumps(self._report())
        second = json.dumps(self._report())
        assert first == second
        for violation in self._report()["violations"]:
            assert list(violation) == ["rule", "path", "line", "col", "message"]


class TestCli:
    def test_clean_file_exits_zero(self, capsys):
        code = main([str(FIXTURE_DIR / "rep001_good.py")])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_bad_file_exits_one_with_rule_id(self, capsys):
        code = main([str(FIXTURE_DIR / "rep005_bad.py")])
        assert code == 1
        out = capsys.readouterr().out
        assert "REP005" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_json_output_writes_report(self, tmp_path, capsys):
        # REP005 applies everywhere, so the fixture violates even when
        # linted under its real on-disk path (scoped rules like REP002
        # only fire under the fixture's virtual src/repro path).
        target = tmp_path / "report.json"
        code = main(
            [
                str(FIXTURE_DIR / "rep005_bad.py"),
                "--format", "json",
                "--json-output", str(target),
            ]
        )
        assert code == 1
        on_disk = json.loads(target.read_text(encoding="utf-8"))
        printed = json.loads(capsys.readouterr().out)
        assert on_disk == printed
        assert on_disk["summary"]["counts"]["REP005"] == 3

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "REP001" in proc.stdout


def test_repository_is_lint_clean():
    """The acceptance gate: the repo's own code passes its own linter."""
    result = lint_paths(
        [str(REPO_ROOT / part)
         for part in ("src", "tests", "benchmarks", "examples")]
    )
    assert not result.errors
    assert result.violations == [], "\n".join(
        f"{v.path}:{v.line}: {v.rule_id} {v.message}" for v in result.violations
    )
    assert result.files_checked > 50

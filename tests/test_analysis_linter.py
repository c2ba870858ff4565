"""The determinism linter: rules, suppression, reports, CLI exit codes.

Every rule id has a bad/good fixture pair under ``tests/fixtures/lint``;
the bad file must produce at least one finding of exactly that rule and
the good file must be clean. The source tree itself must lint clean —
that is the invariant the CI ``lint`` job enforces.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, render_json, render_text
from repro.analysis.linter import is_suppressed, lint_source, noqa_map, suppressed_ids
from repro.analysis.rules import all_rules, get_rule, rule_ids
from repro.experiments.runner import main as bgpbench

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
RULE_IDS = ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007")


def lint_fixture(name: str):
    path = FIXTURES / name
    return lint_source(str(path), path.read_text())


class TestRegistry:
    def test_every_rule_registered_once(self):
        assert rule_ids() == list(RULE_IDS)

    def test_rules_carry_docstring_and_severity(self):
        for rule in all_rules():
            assert rule.__doc__ and rule.rule_id in rule.__doc__
            assert rule.severity in ("error", "warning")

    def test_get_rule_rejects_unknown_id(self):
        with pytest.raises(KeyError):
            get_rule("RPR999")


class TestFixtures:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_triggers_its_rule(self, rule_id):
        findings, _ = lint_fixture(f"{rule_id.lower()}_bad.py")
        assert {f.rule_id for f in findings} == {rule_id}
        for finding in findings:
            assert finding.line > 0
            assert rule_id in finding.render()

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        findings, _ = lint_fixture(f"{rule_id.lower()}_good.py")
        assert findings == []


class TestSuppression:
    def test_blanket_noqa_suppresses_everything(self):
        assert suppressed_ids("x = 1  # repro: noqa") == frozenset()
        findings, suppressed = lint_source(
            "t.py", "import time\nnow = time.time()  # repro: noqa\n"
        )
        assert findings == []
        assert suppressed == 1

    def test_targeted_noqa_suppresses_only_named_rules(self):
        assert suppressed_ids("# repro: noqa[RPR001, RPR005]") == frozenset(
            {"RPR001", "RPR005"}
        )
        source = "import time\nnow = time.time()  # repro: noqa[RPR002]\n"
        findings, suppressed = lint_source("t.py", source)
        assert [f.rule_id for f in findings] == ["RPR001"]
        assert suppressed == 0

    def test_line_without_noqa(self):
        assert suppressed_ids("now = time.time()") is None

    def test_noqa_inside_string_literal_does_not_suppress(self):
        # Regression: the old per-line regex treated noqa text inside a
        # string literal as a suppression; only real comments count.
        source = 'import time\nnow = (time.time(), "# repro: noqa")\n'
        findings, suppressed = lint_source("t.py", source)
        assert [f.rule_id for f in findings] == ["RPR001"]
        assert suppressed == 0

    def test_noqa_inside_docstring_does_not_suppress(self):
        source = (
            "import time\n"
            "def f():\n"
            '    "uses # repro: noqa[RPR001] syntax"\n'
            "    return time.time()\n"
        )
        findings, _ = lint_source("t.py", source)
        assert [f.rule_id for f in findings] == ["RPR001"]

    def test_noqa_map_only_records_comment_tokens(self):
        source = (
            'text = "# repro: noqa"\n'
            "x = 1  # repro: noqa\n"
            "y = 2  # repro: noqa[RPR003]\n"
        )
        noqa = noqa_map(source)
        assert set(noqa) == {2, 3}
        assert noqa[2] == frozenset()
        assert noqa[3] == frozenset({"RPR003"})

    def test_noqa_map_falls_back_on_untokenizable_source(self):
        # Unterminated string: tokenize raises, the per-line scan kicks in.
        noqa = noqa_map('x = "unclosed\ny = 1  # repro: noqa\n')
        assert 2 in noqa

    def test_is_suppressed_matches_rule_and_line(self):
        from repro.analysis.rules import Finding

        finding = Finding(
            path="t.py", line=3, col=0, rule_id="RPR001", message="m", severity="error"
        )
        assert is_suppressed(finding, {3: frozenset()})
        assert is_suppressed(finding, {3: frozenset({"RPR001"})})
        assert not is_suppressed(finding, {3: frozenset({"RPR002"})})
        assert not is_suppressed(finding, {4: frozenset()})


class TestPrintRule:
    def test_library_print_flagged(self):
        findings, _ = lint_source("lib.py", "print('hello')\n")
        assert [f.rule_id for f in findings] == ["RPR007"]

    def test_cli_marker_exempts_module(self):
        findings, _ = lint_source(
            "cli.py", "# repro: cli — entry point\nprint('hello')\n"
        )
        assert findings == []

    def test_targeted_noqa_suppresses_print(self):
        findings, _ = lint_source("lib.py", "print('x')  # repro: noqa[RPR007]\n")
        assert findings == []

    def test_print_method_not_flagged(self):
        findings, _ = lint_source("lib.py", "console.print('x')\n")
        assert findings == []


class TestReports:
    def test_source_tree_lints_clean(self):
        report = lint_paths()
        assert report.ok, render_text(report)
        assert report.files_scanned > 50

    def test_json_report_shape(self):
        report = lint_paths([FIXTURES / "rpr001_bad.py"])
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts_by_rule"] == {"RPR001": 3}
        first = payload["findings"][0]
        assert first["rule_id"] == "RPR001"
        assert first["path"].endswith("rpr001_bad.py")

    def test_select_restricts_rules(self):
        report = lint_paths([FIXTURES], select=["RPR004"])
        assert set(report.counts_by_rule()) == {"RPR004"}
        with pytest.raises(ValueError):
            lint_paths([FIXTURES], select=["RPR999"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_paths([bad])
        assert not report.ok
        assert report.parse_errors and "broken.py" in report.parse_errors[0]

    def test_default_paths_cover_installed_package(self):
        report = lint_paths()
        package_root = Path(repro.__file__).resolve().parent
        assert report.files_scanned == len(
            [
                p
                for p in package_root.rglob("*.py")
                if "__pycache__" not in p.parts
            ]
        )


class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert bgpbench(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_bad_fixture_exits_nonzero(self, capsys):
        code = bgpbench(["lint", str(FIXTURES / "rpr002_bad.py")])
        assert code == 1
        assert "RPR002" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        assert bgpbench(["lint", "--format", "json", str(FIXTURES / "rpr005_bad.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"RPR005": 1}

    def test_lint_unknown_select_exits_two(self, capsys):
        assert bgpbench(["lint", "--select", "RPR999"]) == 2
        assert "unknown rule ids" in capsys.readouterr().err

    def test_lint_missing_path_exits_two(self, tmp_path, capsys):
        # Exit 1 means "findings"; a path that cannot be read is a usage
        # error, one line naming it.
        missing = tmp_path / "no" / "such.py"
        assert bgpbench(["lint", str(missing)]) == 2
        assert capsys.readouterr().err == f"lint: {missing}: No such file or directory\n"

    def test_lint_non_text_file_exits_two(self, tmp_path, capsys):
        binary = tmp_path / "blob.py"
        binary.write_bytes(b"\xff\xfe\x00")
        assert bgpbench(["lint", str(binary)]) == 2
        assert capsys.readouterr().err.startswith(f"lint: {binary}: not UTF-8 text")

    def test_whole_program_flow_lint_is_gone(self, capsys):
        # The flow rules (RPR101-104) and their flags were deleted; the
        # fork-safety contract they checked is a runtime test now
        # (tests/test_layering.py).
        with pytest.raises(SystemExit) as raised:
            bgpbench(["lint", "--flow"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --flow" in capsys.readouterr().err
        assert bgpbench(["lint", "--select", "RPR101"]) == 2
        assert "unknown rule ids: ['RPR101']" in capsys.readouterr().err

    def test_list_rules_names_every_rule(self, capsys):
        assert bgpbench(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out
        assert "RPR1" not in out

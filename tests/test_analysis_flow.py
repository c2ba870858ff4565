"""The whole-program flow analysis: call graph, taint, census,
baseline, SARIF, CLI.

Every RPR10x rule has a bad/good fixture pair under
``tests/fixtures/flow``; the bad file must produce at least one finding
of exactly that rule and the good twin must be clean. Fixtures are
checked through the flow pass only — they deliberately contain the raw
patterns (wall-clock reads, module caches) the per-module linter would
also flag, which is the point: the flow rules catch the *cross-function*
shape. The source tree plus the committed baseline must come out clean —
the invariant the CI ``lint --flow`` step enforces.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.flow import (
    DEFAULT_BASELINE,
    FLOW_RULES,
    analyze_paths,
    finding_key,
    flow_rule_ids,
    load_baseline,
    render_flow_json,
    render_flow_text,
    save_baseline,
)
from repro.analysis.flow.baseline import apply_baseline, normalize_path
from repro.analysis.flow.callgraph import (
    ProjectGraph,
    module_name_for,
    resolve_relative,
)
from repro.analysis.flow.sarif import to_sarif
from repro.analysis.flow.taint import tainted_functions
from repro.analysis.linter import noqa_map
from repro.analysis.rules import Finding
from repro.experiments.runner import main as bgpbench

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
FLOW_RULE_IDS = ("RPR101", "RPR102", "RPR103", "RPR104")
REPO_ROOT = Path(__file__).parent.parent
#: A well-formed flow-baseline entry.
ENTRY = {"rule_id": "RPR102", "path": "x.py", "message": "m"}


def without(entry: dict, field: str) -> dict:
    return {key: value for key, value in entry.items() if key != field}


def analyze_fixture(name: str):
    return analyze_paths([FIXTURES / name])


def build_project(tmp_path: Path, files: "dict[str, str]") -> ProjectGraph:
    """Materialise a {relative path: source} project and build its graph."""
    paths = []
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    return ProjectGraph.build(sorted(paths))


class TestFixtures:
    @pytest.mark.parametrize("rule_id", FLOW_RULE_IDS)
    def test_bad_fixture_triggers_its_rule(self, rule_id):
        report = analyze_fixture(f"{rule_id.lower()}_bad.py")
        assert {f.rule_id for f in report.findings} == {rule_id}
        for finding in report.findings:
            assert finding.line > 0
            assert rule_id in finding.render()

    @pytest.mark.parametrize("rule_id", FLOW_RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        report = analyze_fixture(f"{rule_id.lower()}_good.py")
        assert report.findings == [], render_flow_text(report)

    def test_rpr101_message_names_source_and_sink(self):
        report = analyze_fixture("rpr101_bad.py")
        message = report.findings[0].message
        assert "time.time" in message
        assert ".schedule" in message

    def test_rpr102_message_names_entry_point(self):
        report = analyze_fixture("rpr102_bad.py")
        assert "run_cell()" in report.findings[0].message

    def test_rpr102_shard_entry_is_a_reachability_root(self):
        """The parallel engine's shard process entry (``_shard_main``)
        counts as a worker entry point for the shared-state census."""
        report = analyze_fixture("rpr102_shard_bad.py")
        assert {f.rule_id for f in report.findings} == {"RPR102"}
        assert "_shard_main()" in report.findings[0].message
        assert "_link_seq" in report.findings[0].message

    def test_rpr102_shard_good_twin_is_clean(self):
        report = analyze_fixture("rpr102_shard_good.py")
        assert report.findings == [], render_flow_text(report)


class TestCallGraph:
    def test_module_names_follow_package_layout(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "mod.py").write_text("")
        assert module_name_for(tmp_path / "pkg" / "mod.py") == "pkg.mod"
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"
        assert module_name_for(tmp_path / "loose.py") == "loose"

    def test_import_alias_resolves_to_project_edge(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/util.py": "def helper():\n    return 1\n",
                "pkg/app.py": (
                    "from pkg.util import helper as h\n"
                    "def main():\n"
                    "    return h()\n"
                ),
            },
        )
        assert graph.calls["pkg.app.main"] == {"pkg.util.helper"}

    def test_relative_import_resolves_to_project_edge(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/util.py": "def helper():\n    return 1\n",
                "pkg/sub/__init__.py": "",
                "pkg/sub/app.py": (
                    "from ..util import helper\n"
                    "def main():\n"
                    "    return helper()\n"
                ),
            },
        )
        assert graph.calls["pkg.sub.app.main"] == {"pkg.util.helper"}

    def test_package_reexport_resolves_to_project_edge(self, tmp_path):
        # The grid imports run_scenario from repro.benchmark, not from
        # repro.benchmark.harness; without this edge no worker reached
        # the scenario path at all.
        graph = build_project(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.util import helper\n",
                "pkg/util.py": "def helper():\n    return 1\n",
                "app.py": (
                    "from pkg import helper\n"
                    "import pkg\n"
                    "def main():\n"
                    "    return helper() + pkg.helper()\n"
                ),
            },
        )
        assert graph.calls["app.main"] == {"pkg.util.helper"}
        assert graph.external["app.main"] == set()

    def test_resolve_relative_handles_levels(self):
        import ast

        node = ast.parse("from ..util import helper").body[0]
        assert resolve_relative("pkg.sub.app", False, node) == "pkg.util"
        node = ast.parse("from . import util").body[0]
        assert resolve_relative("pkg.app", False, node) == "pkg"
        node = ast.parse("from ....nope import x").body[0]
        assert resolve_relative("pkg.app", False, node) is None

    def test_self_method_call_resolves_within_class(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "mod.py": """
                class Engine:
                    def step(self):
                        return self.advance()

                    def advance(self):
                        return 1
                """
            },
        )
        assert graph.calls["mod.Engine.step"] == {"mod.Engine.advance"}

    def test_unresolved_attribute_call_is_virtual(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "mod.py": (
                    "def drive(router):\n"
                    "    return router.process_packet()\n"
                    "def process_packet():\n"
                    "    return 1\n"
                )
            },
        )
        assert graph.virtual["mod.drive"] == {"process_packet"}

    def test_external_call_resolves_dotted_path(self, tmp_path):
        graph = build_project(
            tmp_path,
            {"mod.py": "import time\ndef now():\n    return time.monotonic()\n"},
        )
        assert "time.monotonic" in graph.external["mod.now"]

    def test_reachability_crosses_virtual_dispatch(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "mod.py": (
                    "def run_cell(spec):\n"
                    "    return spec.execute()\n"
                    "def execute():\n"
                    "    return 1\n"
                    "def unrelated():\n"
                    "    return 2\n"
                )
            },
        )
        assert graph.entry_points() == ["mod.run_cell"]
        reached = graph.reachable_from(graph.entry_points())
        assert "mod.execute" in reached
        assert "mod.unrelated" not in reached
        without = graph.reachable_from(graph.entry_points(), virtual_dispatch=False)
        assert "mod.execute" not in without


class TestTaint:
    def test_taint_propagates_through_two_helpers(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "mod.py": """
                import time

                def raw():
                    return time.time()

                def laundered():
                    return raw() * 2

                def arm(sim):
                    sim.schedule(laundered(), "tick")
                """
            },
        )
        noqa = {name: noqa_map(info.source) for name, info in graph.modules.items()}
        tainted = tainted_functions(graph, noqa)
        assert "mod.raw" in tainted
        assert "mod.laundered" in tainted
        from repro.analysis.flow.taint import check_taint

        findings = check_taint(graph, noqa)
        assert [f.rule_id for f in findings] == ["RPR101"]
        assert "mod.arm" in findings[0].message

    def test_sanctioned_source_does_not_root_taint(self, tmp_path):
        graph = build_project(
            tmp_path,
            {
                "mod.py": """
                import time

                def deadline():
                    return time.monotonic()  # repro: noqa[RPR001]

                def arm(sim):
                    sim.schedule(deadline(), "timeout")
                """
            },
        )
        noqa = {name: noqa_map(info.source) for name, info in graph.modules.items()}
        assert tainted_functions(graph, noqa) == {}


class TestBaseline:
    def make_finding(self, message="m", rule_id="RPR102"):
        return Finding(
            path="src/repro/bgp/attributes.py",
            line=10,
            col=0,
            rule_id=rule_id,
            message=message,
            severity="error",
        )

    def test_normalize_path_is_machine_independent(self):
        assert (
            normalize_path("/home/a/repo/src/repro/bgp/attributes.py")
            == "repro/bgp/attributes.py"
        )
        assert (
            normalize_path("C:\\work\\src\\repro\\grid\\cells.py")
            == "repro/grid/cells.py"
        )
        assert normalize_path("tests/fixtures/flow/rpr101_bad.py") == (
            "flow/rpr101_bad.py"
        )

    def test_key_excludes_line_numbers(self):
        a = self.make_finding()
        b = Finding(
            path=a.path, line=99, col=7, rule_id=a.rule_id,
            message=a.message, severity="error",
        )
        assert finding_key(a) == finding_key(b)

    def test_save_load_round_trip(self, tmp_path):
        findings = [self.make_finding("one"), self.make_finding("two")]
        path = save_baseline(tmp_path / "b.json", findings)
        assert load_baseline(path) == {finding_key(f) for f in findings}

    def test_apply_baseline_splits_new_and_stale(self, tmp_path):
        kept = self.make_finding("kept")
        removed = self.make_finding("removed")
        fresh = self.make_finding("fresh")
        path = save_baseline(tmp_path / "b.json", [kept, removed])
        new, baselined, stale = apply_baseline([kept, fresh], load_baseline(path))
        assert new == [fresh]
        assert baselined == 1
        assert stale == [finding_key(removed)]

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_committed_baseline_matches_tree(self):
        """The repo invariant: the source tree, filtered through the
        committed baseline, produces zero new findings and no stale
        baseline entries."""
        report = analyze_paths(baseline_path=REPO_ROOT / DEFAULT_BASELINE)
        assert report.findings == [], render_flow_text(report)
        assert report.stale_baseline == []
        assert report.parse_errors == []
        assert report.baselined > 0  # the _cache_counters debt is pinned


class TestSarif:
    def test_log_shape_and_rule_metadata(self):
        report = analyze_fixture("rpr103_bad.py")
        log = to_sarif(report.findings)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-flow"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == list(FLOW_RULE_IDS)
        result = run["results"][0]
        assert result["ruleId"] == "RPR103"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] > 0 and region["startColumn"] > 0

    def test_rule_index_points_into_rules_array(self):
        report = analyze_fixture("rpr101_bad.py")
        log = to_sarif(report.findings)
        run = log["runs"][0]
        for result in run["results"]:
            index = result["ruleIndex"]
            assert run["tool"]["driver"]["rules"][index]["id"] == result["ruleId"]


class TestReport:
    def test_rule_registry_complete(self):
        assert flow_rule_ids() == list(FLOW_RULE_IDS)
        for rule in FLOW_RULES.values():
            assert rule.title and rule.rationale
            assert rule.severity in ("error", "warning")

    def test_json_report_shape(self):
        report = analyze_fixture("rpr102_bad.py")
        payload = json.loads(render_flow_json(report))
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"RPR102": 1}
        assert payload["findings"][0]["rule_id"] == "RPR102"

    def test_text_report_summarises(self):
        report = analyze_fixture("rpr104_bad.py")
        text = render_flow_text(report)
        assert "RPR104" in text
        assert "new finding(s)" in text

    def test_select_restricts_rules(self):
        report = analyze_paths([FIXTURES], select=["RPR103"])
        assert set(report.counts_by_rule()) == {"RPR103"}
        with pytest.raises(ValueError):
            analyze_paths([FIXTURES], select=["RPR999"])

    def test_line_noqa_suppresses_flow_finding(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "_cache = {}\n"
            "def run_cell(spec):\n"
            "    _cache[spec] = spec  # repro: noqa[RPR102]\n"
        )
        report = analyze_paths([bad])
        assert report.findings == []
        assert report.suppressed == 1

    def test_binding_noqa_exempts_global_wholesale(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "_cache = {}  # repro: noqa[RPR102]\n"
            "def run_cell(spec):\n"
            "    _cache[spec] = spec\n"
        )
        report = analyze_paths([bad])
        assert report.findings == []


class TestCli:
    def test_flow_bad_fixture_exits_nonzero(self, capsys):
        code = bgpbench(["lint", "--flow", str(FIXTURES / "rpr102_bad.py")])
        assert code == 1
        assert "RPR102" in capsys.readouterr().out

    def test_flow_good_fixture_exits_zero(self, capsys):
        assert bgpbench(["lint", "--flow", str(FIXTURES / "rpr102_good.py")]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_flow_update_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fixture = str(FIXTURES / "rpr103_bad.py")
        assert (
            bgpbench(
                ["lint", "--flow", fixture, "--baseline", str(baseline), "--update-baseline"]
            )
            == 0
        )
        assert baseline.exists()
        capsys.readouterr()
        assert bgpbench(["lint", "--flow", fixture, "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "payload, named",
        [
            ([], "not a JSON object"),
            ({"version": 1}, "'findings'"),
            ({"version": 1, "findings": [1]}, "findings[0]"),
            *[
                (
                    {"version": 1, "findings": [ENTRY, without(ENTRY, field)]},
                    f"findings[1] has no {field!r}",
                )
                for field in ENTRY
            ],
        ],
        ids=["top-level-list", "no-findings", "non-object-entry",
             "no-rule_id", "no-path", "no-message"],
    )
    def test_malformed_baseline_is_one_error_line(self, tmp_path, capsys, payload, named):
        baseline = tmp_path / "bad.json"
        baseline.write_text(json.dumps(payload))
        code = bgpbench(
            ["lint", "--flow", str(FIXTURES / "rpr102_good.py"), "--baseline", str(baseline)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("lint: flow baseline ") and err.count("\n") == 1
        assert str(baseline) in err and named in err

    def test_flow_sarif_written(self, tmp_path, capsys):
        sarif = tmp_path / "out.sarif"
        bgpbench(["lint", "--flow", str(FIXTURES / "rpr104_bad.py"), "--sarif", str(sarif)])
        capsys.readouterr()
        log = json.loads(sarif.read_text())
        assert log["runs"][0]["results"]

    def test_flow_json_format(self, capsys):
        code = bgpbench(
            ["lint", "--flow", "--format", "json", str(FIXTURES / "rpr101_bad.py")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts_by_rule"] == {"RPR101": 1}

    def test_list_rules_names_flow_rules(self, capsys):
        assert bgpbench(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in FLOW_RULE_IDS:
            assert rule_id in out

"""The runner, the CLI, golden diagnostics over the fixture projects,
JSON schema stability (the CI contract), and the no-second-parse
guarantee."""

import json
import os

import pytest

import repro.cm.depend as depend
from repro.analysis import SCHEMA, Severity, analyze_project
from repro.analysis.__main__ import main as analysis_main
from repro.cm import CutoffBuilder, Project
from repro.cm.__main__ import main as cm_main

HERE = os.path.dirname(__file__)
REPO = os.path.dirname(os.path.dirname(HERE))
LINT_DEMO = os.path.join(REPO, "examples", "lint_demo")
CLEAN = os.path.join(HERE, "fixtures", "clean")
GOLDEN = os.path.join(HERE, "golden", "lint_demo.txt")


class TestGoldenDiagnostics:
    """Self-lint over the repo's fixture projects (the CI gate)."""

    def test_lint_demo_matches_golden_output(self, capsys):
        assert analysis_main([LINT_DEMO]) == 0
        with open(GOLDEN) as f:
            expected = f.read()
        assert capsys.readouterr().out == expected

    def test_lint_demo_reports_all_six_codes_with_spans(self, capsys):
        assert analysis_main([LINT_DEMO, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"SC001", "SC002", "SC003", "SC004", "SC005",
                "SC006"} <= codes
        for diag in payload["diagnostics"]:
            assert diag["line"] >= 1 and diag["col"] >= 1

    def test_lint_demo_gated_under_strict(self, capsys):
        assert analysis_main([LINT_DEMO, "--strict"]) == 1

    def test_clean_fixture_passes_strict(self, capsys):
        assert analysis_main([CLEAN, "--strict"]) == 0
        assert "no diagnostics" in capsys.readouterr().out


class TestJsonSchemaStability:
    """CI parses this output; its key sets must not drift silently."""

    def payload(self, capsys, target=LINT_DEMO):
        assert analysis_main([target, "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_top_level_keys(self, capsys):
        payload = self.payload(capsys)
        assert list(payload) == ["schema", "project", "diagnostics",
                                 "summary", "cascade"]
        assert payload["schema"] == SCHEMA == "smlint/1"

    def test_diagnostic_entry_keys(self, capsys):
        for entry in self.payload(capsys)["diagnostics"]:
            assert list(entry) == ["code", "severity", "unit", "line",
                                   "col", "end_line", "end_col",
                                   "message", "fix"]

    def test_summary_and_cascade_keys(self, capsys):
        payload = self.payload(capsys)
        assert list(payload["summary"]) == ["error", "warning", "info",
                                            "total"]
        assert list(payload["cascade"]) == ["ranking"]
        for entry in payload["cascade"]["ranking"]:
            assert list(entry) == ["unit", "direct_dependents",
                                   "transitive_dependents", "fan_in"]

    def test_clean_project_summary_is_complete(self, capsys):
        payload = self.payload(capsys, target=CLEAN)
        assert payload["summary"] == {"error": 0, "warning": 0,
                                      "info": 0, "total": 0}


class TestNoSecondParse:
    """The analyzer reuses the dependency pass's graph and memo: with a
    warm cache it performs zero parses, and after a build it parses
    only the sources whose trees the compiles took."""

    SOURCES = {
        "base": "structure Base = struct val v = 1 end",
        "app": "structure App = struct open Base val x = v end",
    }

    def count_parses(self, monkeypatch, module=depend):
        calls = {"n": 0}
        real = module.parse_program

        def counting(source):
            calls["n"] += 1
            return real(source)

        monkeypatch.setattr(module, "parse_program", counting)
        return calls

    def test_warm_cache_means_zero_parses(self, monkeypatch):
        project = Project.from_sources(self.SOURCES)
        calls = self.count_parses(monkeypatch)
        cache = {}
        depend.analyze(project, cache=cache)
        warm = calls["n"]
        assert warm == len(self.SOURCES)
        result = analyze_project(project, cache=cache)
        assert calls["n"] == warm
        assert {d.code for d in result.diagnostics} >= {"SC002", "SC003"}

    def test_builder_graph_reuse_means_zero_parses(self, monkeypatch):
        """Reusing the build's graph runs no dependency analysis.  The
        build parses each source once; each compile took its source's
        tree (it is the unit's code now), so the analyzer parses each
        compiled source once more, on first read."""
        from repro.units import pipeline

        project = Project.from_sources(self.SOURCES)
        parses = self.count_parses(monkeypatch)
        compile_parses = self.count_parses(monkeypatch, pipeline)
        builder = CutoffBuilder(project)
        report = builder.build()
        assert sorted(report.compiled) == sorted(self.SOURCES)
        assert parses["n"] == len(self.SOURCES)
        assert compile_parses["n"] == 0
        # Each compile reports the analysis parse that made its tree.
        assert all(o.times.parse > 0 for o in report.outcomes)

        analyses = {"n": 0}
        real_summarize = depend._summarize

        def summarize(*args):
            analyses["n"] += 1
            return real_summarize(*args)

        monkeypatch.setattr(depend, "_summarize", summarize)
        parses["n"] = 0
        result = analyze_project(project, graph=builder.last_graph,
                                 cache=builder._dep_cache)
        assert analyses["n"] == 0
        assert parses["n"] == len(report.compiled)
        assert compile_parses["n"] == 0
        assert result.cascade is not None
        assert {d.code for d in result.diagnostics} >= {"SC002", "SC003"}


class TestFailureDiagnostics:
    def test_cycle_becomes_sc000_with_concrete_path(self):
        project = Project.from_sources({
            "a": "structure A = struct val x = B.y end",
            "b": "structure B = struct val y = A.x end",
        })
        result = analyze_project(project)
        assert result.failed
        [diag] = result.diagnostics
        assert diag.code == "SC000"
        assert diag.severity is Severity.ERROR
        assert "a -> b -> a" in diag.message

    def test_parse_error_becomes_sc000(self):
        project = Project.from_sources(
            {"bad": "structure Bad = struct val x = ("})
        result = analyze_project(project)
        assert result.failed
        assert result.diagnostics[0].code == "SC000"

    def test_cli_exits_one_on_failure_without_strict(self, tmp_path,
                                                     capsys):
        (tmp_path / "a.sml").write_text(
            "structure A = struct val x = B.y end\n")
        (tmp_path / "b.sml").write_text(
            "structure B = struct val y = A.x end\n")
        assert analysis_main([str(tmp_path)]) == 1
        assert "SC000" in capsys.readouterr().out


class TestCliSurface:
    def test_bad_target(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path / "nope")]) == 2

    def test_empty_directory(self, tmp_path, capsys):
        assert analysis_main([str(tmp_path)]) == 2

    def test_unknown_rule_code(self, capsys):
        assert analysis_main([CLEAN, "--rules", "SC999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_rule_subset(self, capsys):
        assert analysis_main([LINT_DEMO, "--rules", "SC002",
                              "--no-cascade"]) == 0
        out = capsys.readouterr().out
        assert "SC002" in out
        assert "SC003" not in out
        assert "cascade" not in out

    def test_fail_on_error_relaxes_strict(self, capsys):
        # lint_demo has warnings but no errors.
        assert analysis_main([LINT_DEMO, "--strict",
                              "--fail-on", "error"]) == 0

    def test_cm_group_file_target(self, tmp_path, capsys):
        (tmp_path / "base.sml").write_text(
            "structure Base = struct val v = 1 end\n")
        (tmp_path / "app.sml").write_text(
            "structure App = struct open Base val x = v end\n")
        desc = tmp_path / "proj.cm"
        desc.write_text("group proj\nmembers\n  base.sml\n  app.sml\n")
        assert analysis_main([str(desc), "--strict"]) == 1
        assert "SC002" in capsys.readouterr().out


class TestBuildDriverIntegration:
    @pytest.fixture
    def dirty_dir(self, tmp_path):
        (tmp_path / "base.sml").write_text(
            "structure Base = struct val v = 1 end\n")
        (tmp_path / "app.sml").write_text(
            "structure App = struct open Base val x = v end\n")
        return str(tmp_path)

    def test_analyze_flag_reports_after_build(self, dirty_dir, capsys):
        assert cm_main([dirty_dir, "--analyze", "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "2 compiled" in out
        assert "SC002" in out

    def test_analyze_strict_gates_exit_code(self, dirty_dir, capsys):
        assert cm_main([dirty_dir, "--analyze", "--strict",
                        "--no-link"]) == 1

    def test_strict_without_analyze_changes_nothing(self, dirty_dir,
                                                    capsys):
        """``--strict`` only gates ``--analyze``: alone it is refused
        before anything is built."""
        with pytest.raises(SystemExit) as excinfo:
            cm_main([dirty_dir, "--strict", "--no-link"])
        assert excinfo.value.code == 2
        assert "--strict needs --analyze" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(dirty_dir, ".bin"))

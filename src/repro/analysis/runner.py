"""Top-level entry point: run all rules over a project.

:func:`analyze_project` is the one call everything else (the CLI, the
``--analyze`` build flag, tests) goes through.  It reuses an existing
dependency graph when the caller has one (e.g. a builder's
``last_graph``) and otherwise runs :func:`repro.cm.depend.analyze`
itself -- against the caller's dependency cache when provided.  The
rules read declarations from the graph, so a unit that dependency
analysis parsed in this process is not parsed again, and one whose
summary came from a bin header is parsed once, when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cascade import CascadeReport
from repro.analysis.context import AnalysisConfig, AnalysisContext
from repro.analysis.diagnostics import Diagnostic, Severity, Span
from repro.analysis.registry import run_rules
from repro.cm.depend import DependencyError, DepGraph, analyze
from repro.cm.project import Project
from repro.lang.errors import SourceError


@dataclass
class AnalysisResult:
    diagnostics: list[Diagnostic]
    cascade: CascadeReport | None = None
    graph: DepGraph | None = None
    config: AnalysisConfig = field(default_factory=AnalysisConfig)

    @property
    def failed(self) -> bool:
        """True when the project could not even be analyzed (SC000)."""
        return self.graph is None

    def gate(self, fail_on: Severity = Severity.WARNING) -> bool:
        """Should a --strict run fail?"""
        return any(d.severity >= fail_on for d in self.diagnostics)


def analyze_project(project: Project, graph: DepGraph | None = None,
                    cache: dict | None = None,
                    config: AnalysisConfig | None = None) -> AnalysisResult:
    """Run the static analyzer over ``project``.

    Args:
        project: the sources.
        graph: an already-built dependency graph (skips re-analysis).
        cache: a dependency cache to share with ``depend.analyze`` (a
            builder's ``_dep_cache``); with a cache warmed by parses in
            this process the analyzer performs no parsing at all.
        config: rule tunables and an optional rule-code subset.
    """
    config = config if config is not None else AnalysisConfig()
    if graph is None:
        try:
            graph = analyze(project, cache=cache)
        except DependencyError as err:
            return AnalysisResult(
                [_failure(f"dependency analysis failed: {err}")],
                config=config)
        except SourceError as err:
            return AnalysisResult(
                [_failure(f"parse failed: {err}",
                          Span(err.line or 1, err.col or 1))],
                config=config)
    ctx = AnalysisContext(project, graph, config)
    diagnostics = run_rules(ctx, config.codes)
    return AnalysisResult(diagnostics, cascade=ctx.cascade(), graph=graph,
                          config=config)


def _failure(message: str, span: Span | None = None) -> Diagnostic:
    return Diagnostic("SC000", Severity.ERROR, "<project>",
                      span if span is not None else Span(), message)

"""Shared analysis state handed to every rule.

The context wraps the project and an already-built
:class:`~repro.cm.depend.DepGraph` and memoizes everything rules need:

- parsed declarations come straight from ``graph.parsed``: what
  :func:`repro.cm.depend.analyze` parsed is reused, and a unit whose
  dependency summary came from a bin header is parsed on first read --
  the analyzer parses each unit at most once;
- token streams are lexed lazily, once per unit, purely to attach
  line/col spans to names (lexing is not parsing and is an order of
  magnitude cheaper);
- use/def sets come from one shared
  :class:`~repro.analysis.scopes.UseDefAnalysis` instance -- the same
  machinery the build's per-binding cutoff consumes -- so scope scans
  and the project-wide provider map are computed once for all rules;
- the cascade report is computed once from the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cascade import CascadeReport, cascade_report
from repro.analysis.diagnostics import Span
from repro.analysis.scopes import ScanResult, UseDefAnalysis
from repro.cm.depend import DepGraph
from repro.cm.project import Project
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind


@dataclass
class AnalysisConfig:
    """Tunables for the built-in rules.

    A unit is a *hot interface* (SC005) when its transitive-dependent
    count is at least ``hot_min_dependents`` and at least ``hot_ratio``
    of the other units in the project.
    """

    hot_min_dependents: int = 3
    hot_ratio: float = 0.5
    #: Run only these rule codes (None = all registered rules).
    codes: tuple[str, ...] | None = None


class AnalysisContext:
    def __init__(self, project: Project, graph: DepGraph,
                 config: AnalysisConfig | None = None):
        self.project = project
        self.graph = graph
        self.config = config if config is not None else AnalysisConfig()
        self._tokens: dict[str, list] = {}
        self._usedef: UseDefAnalysis | None = None
        self._cascade: CascadeReport | None = None

    @property
    def units(self) -> list[str]:
        return list(self.graph.order)

    def decs(self, unit: str):
        return self.graph.parsed[unit]

    def tokens(self, unit: str) -> list:
        toks = self._tokens.get(unit)
        if toks is None:
            toks = self._tokens[unit] = tokenize(self.project.source(unit))
        return toks

    def usedef(self) -> UseDefAnalysis:
        """The shared use/def analysis over the parsed project -- the
        same one the build's per-binding cutoff data comes from."""
        if self._usedef is None:
            self._usedef = UseDefAnalysis.of_graph(self.graph)
        return self._usedef

    def scan(self, unit: str) -> ScanResult:
        return self.usedef().scan(unit)

    def providers(self) -> dict[tuple[str, str], str]:
        """(ns, name) -> the unit whose top level defines it."""
        return self.usedef().providers()

    def cascade(self) -> CascadeReport:
        if self._cascade is None:
            self._cascade = cascade_report(self.graph)
        return self._cascade

    def span_of(self, unit: str, text: str, line: int | None = None) -> Span:
        """The span of the first identifier token spelled ``text`` (on
        ``line`` when given, with a whole-unit fallback)."""
        candidates = [t for t in self.tokens(unit)
                      if t.kind in (TokKind.ID, TokKind.SYMID)
                      and t.text == text]
        for token in candidates:
            if line is None or token.line == line:
                return Span.of_token(token)
        if candidates:
            return Span.of_token(candidates[0])
        return Span(line or 1, 1)

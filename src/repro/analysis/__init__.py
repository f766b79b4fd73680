"""Project-wide static analysis ("smlint") over the dependency DAG.

The analyzer finds the *cascade amplifiers* the paper's recompilation
model warns about -- spurious dependency edges, over-broad ``open``
declarations, unascribed (fully transparent) exports, shadowed module
bindings -- and computes cascade-risk metrics (transitive-dependent
counts, per-binding fan-in) that rank the project's hot interfaces.

Entry points::

    python -m repro.analysis <srcdir|group.cm> [--strict] [--format json]
    python -m repro.cm <srcdir> --analyze [--strict]

or programmatically::

    from repro.analysis import analyze_project
    result = analyze_project(project)          # or graph=/cache= reuse
    for diag in result.diagnostics:
        print(diag.render_text())

Diagnostic codes are stable (``SC001``...); see the README's
"Static analysis" section for the table.  Each name below loads on
first use (:mod:`repro._lazy`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.analysis.cascade": ("CascadeReport", "UnitRisk", "cascade_report"),
    "repro.analysis.context": ("AnalysisConfig", "AnalysisContext"),
    "repro.analysis.diagnostics": ("SCHEMA", "Diagnostic", "Severity", "Span",
                                   "render_json", "render_text"),
    "repro.analysis.registry": ("RULES", "Rule", "rule", "run_rules"),
    "repro.analysis.runner": ("AnalysisResult", "analyze_project"),
    "repro.analysis.scopes": ("ModuleBind", "ModuleRef", "ScanResult",
                              "UseDefAnalysis", "binding_key",
                              "scan_module_refs", "split_binding_key",
                              "uses_from_mentions"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

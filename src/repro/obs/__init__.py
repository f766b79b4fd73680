"""Build observability: tracing, explanation ledgers, profiling.

The build pipeline is instrumented through a single seam, the
:class:`~repro.obs.meter.BuildMeter` protocol.  Every instrumented call
site talks to a meter; the default :data:`~repro.obs.meter.NULL_METER`
does nothing (and costs almost nothing -- see
``benchmarks/test_bench_trace_overhead.py``), a
:class:`~repro.obs.meter.CounterMeter` keeps per-name aggregates only
(the build daemon always runs one, for its ``stats`` request), and a
:class:`~repro.obs.tracer.Tracer` records nested spans, instant events
and counters, renders a human tree report, and exports Chrome
``trace_event`` JSON loadable in ``chrome://tracing`` / Perfetto.

Orthogonally to timing, every builder keeps a **cutoff-explanation
ledger** (:class:`~repro.obs.ledger.ExplanationLedger`): one typed
:class:`~repro.obs.ledger.BuildDecision` per unit saying whether it was
recompiled or reused and *why* -- source edit, a named import pid that
changed (and which upstream unit changed it), a store miss, quarantined
damage, or pure builder policy (make's transitive cascade).

Post-build analytics live in :mod:`repro.obs.critical`: critical-path
extraction over the dependency DAG (the chain that bounds parallel
wall-clock), per-phase rollups, worker idle time and span coverage.

Across builds, :mod:`repro.obs.history` keeps one
:class:`~repro.obs.history.BuildProfile` per manager under
``.bin/profiles/`` -- the latest build's decisions -- and
:mod:`repro.obs.diff` structurally compares the current ledger against
it (``--explain-diff``: "why did this unit rebuild today but not
yesterday").

Each name below loads on first use (:mod:`repro._lazy`), so an
untraced build never imports the tracer or the diff.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.meter": ("BuildMeter", "NullMeter", "NullSpan", "NULL_METER",
                        "CounterMeter"),
    "repro.obs.tracer": ("Tracer", "Span"),
    "repro.obs.ledger": ("BuildDecision", "PidChange", "ExplanationLedger",
                         "explain_decision"),
    "repro.obs.critical": ("critical_path", "phase_rollup", "span_coverage",
                           "worker_idle"),
    "repro.obs.history": ("BuildHistory", "BuildProfile", "decision_entry"),
    "repro.obs.diff": ("ProfileDiff", "UnitDiff", "diff_against_profile"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

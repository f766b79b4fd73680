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
"""

from repro.obs.meter import (
    NULL_METER,
    BuildMeter,
    CounterMeter,
    NullMeter,
    NullSpan,
)
from repro.obs.tracer import Span, Tracer
from repro.obs.ledger import (
    BuildDecision,
    ExplanationLedger,
    PidChange,
    explain_decision,
)
from repro.obs.critical import (
    critical_path,
    phase_rollup,
    span_coverage,
    worker_idle,
)
from repro.obs.history import BuildHistory, BuildProfile, decision_entry
from repro.obs.diff import ProfileDiff, UnitDiff, diff_against_profile

__all__ = [
    "BuildMeter",
    "NullMeter",
    "NullSpan",
    "NULL_METER",
    "CounterMeter",
    "Tracer",
    "Span",
    "BuildDecision",
    "PidChange",
    "ExplanationLedger",
    "explain_decision",
    "critical_path",
    "phase_rollup",
    "span_coverage",
    "worker_idle",
    "BuildHistory",
    "BuildProfile",
    "decision_entry",
    "ProfileDiff",
    "UnitDiff",
    "diff_against_profile",
]
